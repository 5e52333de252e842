"""Truncated q-characters.

The expansion algorithm starts from a dominant monomial and repeatedly
expands every node-dominant monomial through its rank-1 string
decomposition, assigning each generated monomial the maximum multiplicity
demanded across nodes.  Characters carry a truncation depth certificate:
every stored term lies within ``depth`` A-inverse steps of the top.

Expansions and truncated products run on packed integer keys, one
balanced signed field per (node, spectral) pair, wide enough that no
field can wrap: an A-inverse flip is one ``int`` subtraction and a
monomial product one ``int`` addition.  The flip choices on a node's
strings are built incrementally, each one A-inverse subtracted from the
choice it extends, and none past the depth budget is formed.  A packed
key is decoded a few fields at a time, each group's bits looked up in a
memo that lives for one call: an expansion decodes each term once, when
its layer is processed, and an identity check decodes only the
monomials on which its two sides differ.  A product packs each distinct
factor once, and squares a factor that occurs twice over unordered pairs
of its terms, each pair formed once and doubled off the diagonal.

The T-system and octahedron checks expand each string character once per
orbit: a spectral shift, and a node move checked to preserve the Cartan
data, carry one expansion onto the others."""

from __future__ import annotations

from .cartan import WeightVector, quantized_cartan_condition
from .errors import (AlgorithmFailure, DomainError, InputError,
                     WindowError)
from .monomials import YMonomial, a_monomial, dominance_leq, mono_format


class QCharacter:
    """Finitely supported positive-integer combination of Y-monomials."""

    __slots__ = ("cartan", "top", "depth", "terms", "heights")

    def __init__(self, cartan, top, depth, terms, heights):
        self.cartan = cartan
        self.top = top
        self.depth = depth
        self.terms = terms
        self.heights = heights

    def coeff(self, m):
        return self.terms.get(m, 0)

    def __len__(self):
        return len(self.terms)

    def __contains__(self, m):
        return m in self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (self.heights[kv[0]],
                                      mono_format(kv[0])))

    def dominant_terms(self):
        return {m: c for m, c in self.terms.items() if m.is_dominant()}

    def __eq__(self, other):
        if not isinstance(other, QCharacter):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return "QCharacter(%d terms to depth %d from %s)" % (
            len(self.terms), self.depth, mono_format(self.top))


def trivial_character(cartan, depth):
    if depth < 0:
        raise InputError("depth must be >= 0")
    one = YMonomial.one()
    return QCharacter(cartan, one, depth, {one: 1}, {one: 0})


def _string_decomposition(part, r_i):
    """Greedy maximal q_i^2-string decomposition of a dominant node part.

    ``part`` maps spectral exponent -> positive multiplicity.  Returns a
    list of (lowest exponent, length), consuming the highest remaining
    exponent first and extending each string downward as far as possible.
    """
    remaining = dict(part)
    strings = []
    while remaining:
        l = max(remaining)
        length = 0
        while remaining.get(l, 0) > 0:
            remaining[l] -= 1
            if not remaining[l]:
                del remaining[l]
            length += 1
            l -= 2 * r_i
        strings.append((l + 2 * r_i, length))
    return strings


# ---------------------------------------------------------------------------
# packed keys
# ---------------------------------------------------------------------------

# a packed key is decoded _CHUNK consecutive fields at a time
_CHUNK = 4


class _Packing:
    """Monomials packed into ints, one balanced signed field of ``width``
    bits per (node, spectral) pair, fields assigned from the low bits up
    as pairs are first seen.  A monomial packs to sum(e << shift[pair]),
    so a product of monomials packs to the sum of their ints and a
    quotient to the difference.  The width is fixed up front from the
    largest |exponent| any monomial of the computation can reach, so no
    field can wrap and every packed key decodes exactly.
    """

    __slots__ = ("width", "cap", "pairs", "shift", "ordered", "_flip",
                 "_masks", "_chunks", "_triple")

    def __init__(self, reach, pairs=()):
        """Fields for exponents up to ``reach`` in absolute value, the
        ``pairs`` given, in sorted order, owning the lowest fields."""
        self.width = w = reach.bit_length() + 1
        self.cap = (1 << (w - 1)) - 1      # cap >= reach
        self.pairs = list(pairs)
        self.shift = {p: w * n for n, p in enumerate(self.pairs)}
        self.ordered = True     # fields rise with the pairs' sort order
        n = len(self.pairs)
        # the top bit of every field
        self._flip = ((1 << w * n) - 1) // ((1 << w) - 1) << (w - 1)
        # the bits of each chunk of fields, in place
        cw = w * _CHUNK
        self._masks = [((1 << cw) - 1) << s for s in range(0, w * n, cw)]
        # one chunk's bits, in place -> its (node, spectral, exponent)
        # triples, shared by every key that decodes to them; each triple
        # is shared by every chunk that holds it
        self._chunks = {}
        self._triple = {}       # (field, its bits) -> its triple

    def _field(self, p):
        """The shift of a new field for the pair ``p``."""
        pairs = self.pairs
        if pairs and p < pairs[-1]:
            self.ordered = False
        w = self.width
        s = self.shift[p] = w * len(pairs)
        if len(pairs) % _CHUNK == 0:
            self._masks.append(((1 << w * _CHUNK) - 1) << s)
        pairs.append(p)
        self._flip |= 1 << (s + w - 1)
        return s

    def pack(self, key, bound=None):
        """The int of the monomial key ``key``.  Raises AlgorithmFailure,
        never wraps, if an |exponent| exceeds ``bound``, by default the
        largest a field holds."""
        if bound is None:
            bound = self.cap
        shift = self.shift
        g = 0
        for (i, l, e) in key:
            if not -bound <= e <= bound:
                raise AlgorithmFailure(
                    "exponent %d of Y[%s,%s] exceeds the field bound %d"
                    % (e, i, l, bound))
            s = shift.get((i, l))
            if s is None:
                s = self._field((i, l))
            g += e << s
        return g

    def decode(self, g):
        """The monomial packed as ``g``."""
        flip = self._flip
        # adding then xoring the top bits turns each balanced field into
        # its w-bit two's complement, and each zero field into 0
        z = (g + flip) ^ flip
        chunks = self._chunks
        key = []
        for n, mask in enumerate(self._masks):
            piece = z & mask
            if piece:
                t = chunks.get(piece)
                if t is None:
                    t = chunks[piece] = self._triples(piece, n)
                key += t
                z ^= piece
                if not z:
                    break
        if not self.ordered:
            key.sort()
        return YMonomial._from_key(tuple(key))

    def _triples(self, piece, n):
        """The triples of ``piece``, the bits in place of the n-th chunk."""
        w = self.width
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        triple = self._triple
        n *= _CHUNK
        bits = piece >> (w * n)
        out = []
        while bits:
            f = bits & mask
            if f:
                t = triple.get((n, f))
                if t is None:
                    i, l = self.pairs[n]
                    t = triple[n, f] = (i, l, f - (mask + 1) if f >= half
                                        else f)
                out.append(t)
            bits >>= w
            n += 1
        return tuple(out)


def fm_expand(C, mtop, depth, order_rng=None):
    """Truncated character expansion from a dominant top monomial.

    A monomial heads its node-i families through flips of its node-i
    strings: t flips on a string multiply by the A-inverses at its top t
    positions.  The flip choices are built string by string, each choice
    one A-inverse subtracted from the packed key of the choice it extends,
    in lexicographic order of the per-string flip counts, and no choice
    past the depth budget is formed.  Each generated monomial is decoded
    once, when its layer is processed.

    ``order_rng`` optionally shuffles the within-layer processing order;
    the result is independent of it, which the test suite exercises.
    """
    if not quantized_cartan_condition(C):
        raise DomainError("quantized Cartan condition fails; the character "
                          "engine is not available for this matrix")
    if not mtop.is_dominant():
        raise InputError("top monomial must be dominant")
    if depth < 0:
        raise InputError("depth must be >= 0")

    # every stored term lies within depth A-inverse steps of the top, and
    # each step moves an exponent by at most a_reach
    a_reach = _a_reach(C)
    packing = _Packing(
        max((e for (_, _, e) in mtop.key), default=0) + depth * a_reach,
        [(i, l) for (i, l, _) in mtop.key])
    gtop = packing.pack(mtop.key)
    heights = {gtop: 0}
    demands = {}            # packed key -> {node: copies generated via node}
    layers = {0: [gtop]}
    coeffs = {}
    monos = {}              # packed key -> its monomial
    a_packed = {}           # (node, spectral) -> packed A-monomial

    for h in range(0, depth + 1):
        layer = [(packing.decode(g), g) for g in layers.pop(h, ())]
        layer.sort(key=lambda mg: mg[0].key)
        if order_rng is not None:
            order_rng.shuffle(layer)
        room = depth - h
        for m, g in layer:
            monos[g] = m
            if h == 0:
                demand = {}
                c_m = 1
            else:
                demand = demands.pop(g)     # final once h is reached
                c_m = max(demand.values())
            coeffs[m] = c_m
            parts = []          # [(node, {spectral: exponent})], key order
            for (i, l, e) in m.key:
                if parts and parts[-1][0] == i:
                    parts[-1][1][l] = e
                else:
                    parts.append((i, {l: e}))
            for i, part in parts:
                covered = demand.get(i, 0)
                if covered > c_m:
                    raise AlgorithmFailure(
                        "node-%s expansions over-demand %s: %d > %d"
                        % (i, mono_format(m), covered, c_m))
                # copies already generated through node i sit inside known
                # rank-1 families; only the excess heads new ones
                excess = c_m - covered
                if excess == 0:
                    continue
                if min(part.values()) < 0:
                    raise AlgorithmFailure(
                        "monomial %s must head %d new node-%s families "
                        "but is not dominant there"
                        % (mono_format(m), excess, i))
                if room == 0:
                    continue        # every flip would leave the window
                r = C.r(i)
                choices = [(g, 0)]      # (packed key, flips so far)
                for lo, s in _string_decomposition(part, r):
                    # the t-th flip on this string is A_{i, q^(top - 2rt)}
                    top = lo + 2 * r * s - r
                    extended = []
                    for f, v in choices:
                        extended.append((f, v))
                        for t in range(min(s, room - v)):
                            il = (i, top - 2 * r * t)
                            a = a_packed.get(il)
                            if a is None:
                                a = a_packed[il] = packing.pack(
                                    a_monomial(C, *il).key, a_reach)
                            f -= a
                            v += 1
                            extended.append((f, v))
                    choices = extended
                for f, v in choices[1:]:    # the first is m itself
                    fh = h + v
                    known = heights.get(f)
                    if known is None:
                        heights[f] = fh
                        layers.setdefault(fh, []).append(f)
                        demands[f] = {i: excess}
                    elif known != fh:
                        raise AlgorithmFailure(
                            "inconsistent heights %d vs %d for %s"
                            % (known, fh, mono_format(packing.decode(f))))
                    else:
                        d = demands[f]
                        d[i] = d.get(i, 0) + excess

    return QCharacter(C, mtop, depth, coeffs,
                      {monos[g]: gh for g, gh in heights.items()})


def _a_reach(C):
    """The largest |entry| of an A-monomial of ``C``.  A_{i,q^l} moves
    with l only by a spectral shift, and every node of the infinite line
    reads like node 0."""
    nodes = (0,) if C.infinite else C.nodes
    return max((abs(e) for i in nodes
                for (_, _, e) in a_monomial(C, i, 0).key), default=0)


def kr_top_monomial(C, i, k, l):
    acc = {}
    for s in range(k):
        key = (i, l + 2 * C.r(i) * s)
        acc[key] = acc.get(key, 0) + 1
    return YMonomial(acc)


def kr_qchar(C, i, k, l, depth):
    """Truncated character of the node-i, length-k string module at q^l."""
    if k < 0:
        raise InputError("k must be >= 0")
    C.r(i)      # an unknown node is an InputError at every k
    if k == 0:
        return trivial_character(C, depth)
    return fm_expand(C, kr_top_monomial(C, i, k, l), depth)


def s_term(C, i, k, l):
    """Correction-term data of the three-term recurrence at (i, k, q^l).

    Returns {"factors": [(node j, K(j,l'), spectral exponent)],
             "nu": WeightVector}, where the factor list describes the
    product of string modules and nu the accompanying one-dimensional
    weight twist.  Each neighbour j contributes -C_ij strings; the l'-th
    has length K(j,l') = floor((-C_ji k - l') / -C_ij) + 1 and spectral
    shift r_j (2 l' - 1) / -C_ij.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    factors = []
    nu = WeightVector.fundamental(i).scale(k) \
        - WeightVector.simple_root(C, i).scale(k)
    nodes = C.neighbors(i)
    for j in nodes:
        c_ij = C.C(i, j)
        c_ji = C.C(j, i)
        for lp in range(1, -c_ij + 1):
            kk = (-c_ji * k - lp) // (-c_ij) + 1
            num = -C.r(j) * (2 * lp - 1)
            if num % c_ij != 0:
                raise DomainError("spectral shift off the q-lattice for "
                                  "pair (%r, %r)" % (i, j))
            shift = num // c_ij
            if kk < 0:
                raise DomainError("negative string length in correction "
                                  "term")
            factors.append((j, kk, l + shift))
            nu = nu - WeightVector.fundamental(j).scale(kk)
    return {"factors": factors, "nu": nu}


# ---------------------------------------------------------------------------
# truncated products and identities
# ---------------------------------------------------------------------------

class _Factor:
    """A character as a product factor reads it: its terms grouped by
    height (a list of (height, [(key, coeff), ...]) in rising height),
    the (node, spectral) pairs they use and their largest |exponent|.

    ``moved`` gives the same terms read through a node map and a spectral
    shift: ``images`` maps each pair to the pair it stands for, and
    packing applies it, so a transported character is never built.
    """

    __slots__ = ("top", "groups", "pairs", "reach", "images")

    def __init__(self, ch):
        heights = ch.heights
        groups = {}
        for m, c in ch.terms.items():
            groups.setdefault(heights[m], []).append((m.key, c))
        keys = [m.key for m in ch.terms]
        self.top = ch.top
        self.groups = sorted(groups.items())
        self.pairs = {(i, l) for key in keys for (i, l, _) in key}
        self.reach = max((abs(e) for key in keys for (_, _, e) in key),
                         default=0)
        self.images = None      # each pair stands for itself

    def moved(self, move, d):
        """This factor with node j read as ``move(j)`` and spectral
        exponent l as l + d."""
        out = _Factor.__new__(_Factor)
        out.groups = self.groups
        out.pairs = self.pairs
        out.reach = self.reach
        out.images = {(i, l): (move(i), l + d) for (i, l) in self.pairs}
        out.top = YMonomial({(move(i), l + d): e
                             for (i, l, e) in self.top.key})
        return out


class _Fields(_Packing):
    """Packed keys for the monomials of the products one check compares.

    Each (node, spectral) pair the factors use owns one field, the pairs
    in sorted order from the low bits up, so decoded keys need no sort.
    The width is set from the largest |exponent| any of the products can
    reach, the sum over its factors of their largest |exponent|.
    """

    __slots__ = ()

    def __init__(self, products):
        """``products`` lists the factor lists of every product whose
        packed keys will be met in one map."""
        pairs = set()
        reach = 0
        for factors in products:
            for f in factors:
                pairs.update(f.pairs if f.images is None
                             else f.images.values())
            reach = max(reach, sum(f.reach for f in factors))
        super().__init__(reach, sorted(pairs))

    def buckets(self, f):
        """The packed terms of factor ``f`` grouped by height."""
        loc = self.shift
        if f.images is not None:
            loc = {p: loc[q] for p, q in f.images.items()}
        out = []
        for h, group in f.groups:
            bucket = []
            for key, c in group:
                g = 0
                for (i, l, e) in key:
                    g += e << loc[i, l]
                bucket.append((g, c))
            out.append((h, bucket))
        return out

    def product(self, factors, depth, offset=0):
        """{packed key: (coeff, height)} of the product of ``factors``,
        keeping relative heights at most ``depth - offset``; each partial
        product only meets the factor buckets that still fit.  Each
        distinct factor is packed once, and a factor that occurs twice
        is first squared over unordered pairs of its terms."""
        budget = depth - offset
        packed = {f: self.buckets(f) for f in dict.fromkeys(factors)}
        rest = list(factors)
        acc = {0: (1, 0)}
        for n, f in enumerate(rest):
            if f in rest[n + 1:]:
                # a product commutes, so the repeated pair goes first
                rest.remove(f)
                rest.remove(f)
                acc = _square(packed[f], budget)
                break
        for f in rest:
            nxt = {}
            _meet(nxt, acc.items(), packed[f], budget)
            acc = nxt
        return {g: (c, offset + h) for g, (c, h) in acc.items()}


def _meet(out, terms, buckets, budget):
    """Add to ``out`` ({packed key: (coeff, height)}) the product of each
    (key, (coeff, height)) of ``terms`` with each term of ``buckets``
    (packed terms in rising height) that keeps the height within
    ``budget``."""
    for k1, (c1, h1) in terms:
        room = budget - h1
        for h2, bucket in buckets:
            if h2 > room:
                break
            h = h1 + h2
            for k2, c2 in bucket:
                g = k1 + k2
                prev = out.get(g)
                if prev is None:
                    out[g] = (c1 * c2, h)
                elif prev[1] != h:
                    raise AlgorithmFailure(
                        "height clash in truncated product")
                else:
                    out[g] = (prev[0] + c1 * c2, h)


def _square(buckets, budget):
    """{packed key: (coeff, height)} of the square of one factor's packed
    terms, summed over unordered pairs.  Terms are taken in rising
    height; term a meets itself with its coefficient c_a and each later
    term b with 2·c_b, so a pair and its mirror, which share one key and
    one height, are formed once.  No term past half the budget has a
    partner."""
    out = {}
    doubled = [(h, [(g, 2 * c) for g, c in bucket]) for h, bucket in buckets]
    for x, (h, bucket) in enumerate(buckets):
        if 2 * h > budget:
            break
        later = doubled[x + 1:]
        same = doubled[x][1]
        for a, (g, c) in enumerate(bucket):
            _meet(out, ((g, (c, h)),),
                  [(h, [(g, c)] + same[a + 1:])] + later, budget)
    return out


def char_product(chars, depth, offset=0):
    """Term map of a product of characters, keeping relative heights
    (offset + sum of factor heights) at most ``depth``.

    Soundness rests on heights being additive under products.  A factor
    truncated below ``depth - offset``, the height it is read to, is a
    WindowError.  Returns {monomial: (coeff, height)}, heights absolute.
    """
    if depth < 0:
        raise InputError("depth must be >= 0")
    made = {}               # id of a character -> its factor
    factors = []
    for ch in chars:
        if ch.depth < depth - offset:
            raise WindowError("a factor truncated at depth %d is read to "
                              "depth %d" % (ch.depth, depth - offset))
        f = made.get(id(ch))
        if f is None:
            f = made[id(ch)] = _Factor(ch)
        factors.append(f)
    fields = _Fields([factors])
    return {fields.decode(g): v
            for g, v in fields.product(factors, depth, offset).items()}


def _add_term_maps(a, b):
    out = dict(a)
    for m, (c, h) in b.items():
        if m in out:
            if out[m][1] != h:
                raise AlgorithmFailure("height clash across summands")
            out[m] = (out[m][0] + c, h)
        else:
            out[m] = (c, h)
    return out


def _diff_term_maps(a, b):
    keys = set(a) | set(b)
    out = {}
    for m in keys:
        ca = a.get(m, (0, None))[0]
        cb = b.get(m, (0, None))[0]
        if ca != cb:
            out[m] = (ca, cb)
    return out


def _mismatch_rows(fields, mism):
    return sorted((mono_format(fields.decode(g)), ca, cb)
                  for g, (ca, cb) in mism.items())


def _three_term(C, lhs, rhs, corr, depth):
    """Compare the product of the factors ``lhs`` with that of ``rhs``
    plus that of ``corr`` on every monomial of height at most ``depth``
    below their shared top.  The correction's top sits below it by a
    product of A^-1's; returns (their count, the mismatch rows)."""
    m0 = _top(lhs)
    if _top(rhs) != m0:
        raise AlgorithmFailure("product tops disagree")
    fs = dominance_leq(C, _top(corr), m0, depth + 64)
    if fs is None:
        raise AlgorithmFailure("correction term does not sit below the "
                               "product top")
    offset = len(fs)
    sides = [lhs, rhs]
    if offset <= depth:
        sides.append(corr)
    fields = _Fields(sides)
    want = fields.product(rhs, depth)
    if offset <= depth:
        want = _add_term_maps(want, fields.product(corr, depth, offset))
    mism = _diff_term_maps(fields.product(lhs, depth), want)
    return offset, _mismatch_rows(fields, mism)


def _top(factors):
    m = YMonomial.one()
    for f in factors:
        m = m * f.top
    return m


def _same_node(i):
    return i


class _StringChars:
    """The string characters ``kr_qchar(C, i, k, l, depth)`` one identity
    check reads, as product factors, expanding each (node, k) orbit once.

    A spectral shift by d maps A_{i,q^l} to A_{i,q^(l+d)}, so it carries
    the character at q^l onto the one at q^(l+d) for all Cartan data.  A
    node move sigma carries node-i characters onto node-sigma(i) ones
    only where it preserves the data, C(sigma i, sigma j) = C(i, j) and
    r(sigma i) = r(i); that is checked on every node the expansion reads,
    not assumed.  The moves tried are the rotations of a ``cycle_len``
    cycle on nodes 0..n-1 and the translations of the infinite line, each
    from node 0.
    """

    def __init__(self, C, depth):
        self.C = C
        self.depth = depth
        self.bases = {}         # (node, k) -> factor of the char at q^0
        self.moves = {}         # node -> (source node, node map)
        self.factors = {}       # (node, k, l) -> factor

    def __call__(self, i, k, l):
        f = self.factors.get((i, k, l))
        if f is None:
            if k == 0:
                f = _Factor(trivial_character(self.C, self.depth))
            else:
                src, move = self._move(i)
                base = self.bases.get((src, k))
                if base is None:
                    base = self.bases[src, k] = _Factor(kr_qchar(
                        self.C, src, k, 0, self.depth))
                f = base if src == i and l == 0 else base.moved(move, l)
            self.factors[i, k, l] = f
        return f

    def _move(self, i):
        """(source node, node map) of the checked move onto node i; the
        source is i itself when no move applies."""
        got = self.moves.get(i)
        if got is None:
            C = self.C
            n = C.cycle_len
            if C.infinite:
                def move(j):
                    return j + i
            elif n is not None and sorted(C.nodes) == list(range(n)):
                def move(j):
                    return (j + i) % n
            else:
                move = None
            if move is None or move(0) == 0 or not self._preserves(move):
                got = (i, _same_node)
            else:
                got = (0, move)
            self.moves[i] = got
        return got

    def _preserves(self, move):
        """True iff ``move`` keeps r and every entry at each node within
        ``depth`` steps of node 0, which holds all that the expansion
        from node 0 reads."""
        C = self.C
        seen = {0}
        ring = [0]
        for _ in range(self.depth):
            ring = [j for x in ring for j in C.neighbors(x) if j not in seen]
            seen.update(ring)
        for x in seen:
            mx = move(x)
            if C.r(mx) != C.r(x) or C.C(mx, mx) != C.C(x, x):
                return False
            nbrs = C.neighbors(x)
            if sorted(map(move, nbrs)) != sorted(C.neighbors(mx)):
                return False
            for j in nbrs:
                if (C.C(mx, move(j)) != C.C(x, j)
                        or C.C(move(j), mx) != C.C(j, x)):
                    return False
        return True


def verify_tsystem(C, i, k, l, depth):
    """Exact truncated check of the three-term recurrence at (i, k, q^l).

    Both sides are recomputed through the expansion engine and compared on
    every monomial of height at most ``depth`` relative to the shared top.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if k < 1:
        raise InputError("k must be >= 1, got k = %d" % k)
    chars = _StringChars(C, depth)
    two_ri = 2 * C.r(i)
    w_k_a = chars(i, k, l)
    w_k_aq2 = chars(i, k, l + two_ri)
    w_kp = chars(i, k + 1, l)
    w_km = chars(i, k - 1, l + two_ri)

    st = s_term(C, i, k, l)
    s_chars = [chars(j, kk, ll) for (j, kk, ll) in st["factors"] if kk > 0]
    s_offset, rows = _three_term(C, [w_k_a, w_k_aq2], [w_kp, w_km], s_chars,
                                 depth)
    return {
        "holds": not rows,
        "depth": depth,
        "s_offset": s_offset,
        "nu": st["nu"],
        "mismatches": rows,
    }


# ---------------------------------------------------------------------------
# specialness
# ---------------------------------------------------------------------------

def is_special(char):
    """True iff exactly one dominant monomial occurs, with coefficient 1.

    The verdict is relative to the stored truncation depth.
    """
    dom = char.dominant_terms()
    return len(dom) == 1 and next(iter(dom.values())) == 1


# ---------------------------------------------------------------------------
# octahedron recurrence over the infinite line
# ---------------------------------------------------------------------------

def octahedron_verify(C, depth, i_range, k_range, t_range):
    """Check T(i,k,t-1)T(i,k,t+1) = T(i+1,k,t)T(i-1,k,t) + T(i,k+1,t)T(i,k-1,t)
    for the lattice of string-module characters T(i,k,t) at spectral
    exponent t+1-k, truncated at ``depth``."""
    if not C.infinite:
        raise DomainError("the octahedron lattice lives on the infinite "
                          "line")
    if not (i_range and k_range and t_range):
        raise InputError("empty node, k or t range")
    if min(k_range) < 1:
        raise InputError("every k of the k range must be >= 1, got k = %d"
                         % min(k_range))
    chars = _StringChars(C, depth)

    def T(i, k, t):
        return chars(i, k, t + 1 - k)

    cells = []
    ok = True
    for i in i_range:
        for k in k_range:
            for t in t_range:
                _, rows = _three_term(
                    C, [T(i, k, t - 1), T(i, k, t + 1)],
                    [T(i, k + 1, t), T(i, k - 1, t)],
                    [T(i + 1, k, t), T(i - 1, k, t)], depth)
                cells.append({"cell": (i, k, t), "holds": not rows,
                              "mismatches": rows})
                ok = ok and not rows
    return {"holds": ok, "depth": depth, "cells": cells}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def char_to_json(char):
    return {
        "top": mono_format(char.top),
        "depth": char.depth,
        "terms": [{"monomial": mono_format(m), "coeff": c,
                   "height": char.heights[m]}
                  for m, c in char.sorted_terms()],
    }


def char_to_dot(char):
    """Graph rendering: one node per monomial, an edge m -> m A^-1 labeled
    by the expanding node, mirroring the usual labeled-edge layout."""
    C = char.cartan
    order = [m for m, _ in char.sorted_terms()]
    ids = {m: "m%d" % k for k, m in enumerate(order)}
    lines = ["digraph qchar {", "  rankdir=TB;"]
    for m in order:
        label = mono_format(m)
        c = char.terms[m]
        if c != 1:
            label = "%d x %s" % (c, label)
        lines.append('  %s [label="%s"];' % (ids[m], label))
    # m -> g is an edge when m / g is one A-monomial A_{i,q^l}.  Its
    # entry at (i, l + r_i) is +1, so there either m is positive or g is
    # negative, never both: probing A_{i,q^(x - r_i)} at each positive
    # entry (i, x) of m and each negative entry of g finds every edge once
    groups = {}
    for m in order:
        groups.setdefault(char.heights[m], set()).add(m)
    rank = {m: n for n, m in enumerate(order)}
    a_monos = {}            # (node, spectral) -> that A-monomial

    def a_mono(i, x):
        a = a_monos.get((i, x))
        if a is None:
            a = a_monos[i, x] = a_monomial(C, i, x - C.r(i))
        return a

    edges = {}              # m -> [(rank of g, node)]
    for m in order:
        h = char.heights[m]
        below = groups.get(h + 1)
        above = groups.get(h - 1)
        for (i, x, e) in m.key:
            if e > 0 and below:
                g = m.mul_power(a_mono(i, x), -1)
                if g in below:
                    edges.setdefault(m, []).append((rank[g], i))
            elif e < 0 and above:
                p = m * a_mono(i, x)
                if p in above:
                    edges.setdefault(p, []).append((rank[m], i))
    for m in order:
        for n, i in sorted(edges.get(m, ())):
            lines.append('  %s -> %s [label="%s"];'
                         % (ids[m], ids[order[n]], i))
    lines.append("}")
    return "\n".join(lines) + "\n"
