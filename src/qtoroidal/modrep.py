"""Explicit module realizations and the defining-relation verifier.

The rank-three extremal loop module is materialized over a finite window
of its doubly infinite basis; operator images that leave the window are
kept as boundary labels and any relation evaluation that would need to
act on them is skipped, never silently zeroed.  Root-of-unity quotients
identify the window periodically and live over a cyclotomic field, so
every vector is interior there.

Every generator acts through one sparse operator (``LinOp``) built once
per module from the generator tables in ``image()``.  Diagonal
h-generators have no table of their own: their eigenvalues are read off
the phi-eigenvalue series by Newton's identity, keeping the phi-tables
the single source of truth.

Every generator operator is monomial: ``image()`` gives each basis vector
at most one target.  So the image of a basis vector under a word of
generators is one (label, scalar) pair, zero, or an escape from the
window.  The relation verifier indexes the basis labels 0..n-1 once per
call and reads each generator's columns once, as a list over those
indices whose entries are (target index, scalar), or None where the
generator kills the vector; a target off the window gets an index >= n.
Almost every scalar there is a unit, +-q^e on a loop module and a root
of unity e^k on a quotient, and so are most relation coefficients.  So
each scalar is held as an exponent and a sign read by ``as_unit``, plus
the ring element itself only when it is no unit.  A relation term is
evaluated on a basis vector by one walk over its letters' lists instead
of replaying the word through ``apply``, adding exponents and
multiplying signs; the ring is touched once per term that survives the
walk, and again only for a letter or coefficient that is no unit.  A
letter that meets an index >= n would act off the window, so the vector
is skipped, while a word's final image may land off the window.

The relation instances carry coefficients in the module's scalar ring.
One walk over them (``_first_witness_walk``) counts instances per family
and stops checking a family at its first witness; the verifier here and
the coproduct check in ``fusion`` both run on it.  On a quotient the walk
checks one instance per rotation orbit of the cycle.  Moving every node
one step round the cycle maps each instance to one with the same
coefficients and the same total degree D, and when the label rotation
rho(a, p) = _norm(a + 1, p) intertwines every generator g the walk reads
with its rotation up to q^deg(g) (the diagram rotation composed with the
spectral shift x+-_{i,r} -> q^r x+-_{i,r}), an instance holds exactly
when its rotation does.  That intertwining is checked at run time on what
the check reads, never assumed; then only the instances whose outermost
node is 0 are checked, and every count is 4 times theirs.  A generator
that does not rotate, a witness or a library error on the way reruns the
full walk from the start, and a loop module, whose window no rotation
preserves, always takes it; so every report and error is the full
walk's.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (ConstructionError, DomainError, EscapeError,
                     ExactDivisionError, InputError, QtorError)
from .linalg import Field, LinOp, determinant, op_matrix
from .monomials import YMonomial, mono_format
from .scalars import (CycScalar, QScalar, TruncSeries, cyclotomic_specialize,
                      q_binom, q_int)

LETTERS = 4          # basis letters per lattice site in the rank-3 module


def _norm_label(a, p):
    while a > LETTERS:
        a -= LETTERS
        p += 1
    while a < 1:
        a += LETTERS
        p -= 1
    return a, p


class ModuleRealization:
    """Indexed basis with exact Drinfeld-generator tables.

    ``kind`` is "loop" (generic q, windowed) or "rou" (root of unity,
    periodic).  Generators are addressed by tuples:
    ("xp", a, r), ("xm", a, r), ("phip", a, m>=0), ("phim", a, m<=0),
    ("k", a, +-1), the unit ("one",) and the derived ("h", a, m != 0).
    """

    def __init__(self, kind, *, window=None, period=None, corrupt_xp=None):
        self.kind = kind
        self.nodes = (0, 1, 2, 3)         # the nodes of the A3 cycle
        self.corrupt_xp = corrupt_xp      # (node, r): flip one table's sign
        if kind == "loop":
            if window is None or window[0] > window[1]:
                raise InputError("a nonempty window [p_min, p_max] is "
                                 "required")
            self.window = tuple(window)
            self.period = None
            self.cyc_order = None
            self.basis = [(a, p) for p in range(window[0], window[1] + 1)
                          for a in range(1, LETTERS + 1)]
        elif kind == "rou":
            if period is None or period < 1:
                raise InputError("period L must be >= 1")
            self.window = None
            self.period = period
            self.cyc_order = 4 * period
            self.basis = [(a, p) for p in range(period)
                          for a in range(1, LETTERS + 1)]
        else:
            raise InputError("unknown kind %r" % kind)
        self._basis_set = set(self.basis)
        self._ops = {}
        # scalars are never mutated, so the constants are built once and
        # shared by every table entry and relation coefficient
        self._q_powers = {}
        self._one = (QScalar.one() if kind == "loop"
                     else CycScalar.one(self.cyc_order))
        self._zero = self._one - self._one
        self._qq_inv = self.q_power(1) - self.q_power(-1)

    # -- scalars --------------------------------------------------------

    def one(self):
        return self._one

    def q_power(self, e):
        """q^e, built once per value: on a quotient q is the root e^1, so
        exponents equal mod the order share one scalar."""
        if self.cyc_order is not None:
            e %= self.cyc_order
        x = self._q_powers.get(e)
        if x is None:
            x = self._q_powers[e] = (
                QScalar.q_power(e) if self.cyc_order is None
                else CycScalar.root_power(self.cyc_order, e))
        return x

    def qq_inv(self):
        """q - q^-1 in the module's scalar ring."""
        return self._qq_inv

    def from_qscalar(self, x):
        if self.kind == "loop":
            return x
        return cyclotomic_specialize(x, self.cyc_order)

    # -- labels ----------------------------------------------------------

    def _norm(self, a, p):
        a, p = _norm_label(a, p)
        if self.kind == "rou":
            p %= self.period
        return a, p

    def in_basis(self, label):
        return label in self._basis_set

    # -- raw action ------------------------------------------------------

    def _b_case(self, g, a, p):
        """(b, p_eff) when the label (a, p) is v_{g+b, p_eff}, else None."""
        if g == 0:
            if a == LETTERS:
                return 0, (p + 1)
            if a == 1:
                return 1, p
            return None
        if a == g:
            return 0, p
        if a == g + 1:
            return 1, p
        return None

    def _site_exp(self, g, p_eff, m):
        return m * (4 * p_eff + g - 1)

    def image(self, gen, label):
        """Image of a basis (or boundary) label: (label', scalar) for the
        ladder generators, ("diag", scalar) for the diagonal ones, or None
        when the generator kills the vector."""
        a, p = label
        name = gen[0]
        if name == "xp":
            _, g, r = gen
            bc = self._b_case(g, a, p)
            if bc is None or bc[0] != 1:
                return None
            p_eff = bc[1]
            scal = self.q_power(self._site_exp(g, p_eff, r))
            if self.corrupt_xp == (g, r):
                scal = -scal
            return self._norm(g, p_eff), scal
        if name == "xm":
            _, g, r = gen
            bc = self._b_case(g, a, p)
            if bc is None or bc[0] != 0:
                return None
            p_eff = bc[1]
            return (self._norm(g + 1, p_eff),
                    self.q_power(self._site_exp(g, p_eff, r)))
        if name in ("phip", "phim"):
            _, g, m = gen
            sign = 1 if name == "phip" else -1
            if name == "phip" and m < 0:
                raise InputError("phip index must be >= 0")
            if name == "phim" and m > 0:
                raise InputError("phim index must be <= 0")
            bc = self._b_case(g, a, p)
            if m == 0:
                if bc is None:
                    return "diag", self.one()
                return "diag", self.q_power(sign * (1 if bc[0] == 0 else -1))
            if bc is None:
                return None
            b, p_eff = bc
            mag = abs(m)
            val = self.qq_inv() * self.q_power(
                self._site_exp(g, p_eff, sign * mag))
            if (sign == 1) != (b == 0):
                val = -val
            return "diag", val
        if name == "k":
            _, g, e = gen
            bc = self._b_case(g, a, p)
            if bc is None:
                return "diag", self.one()
            return "diag", self.q_power(e * (1 if bc[0] == 0 else -1))
        if name == "h":
            _, g, m = gen
            return "diag", self.h_eigenvalue(g, m, label)
        if name == "one":
            return "diag", self.one()
        raise InputError("unknown generator %r" % (gen,))

    def apply(self, gen, vec):
        """Apply a generator to {label: scalar}; raises EscapeError when a
        source label has no table row (outside the window)."""
        for label in vec:
            if not self.in_basis(label):
                raise EscapeError("label %r is outside the window"
                                  % (label,))
        return self.op(gen).apply(vec)

    def op(self, gen):
        """The generator as a sparse operator over the materialized basis,
        built from ``image()`` on first use and cached on the module;
        boundary targets appear as labels outside the window."""
        op = self._ops.get(gen)
        if op is None:
            cols = {}
            for label in self.basis:
                img = self.image(gen, label)
                if img is None:
                    continue
                tgt, scal = img
                cols[label] = {label if tgt == "diag" else tgt: scal}
            op = self._ops[gen] = LinOp(cols)
        return op

    # -- phi series and derived h ----------------------------------------

    def phi_series(self, g, sign, label, order):
        """Diagonal phi eigenvalue series on one basis vector, in the
        variable z (sign +) or z^-1 (sign -), orders 0..order."""
        coeffs = {}
        for m in range(order + 1):
            gen = ("phip", g, m) if sign > 0 else ("phim", g, -m)
            img = self.image(gen, label)
            if img is None:
                continue
            tag, val = img
            if tag != "diag":
                raise ConstructionError("phi image %r of %r is not diagonal"
                                        % (gen, label))
            if val:
                coeffs[m] = val
        return TruncSeries("z" if sign > 0 else "w", coeffs, 0, order)

    def h_eigenvalue(self, g, m, label):
        """Eigenvalue of the derived diagonal generator h_{g,m} (m != 0),
        read off the phi series.

        phi(z) = phi_0 exp(+-(q - q^-1) sum_k h_{g,+-k} z^k), so with
        t_k = phi_k / phi_0 the numbers b_k = +-k (q - q^-1) h_{g,+-k}
        obey Newton's identity b_k = k t_k - sum_{0<j<k} b_j t_{k-j}
        (Macdonald, Symmetric Functions and Hall Polynomials, I.2).
        Raises DomainError naming the vector when phi_0 is not invertible
        or b_|m| / |m| is not a multiple of q - q^-1.  When phi_0 is 1 and
        phi_1..phi_|m| vanish, as on every vector node g does not touch,
        every b_k is 0 and so is the eigenvalue.
        """
        if m == 0:
            raise InputError("h index must be nonzero")
        sign = 1 if m > 0 else -1
        n = abs(m)
        series = self.phi_series(g, sign, label, n)
        zero = self._zero
        phi = [series.at(k) or zero for k in range(n + 1)]
        if phi[0] == self._one and not any(phi[1:]):
            return zero
        try:
            inv0 = phi[0].inverse()
        except DomainError as exc:
            raise DomainError("no h_{%d,%d} eigenvalue on %r: phi_0 is not "
                              "invertible (%s)" % (g, m, label, exc)) from exc
        t = [p * inv0 for p in phi]
        b = [zero]
        for k in range(1, n + 1):
            acc = t[k] * k
            for j in range(1, k):
                acc = acc - b[j] * t[k - j]
            b.append(acc)
        try:
            val = (b[n] * Fraction(1, n)).exact_div(self.qq_inv())
        except ExactDivisionError as exc:
            raise DomainError("no h_{%d,%d} eigenvalue on %r: the log "
                              "coefficient is not a multiple of q - q^-1"
                              % (g, m, label)) from exc
        return -val if sign < 0 else val


def build_extremal_loop(window, corrupt_xp=None):
    """The integrable loop realization over generic q on a basis window."""
    return ModuleRealization("loop", window=window, corrupt_xp=corrupt_xp)


def build_root_of_unity(L):
    """The 4L-dimensional periodic quotient over the order-4L cyclotomic
    field; for L = 1 this is the explicit 4-dimensional module."""
    return ModuleRealization("rou", period=L)


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

class RelationReport:
    """Per-family verification outcome with a reproducible witness."""

    def __init__(self):
        self.families = []

    def add(self, name, instances, checked, skipped, witness):
        self.families.append({
            "family": name,
            "instances": instances,
            "checked_vectors": checked,
            "skipped_vectors": skipped,
            "passed": witness is None,
            "witness": witness,
        })

    @property
    def passed(self):
        return all(f["passed"] for f in self.families)

    def family(self, name):
        for f in self.families:
            if f["family"] == name:
                return f
        raise KeyError(name)

    def to_json(self):
        return {"passed": self.passed, "families": self.families}


def _b_matrix(a, b):
    """Symmetrized entries of the 4-node cycle (all r_i = 1)."""
    if a == b:
        return 2
    return -1 if (a - b) % 4 in (1, 3) else 0


def _relation_instances(M, r_bound, m_bound, _firsts=None):
    """Yield (family, description, terms); a term is (coefficient in the
    module's scalar ring, generator sequence applied right to left).
    Coefficients are built once per loop level they depend on, the serre
    ones once per exponent s, and shared between instances; scalars are
    never mutated.

    ``_firsts`` (default: every node) are the nodes each family's
    outermost node loop runs over."""
    nodes = M.nodes
    firsts = nodes if _firsts is None else _firsts
    one = M.one()
    neg_one = -one
    rng_r = range(-r_bound, r_bound + 1)
    rng_m = [m for m in range(-m_bound, m_bound + 1) if m]
    signs = ((1, "xp"), (-1, "xm"))

    for a in firsts:
        for b in nodes:
            yield ("k-cartan", "k_%d k_%d = k_%d k_%d" % (a, b, b, a),
                   [(one, [("k", a, 1), ("k", b, 1)]),
                    (neg_one, [("k", b, 1), ("k", a, 1)])])
        yield ("k-cartan", "k_%d k_%d^-1 = 1" % (a, a),
               [(one, [("k", a, 1), ("k", a, -1)]), (neg_one, [])])
        for b in nodes:
            for m in rng_m:
                yield ("k-cartan", "[k_%d, h_{%d,%d}] = 0" % (a, b, m),
                       [(one, [("k", a, 1), ("h", b, m)]),
                        (neg_one, [("h", b, m), ("k", a, 1)])])

    for a in firsts:
        for b in nodes:
            for m in rng_m:
                for mp in rng_m:
                    yield ("h-h", "[h_{%d,%d}, h_{%d,%d}] = 0"
                           % (a, m, b, mp),
                           [(one, [("h", a, m), ("h", b, mp)]),
                            (neg_one, [("h", b, mp), ("h", a, m)])])

    for a in firsts:
        for b in nodes:
            B = _b_matrix(a, b)
            shifts = [(sgn, tag, -M.q_power(sgn * B))
                      for sgn, tag in signs]
            for r in rng_r:
                for sgn, tag, neg_qB in shifts:
                    yield ("k-x",
                           "k_%d x%s_{%d,%d} k_%d^-1 = q^%d x%s_{%d,%d}"
                           % (a, tag, b, r, a, sgn * B, tag, b, r),
                           [(one, [("k", a, 1), (tag, b, r), ("k", a, -1)]),
                            (neg_qB, [(tag, b, r)])])

    for a in firsts:
        for b in nodes:
            B = _b_matrix(a, b)
            for m in rng_m:
                coef = M.from_qscalar(q_int(m * B) * Fraction(1, m))
                for sgn, tag in signs:
                    shifted = -coef if sgn == 1 else coef
                    for r in rng_r:
                        yield ("h-x",
                               "[h_{%d,%d}, x%s_{%d,%d}]" % (a, m, tag, b, r),
                               [(one, [("h", a, m), (tag, b, r)]),
                                (neg_one, [(tag, b, r), ("h", a, m)]),
                                (shifted, [(tag, b, m + r)])])

    qdiff = M.qq_inv()
    neg_qdiff = -qdiff
    for a in firsts:
        for b in nodes:
            for r in rng_r:
                for rp in rng_r:
                    terms = [(qdiff, [("xp", a, r), ("xm", b, rp)]),
                             (neg_qdiff, [("xm", b, rp), ("xp", a, r)])]
                    if a == b:
                        s = r + rp
                        if s >= 0:
                            terms.append((neg_one, [("phip", a, s)]))
                        if s <= 0:
                            terms.append((one, [("phim", a, s)]))
                    yield ("xpxm",
                           "[x+_{%d,%d}, x-_{%d,%d}] vs phi" % (a, r, b, rp),
                           terms)

    for a in firsts:
        for b in nodes:
            B = _b_matrix(a, b)
            for sgn, tag in signs:
                neg_qB = -M.q_power(sgn * B)
                for r in rng_r:
                    for rp in rng_r:
                        yield ("quadratic",
                               "x%s_{%d,%d+1} x%s_{%d,%d} exchange"
                               % (tag, a, r, tag, b, rp),
                               [(one, [(tag, a, r + 1), (tag, b, rp)]),
                                (neg_qB, [(tag, b, rp), (tag, a, r + 1)]),
                                (neg_qB, [(tag, a, r), (tag, b, rp + 1)]),
                                (one, [(tag, b, rp + 1), (tag, a, r)])])

    serre_coefs = {}
    for a in firsts:
        for b in nodes:
            if a == b:
                continue
            s = 1 - _b_matrix(a, b)
            coefs = serre_coefs.get(s)
            if coefs is None:
                binoms = [q_binom(s, k) for k in range(s + 1)]
                # the k-th serre coefficient by weight: a repeated pair of
                # indices stands for both of its orderings
                coefs = serre_coefs[s] = {
                    w: [M.from_qscalar(c * ((-1) ** k * w))
                        for k, c in enumerate(binoms)]
                    for w in (1, 2)}
            for sgn, tag in signs:
                for r1 in rng_r:
                    for r2 in rng_r:
                        if s == 2 and r2 < r1:
                            continue
                        for rp in rng_r:
                            rs = (r1, r2)[:s]
                            terms = []
                            perms = {rs, rs[::-1]} if s == 2 else {rs}
                            weight = 2 if (s == 2 and len(perms) == 1) \
                                else 1
                            for perm in sorted(perms):
                                for k, coef in enumerate(coefs[weight]):
                                    seq = [(tag, a, rr) for rr in perm[:k]]
                                    seq.append((tag, b, rp))
                                    seq += [(tag, a, rr) for rr in perm[k:]]
                                    terms.append((coef, seq))
                            yield ("serre",
                                   "serre %s (%d,%d) r=%r r'=%d"
                                   % (tag, a, b, rs, rp), terms)


def _rotated(gen, k=1):
    """gen with its node moved k steps round the cycle (the unit stays)."""
    if gen[0] == "one":
        return gen
    name, i, x = gen
    return name, (i + k) % 4, x


def _degree(gen):
    """The spectral degree of a generator: r for x+-_{i,r}, m for
    phi+-_{i,m} and h_{i,m}, 0 for k and the unit."""
    return 0 if gen[0] in ("k", "one") else gen[2]


def _label_rotation(M):
    """The rotation rho(a, p) = _norm(a + 1, p) of a quotient's basis
    labels, as a dict."""
    return {v: M._norm(v[0] + 1, v[1]) for v in M.basis}


def _intertwined(a, b, rho, c):
    """Whether b rho = c rho a: b's column at rho(v) is a's column at v
    with its targets moved by ``rho`` and its entries times c, for every
    v, and b has no other column."""
    if len(a.cols) != len(b.cols):
        return False
    bcols = b.cols
    unscaled = c.is_one()
    for src, col in a.cols.items():
        bcol = bcols.get(rho[src])
        if bcol is None or len(bcol) != len(col):
            return False
        for dst, v in col.items():
            w = bcol.get(rho.get(dst))
            if w is None or w != (v if unscaled else v * c):
                return False
    return True


def _walk(instances, check, clean=False):
    """The first-witness walk over ``instances``: the records by family,
    or None as soon as an instance has a witness when ``clean``."""
    fams = {}
    for family, desc, terms in instances:
        fam = fams.get(family)
        if fam is None:
            fam = fams[family] = {"instances": 0, "checked": 0,
                                  "skipped": 0, "witness": None}
        fam["instances"] += 1
        if fam["witness"] is None:
            fam["witness"] = check(desc, terms, fam)
            if clean and fam["witness"] is not None:
                return None
    return fams


def _orbit_walk(M, r_bound, m_bound, check, rotates):
    """The walk over one instance per rotation orbit, with every count
    times the orbit size 4, or None unless it is a clean pass: every
    generator rotates (``rotates``), no instance has a witness and no
    library error is raised."""
    reps = list(_relation_instances(M, r_bound, m_bound, M.nodes[:1]))
    # every generator the full walk reads: the rotations of those the
    # representatives read, in a fixed order
    gens = dict.fromkeys(_rotated(gen, k) for _, _, terms in reps
                         for _, seq in terms for gen in seq
                         for k in range(len(M.nodes)))
    try:
        if not all(rotates(gen) for gen in gens):
            return None
        fams = _walk(reps, check, clean=True)
    except QtorError:
        return None
    if fams is not None:
        for fam in fams.values():
            for key in ("instances", "checked", "skipped"):
                fam[key] *= len(M.nodes)
    return fams


def _first_witness_walk(M, r_bound, m_bound, check, rotates=None):
    """Run ``check(desc, terms, fam)`` on the defining-relation instances
    within the bounds, in order, until each family has a witness.

    ``check`` returns the instance's witness or None, and may count into
    ``fam``, its family's record {"instances", "checked", "skipped",
    "witness"}.  Every instance is counted, checked or not.  Returns the
    records by family, in the order the families are first seen.

    On a quotient, ``rotates(gen)`` (when given) says whether what
    ``check`` reads for the generator rot(gen), its node moved one step
    round the cycle, is what it reads for gen conjugated by the label
    rotation rho and scaled by q^deg(gen).  Every instance R has terms of
    one total degree D, and its rotation rot(R) is an instance with the
    same coefficients, so when every generator rotates, M(rot R) rho =
    q^D rho M(R): R holds exactly when rot(R) does, and one instance per
    orbit of 4 settles the other three.  The walk then checks only the
    instances whose outermost node is 0, each the first of its orbit, and
    counts 4 of everything.  Anything but a clean pass (a generator that
    does not rotate, a witness, a library error) reruns the full walk
    from the start, so witnesses, counts and errors are the full walk's.
    A loop module's window is not rotation-invariant: it always takes
    the full walk.
    """
    if r_bound < 0 or m_bound < 0:
        raise InputError("relation bounds must be >= 0, got r %d, m %d"
                         % (r_bound, m_bound))
    if rotates is not None and M.kind == "rou":
        fams = _orbit_walk(M, r_bound, m_bound, check, rotates)
        if fams is not None:
            return fams
    return _walk(_relation_instances(M, r_bound, m_bound), check)


def verify_relations(M, r_bound, m_bound):
    """Evaluate every defining relation with indices within the bounds on
    every basis vector whose full evaluation stays inside the window.

    A vector is skipped when some term's word would act on a label outside
    the window; a word's final image may leave it.  The central element is
    the identity throughout.  Failures carry the first offending
    (relation, vector, entry) witness.  The h modes run over
    0 < |m| <= m_bound, so m_bound = 0 reaches no h-h or h-x relation
    and only the k-cartan instances without an h.
    """
    # basis labels are indexed 0..n-1; a target off the window gets the
    # next free index >= n the first time a column reaches it
    n = len(M.basis)
    labels = list(M.basis)
    index = {lab: i for i, lab in enumerate(labels)}
    columns = {}
    # the units s q^e (q the root e^1 on a quotient) by s, then by e,
    # built once per call
    units = {1: {}, -1: {}}

    # each coefficient object split once, as (e, s, r, coef): holding the
    # object keeps its id its own for the whole call
    coef_splits = {}

    def split(x):
        """(e, s, None) when x is the unit s q^e, else (0, 1, x)."""
        u = x.as_unit()
        return (0, 1, x) if u is None else (*u, None)

    def column(gen):
        """The generator's monomial columns by basis index: (target index,
        e, s, r) as ``split`` reads the scalar, or None where the
        generator kills the vector."""
        col = [None] * n
        for lab, entry in M.op(gen).cols.items():
            # one entry per column: every generator operator is monomial
            (tgt, scal), = entry.items()
            i = index.get(tgt)
            if i is None:
                i = index[tgt] = len(labels)
                labels.append(tgt)
            col[index[lab]] = (i, *split(scal))
        columns[gen] = col
        return col

    def check(desc, terms, fam):
        # each term's split coefficient and letter columns in the order the
        # letters act; a column list is never empty, so ``or`` falls
        # through only on a miss
        get = columns.get
        words = []
        for coef, seq in terms:
            sp = coef_splits.get(id(coef))
            if sp is None:
                sp = coef_splits[id(coef)] = (*split(coef), coef)
            words.append((*sp, [get(gen) or column(gen)
                                for gen in reversed(seq)]))
        for v in range(n):
            acc = {}
            # the word's (E, S, R) start from its coefficient's split
            for E, S, R, _, cols in words:
                i = v
                for col in cols:
                    if i >= n:
                        break               # a letter would act off the window
                    entry = col[i]
                    if entry is None:
                        break               # the letter kills the vector
                    i, e, s, r = entry
                    E += e
                    S *= s
                    if r is not None:
                        R = r if R is None else R * r
                else:
                    w = units[S].get(E)
                    if w is None:
                        w = M.q_power(E)
                        w = units[S][E] = w if S > 0 else -w
                    if R is not None:
                        w = w * R
                    if i in acc:
                        w = acc[i] + w
                    if not w:
                        acc.pop(i, None)
                    else:
                        acc[i] = w
                    continue
                if i >= n:
                    fam["skipped"] += 1
                    break
            else:
                fam["checked"] += 1
                if acc:
                    i, val = next(iter(acc.items()))
                    return {"relation": desc, "vector": list(labels[v]),
                            "entry": list(labels[i]), "value": repr(val)}
        return None

    # what the walk reads of a generator is its operator's columns
    rho = _label_rotation(M)

    def rotates(gen):
        return _intertwined(M.op(gen), M.op(_rotated(gen)), rho,
                            M.q_power(_degree(gen)))

    report = RelationReport()
    for family, fam in _first_witness_walk(M, r_bound, m_bound, check,
                                           rotates).items():
        report.add(family, fam["instances"], fam["checked"], fam["skipped"],
                   fam["witness"])
    return report


# ---------------------------------------------------------------------------
# l-characters
# ---------------------------------------------------------------------------

def _linear_factor_series(var, exp_a, power, order, module):
    """(1 - z q^exp_a)^power as a TruncSeries over the module scalars: by
    the binomial theorem its z^k coefficient is (-1)^k C(power, k)
    q^(exp_a k), with C the generalized binomial coefficient."""
    coeffs = {}
    c = 1                                   # (-1)^k C(power, k)
    for k in range(order + 1):
        if not c:
            break
        coeffs[k] = module.q_power(exp_a * k) * c
        c = c * (k - power) // (k + 1)
    return TruncSeries(var, coeffs, 0, order)


def expected_phi_series(module, part, sign, order):
    """Phi eigenvalue series predicted for the node part {l: n_l}, with
    r = 1 on every node of the cycle.

    sign +: q^delta prod (1 - z q^(l-1))^n / (1 - z q^(l+1))^n in z;
    sign -: q^-delta prod (1 - w q^(1-l))^n / (1 - w q^(-1-l))^n in the
    variable w = z^-1.
    """
    var = "z" if sign > 0 else "w"
    delta = sum(part.values())
    acc = TruncSeries(var, {0: module.q_power(sign * delta)}, 0, order)
    for l, n in part.items():
        acc = acc * _linear_factor_series(var, sign * (l - 1), n, order,
                                          module)
        acc = acc * _linear_factor_series(var, sign * (l + 1), -n, order,
                                          module)
    return acc


def display_monomial(label):
    """The advertised l-weight of basis vector v_{a,p}: the chain term
    Y[a mod 4, 4p+a-1] Y[a-1 mod 4, 4p+a]^-1."""
    a, p = label
    return (YMonomial.var(a % LETTERS, 4 * p + a - 1)
            * YMonomial.var((a - 1) % LETTERS, 4 * p + a, -1))


L_SERIES_ORDER = 3      # the phi-series order l-weights are checked to


def _series_match(M, label, m):
    """Whether the basis vector carries the l-weight monomial m: its phi
    series in both directions equal expected_phi_series of m, node by
    node, to order L_SERIES_ORDER."""
    return all(M.phi_series(g, sign, label, L_SERIES_ORDER)
               == expected_phi_series(M, m.node_part(g), sign,
                                      L_SERIES_ORDER)
               for g in M.nodes for sign in (1, -1))


def _read_l_weight(M, label):
    """The l-weight monomial of a loop basis vector, read at first order:
    its h_{g,1} eigenvalue is sum_l n_l q^l for the node-g part {l: n_l}."""
    parts = {}
    for g in M.nodes:
        for l, n in M.h_eigenvalue(g, 1, label).items():
            if n.denominator != 1:
                raise DomainError("non-integer multiplicity in h_{%d,1} on "
                                  "%r" % (g, label))
            parts[(g, l)] = int(n)
    return YMonomial(parts)


def l_character(M):
    """Read each basis vector's l-weight monomial from its phi series.

    Works over generic q, where the node-g part of a vector's l-weight is
    read from its h_{g,1} eigenvalue.  Each vector must then carry what
    was read: its phi series in both directions equal those predicted for
    the monomial (``_series_match``), else DomainError names the vector.
    Returns {"terms": {label: YMonomial}}.
    """
    if M.kind != "loop":
        raise DomainError("reading l-weights off h_{i,1} needs generic q; use "
                          "l_character_offset for cyclotomic modules")
    terms = {}
    for label in M.basis:
        m = terms[label] = _read_l_weight(M, label)
        if not _series_match(M, label, m):
            raise DomainError("phi series on %r differ from those of its "
                              "l-weight %s" % (label, mono_format(m)))
    return {"terms": terms}


def l_character_offset(M):
    """Global spectral shift c between the l-weights and the display.

    Every basis vector must carry display_monomial shifted by one constant
    c, by the phi-series rule of ``l_character``.  For generic q, c is
    read off the first basis vector's l-weight and a vector that does not
    carry its shifted display raises DomainError naming it; the terms are
    the shifted display monomials.  For cyclotomic quotients every
    candidate c (mod 4L) is tried.
    """
    if M.kind == "loop":
        first = M.basis[0]
        got, want = _read_l_weight(M, first), display_monomial(first)
        # keys sort by (node, spectral); an empty reading leaves c = 0,
        # which the check rejects on the first vector
        c = got.key[0][1] - want.key[0][1] if got.key else 0
        bad = _display_shift_mismatch(M, c)
        if bad is not None:
            raise DomainError("phi series on %r differ from those of its "
                              "display monomial shifted by %d" % (bad, c))
        return {"c": c, "terms": {
            str(label): mono_format(display_monomial(label).shift_spectral(c))
            for label in M.basis}}
    N = M.cyc_order
    matches = [c for c in range(-N // 2, N - N // 2)
               if _display_shift_mismatch(M, c) is None]
    if not matches:
        raise DomainError("no constant shift aligns the quotient with the "
                          "display")
    canon = min(matches, key=abs)
    return {"c": canon, "candidates": matches}


def _display_shift_mismatch(M, c):
    """The first basis vector that does not carry its display monomial
    shifted by c, or None when every vector does."""
    for label in M.basis:
        want = display_monomial(label).shift_spectral(c)
        if not _series_match(M, label, want):
            return label
    return None


# ---------------------------------------------------------------------------
# irreducibility of the small quotient
# ---------------------------------------------------------------------------

def rou_irreducible(M):
    """Brute-force irreducibility of a periodic quotient.

    Every k_g and phi+_{g,1} acts diagonally.  When their joint
    eigenvalues separate the basis vectors, every invariant subspace is
    spanned by basis vectors, and the module is irreducible exactly when
    each basis vector reaches every other through the ladder operators,
    found by one search per vector over the ladder operators' columns.
    Raises DomainError when two basis vectors share their eigenvalues,
    since a submodule then need not be spanned by basis vectors, and on a
    loop module, whose ladders leave the window.
    """
    if M.kind != "rou":
        raise DomainError("irreducibility is decided on periodic quotients")
    diagonal = [M.op((name, g, 1)) for name in ("k", "phip")
                for g in M.nodes]
    owner = {}
    for v in M.basis:
        # a generator that kills v reads None
        pat = tuple(op.entry(v, v) for op in diagonal)
        if pat in owner:
            raise DomainError("%r and %r share every k and phi+ eigenvalue"
                              % (owner[pat], v))
        owner[pat] = v
    ladders = [M.op((name, g, r)).cols for name in ("xp", "xm")
               for g in M.nodes for r in (-1, 0, 1)]
    for v in M.basis:
        reach, todo = {v}, [v]
        while todo:
            w = todo.pop()
            for cols in ladders:
                for lab in cols.get(w, ()):
                    if lab not in reach:
                        reach.add(lab)
                        todo.append(lab)
        if len(reach) < len(M.basis):
            return False
    return True


# ---------------------------------------------------------------------------
# rank-1 companion at a root of unity
# ---------------------------------------------------------------------------

class HeckeCompanion:
    """The dimension-L pair (X, Y) with XY = e^4 YX over the order-4L
    cyclotomic field, plus the Fourier-dual basis."""

    def __init__(self, L):
        if L < 1:
            raise InputError("L must be >= 1")
        self.L = L
        self.order = 4 * L
        one = CycScalar.one(self.order)
        eps4 = CycScalar.root_power(self.order, 4)
        self.basis = ["w%d" % i for i in range(1, L + 1)]
        self.X = LinOp({"w%d" % i: {"w%d" % i: eps4 ** i}
                        for i in range(1, L + 1)})
        self.Y = LinOp({"w%d" % i: {"w%d" % (i % L + 1): one}
                        for i in range(1, L + 1)})

    def eps_power(self, k):
        return CycScalar.root_power(self.order, k)

    def verify(self):
        """Exact checks: the exchange relation, both spectra, and the
        Fourier change of basis reproducing the dual action."""
        eps4 = self.eps_power(4)
        relation_ok = not (self.X * self.Y - (self.Y * self.X).scale(eps4))

        field = Field(CycScalar.zero(self.order), CycScalar.one(self.order))
        spectrum = [eps4 ** j for j in range(self.L)]
        xs_ok = all(self._is_eigenvalue(self.X, lam, field)
                    for lam in spectrum)
        ys_ok = all(self._is_eigenvalue(self.Y, lam, field)
                    for lam in spectrum)
        # annihilating products pin the spectra exactly
        ann_x = self._annihilates(self.X, spectrum, field)
        ann_y = self._annihilates(self.Y, spectrum, field)

        # w_i = sum_j eps^(4ij) m_j, so the m-basis is the Fourier dual of
        # the w-basis exactly when S is invertible and intertwines X, Y
        # with X m_j = m_{j-1} and Y m_j = eps^(4j) m_j
        w = self.basis
        S = LinOp({w[j]: {w[i]: self.eps_power(4 * (i + 1) * (j + 1))
                          for i in range(self.L)} for j in range(self.L)})
        Xm = LinOp({w[j]: {w[(j - 1) % self.L]: field.one}
                    for j in range(self.L)})
        Ym = LinOp({w[j]: {w[j]: self.eps_power(4 * (j + 1))}
                    for j in range(self.L)})
        dual_ok = (bool(determinant(op_matrix(S, w, field.zero), field))
                   and S * self.X == Xm * S and S * self.Y == Ym * S)

        return {"relation": relation_ok, "x_spectrum": xs_ok and ann_x,
                "y_spectrum": ys_ok and ann_y, "dual_basis": dual_ok,
                "passed": relation_ok and xs_ok and ys_ok and ann_x
                and ann_y and dual_ok}

    def _shifted(self, op, lam):
        """op - lam * 1."""
        return op - LinOp.identity(self.basis, lam)

    def _is_eigenvalue(self, op, lam, field):
        return not determinant(
            op_matrix(self._shifted(op, lam), self.basis, field.zero), field)

    def _annihilates(self, op, spectrum, field):
        acc = LinOp.identity(self.basis, field.one)
        for lam in spectrum:
            acc = acc * self._shifted(op, lam)
        return not acc


def hecke_companion(L):
    return HeckeCompanion(L)
