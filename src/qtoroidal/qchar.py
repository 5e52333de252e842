"""Truncated q-characters.

The expansion algorithm starts from a dominant monomial and repeatedly
expands every node-dominant monomial through its rank-1 string
decomposition, assigning each generated monomial the maximum multiplicity
demanded across nodes.  Characters carry a truncation depth certificate:
every stored term lies within ``depth`` A-inverse steps of the top.
"""

from __future__ import annotations

import itertools

from .cartan import WeightVector, quantized_cartan_condition
from .errors import AlgorithmFailure, DomainError, InputError
from .monomials import (YMonomial, a_monomial, dominance_leq, kmerge,
                        kmerge_scaled, mono_format, mono_parse)


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

    def height(self, m):
        return self.heights[m]

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


def trivial_character(cartan, depth=0):
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


def _string_flip_factors(C, i, lo, length, t):
    """A-monomial indices for t flips applied to the string starting at lo."""
    r = C.r(i)
    top = lo + 2 * r * (length - 1)
    return [(i, top + r - 2 * r * j) for j in range(t)]


def fm_expand(C, mtop, depth, order_rng=None):
    """Truncated character expansion from a dominant top monomial.

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

    heights = {mtop: 0}
    demands = {}            # monomial -> {node: copies generated via node}
    layers = {0: [mtop]}
    coeffs = {}
    a_keys = {}             # (node, spectral) -> key of that A-monomial

    for h in range(0, depth + 1):
        layer = layers.pop(h, [])
        layer.sort(key=lambda m: m.key)
        if order_rng is not None:
            order_rng.shuffle(layer)
        for m in layer:
            if m == mtop:
                c_m = 1
            else:
                c_m = max(demands[m].values())
            coeffs[m] = c_m
            for i in m.nodes():
                covered = demands.get(m, {}).get(i, 0)
                if covered > c_m:
                    raise AlgorithmFailure(
                        "node-%s expansions over-demand %s: %d > %d"
                        % (i, mono_format(m), covered, c_m))
                # copies already generated through node i sit inside known
                # rank-1 families; only the excess heads new ones
                excess = c_m - covered
                if excess == 0:
                    continue
                part = m.node_part(i)
                if any(e < 0 for e in part.values()):
                    raise AlgorithmFailure(
                        "monomial %s must head %d new node-%s families "
                        "but is not dominant there"
                        % (mono_format(m), excess, i))
                strings = _string_decomposition(part, C.r(i))
                ranges = [range(s + 1) for (_, s) in strings]
                for combo in itertools.product(*ranges):
                    v = sum(combo)
                    if v == 0 or h + v > depth:
                        continue
                    g = m.key
                    for (lo, s), t in zip(strings, combo):
                        for il in _string_flip_factors(C, i, lo, s, t):
                            a_key = a_keys.get(il)
                            if a_key is None:
                                a_key = a_keys[il] = a_monomial(C, *il).key
                            g = kmerge_scaled(g, a_key, -1)
                    g = YMonomial._from_key(g)
                    gh = h + v
                    known = heights.get(g)
                    if known is None:
                        heights[g] = gh
                        layers.setdefault(gh, []).append(g)
                        demands[g] = {}
                    elif known != gh:
                        raise AlgorithmFailure(
                            "inconsistent heights %d vs %d for %s"
                            % (known, gh, mono_format(g)))
                    demands[g][i] = demands[g].get(i, 0) + excess

    return QCharacter(C, mtop, depth, coeffs, heights)


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
    if k == 0:
        return trivial_character(C, depth)
    return fm_expand(C, kr_top_monomial(C, i, k, l), depth)


def s_term(C, i, k, l):
    """Correction-term data of the three-term recurrence at (i, k, q^l).

    Returns {"factors": [(node j, K(j,l'), spectral exponent)],
             "nu": WeightVector}, where the factor list describes the
    product of string modules and nu the accompanying one-dimensional
    weight twist.
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
            kk = -c_ji + _floor_div(C.r(i) * (k - lp), C.r(j))
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


def _floor_div(a, b):
    return a // b       # Python floor division is the integral part here


# ---------------------------------------------------------------------------
# truncated products and identities
# ---------------------------------------------------------------------------

def _height_buckets(ch):
    """The terms of ``ch`` grouped by height: a list of
    (height, [(key, coeff), ...]) in rising height."""
    buckets = {}
    heights = ch.heights
    for m, c in ch.terms.items():
        buckets.setdefault(heights[m], []).append((m.key, c))
    return sorted(buckets.items())


def char_product(chars, depth, offset=0):
    """Term map of a product of characters, keeping relative heights
    (offset + sum of factor heights) at most ``depth``.

    Soundness rests on heights being additive under products.  Returns
    {monomial: (coeff, height)} with absolute heights.  Each factor's
    terms are bucketed by height once, so a partial product only meets
    the buckets that still fit the depth budget.
    """
    budget = depth - offset
    acc = {(): (1, 0)}
    for ch in chars:
        buckets = _height_buckets(ch)
        nxt = {}
        for k1, (c1, h1) in acc.items():
            room = budget - h1
            for h2, bucket in buckets:
                if h2 > room:
                    break
                h = h1 + h2
                for k2, c2 in bucket:
                    g = kmerge(k1, k2)
                    prev = nxt.get(g)
                    if prev is None:
                        nxt[g] = (c1 * c2, h)
                    elif prev[1] != h:
                        raise AlgorithmFailure(
                            "height clash in truncated product")
                    else:
                        nxt[g] = (prev[0] + c1 * c2, h)
        acc = nxt
    return {YMonomial._from_key(k): (c, offset + h)
            for k, (c, h) in acc.items()}


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


def verify_tsystem(C, i, k, l, depth):
    """Exact truncated check of the three-term recurrence at (i, k, q^l).

    Both sides are recomputed through the expansion engine and compared on
    every monomial of height at most ``depth`` relative to the shared top.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    two_ri = 2 * C.r(i)
    w_k_a = kr_qchar(C, i, k, l, depth)
    w_k_aq2 = kr_qchar(C, i, k, l + two_ri, depth)
    w_kp = kr_qchar(C, i, k + 1, l, depth)
    w_km = kr_qchar(C, i, k - 1, l + two_ri, depth)

    m0 = w_k_a.top * w_k_aq2.top
    if w_kp.top * w_km.top != m0:
        raise AlgorithmFailure("product tops disagree")

    st = s_term(C, i, k, l)
    s_chars = [kr_qchar(C, j, kk, ll, depth)
               for (j, kk, ll) in st["factors"] if kk > 0]
    s_top = YMonomial.one()
    for ch in s_chars:
        s_top = s_top * ch.top
    s_fact = dominance_leq(C, s_top, m0, depth + 64)
    if s_fact is None:
        raise AlgorithmFailure("correction term does not sit below the "
                               "product top")
    s_offset = len(s_fact)

    lhs = char_product([w_k_a, w_k_aq2], depth)
    rhs = char_product([w_kp, w_km], depth)
    if s_offset <= depth:
        rhs = _add_term_maps(rhs,
                             char_product(s_chars, depth, offset=s_offset))
    mism = _diff_term_maps(lhs, rhs)
    return {
        "holds": not mism,
        "depth": depth,
        "s_offset": s_offset,
        "nu": st["nu"],
        "mismatches": sorted((mono_format(m), ca, cb)
                             for m, (ca, cb) in mism.items()),
    }


# ---------------------------------------------------------------------------
# node rotation, specialness
# ---------------------------------------------------------------------------

def _cycle_length(C):
    n = C.cycle_len
    if n is None:
        raise DomainError("node rotation needs a cyclic type-A matrix")
    return n


def r_shift(x, steps, cartan=None):
    """Rotate node indices of a monomial or character around the cycle."""
    if isinstance(x, YMonomial):
        if cartan is None:
            raise InputError("rotating a bare monomial needs the matrix")
        return x.shift_nodes(steps, _cycle_length(cartan))
    n = _cycle_length(x.cartan)
    terms = {m.shift_nodes(steps, n): c for m, c in x.terms.items()}
    heights = {m.shift_nodes(steps, n): h for m, h in x.heights.items()}
    return QCharacter(x.cartan, x.top.shift_nodes(steps, n), x.depth,
                      terms, heights)


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
    cache = {}

    def T(i, k, t):
        if (i, k, t) not in cache:
            cache[(i, k, t)] = kr_qchar(C, i, k, t + 1 - k, depth)
        return cache[(i, k, t)]

    cells = []
    ok = True
    for i in i_range:
        for k in k_range:
            for t in t_range:
                lhs_f = [T(i, k, t - 1), T(i, k, t + 1)]
                rhs1_f = [T(i + 1, k, t), T(i - 1, k, t)]
                rhs2_f = [T(i, k + 1, t), T(i, k - 1, t)]
                m0 = lhs_f[0].top * lhs_f[1].top
                if rhs2_f[0].top * rhs2_f[1].top != m0:
                    raise AlgorithmFailure("octahedron tops disagree")
                r1_top = rhs1_f[0].top * rhs1_f[1].top
                fs = dominance_leq(C, r1_top, m0, depth + 64)
                if fs is None:
                    raise AlgorithmFailure("octahedron correction top is "
                                           "not below the cell top")
                off = len(fs)
                lhs = char_product(lhs_f, depth)
                rhs = char_product(rhs2_f, depth)
                if off <= depth:
                    rhs = _add_term_maps(
                        rhs, char_product(rhs1_f, depth, offset=off))
                mism = _diff_term_maps(lhs, rhs)
                cells.append({"cell": (i, k, t), "holds": not mism,
                              "mismatches": sorted(
                                  (mono_format(m), ca, cb)
                                  for m, (ca, cb) in mism.items())})
                ok = ok and not mism
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


def char_from_json(obj, cartan=None):
    terms = {}
    heights = {}
    for t in obj["terms"]:
        m = mono_parse(t["monomial"])
        terms[m] = t["coeff"]
        heights[m] = t["height"]
    return QCharacter(cartan, mono_parse(obj["top"]), obj["depth"],
                      terms, heights)


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
    by_height = {}
    for m in order:
        by_height.setdefault(char.heights[m], []).append(m)
    a_keys = {}             # (node, spectral) -> key of that A-monomial
    for m in order:
        for g in by_height.get(char.heights[m] + 1, ()):
            d = kmerge_scaled(m.key, g.key, -1)    # should be one A-monomial
            if not d:
                continue
            cand = max(((i, l) for (i, l, e) in d if e > 0),
                       key=lambda t: t[1], default=None)
            if cand is None:
                continue
            i, lm = cand
            il = (i, lm - C.r(i))
            a_key = a_keys.get(il)
            if a_key is None:
                a_key = a_keys[il] = a_monomial(C, *il).key
            if d == a_key:
                lines.append('  %s -> %s [label="%s"];'
                             % (ids[m], ids[g], i))
    lines.append("}")
    return "\n".join(lines) + "\n"
