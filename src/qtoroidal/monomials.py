"""The l-weight monomial lattice: Y-monomials, A-monomials, dominance.

Spectral parameters are integer exponents of q over a single formal base
point, so a variable is addressed by the pair (node, spectral exponent).
"""

from __future__ import annotations

import re

from .cartan import WeightVector
from .errors import DomainError, ParseError

_FACTOR_RE = re.compile(
    r"\s*Y\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\s*(?:\^\s*(-?\d+))?")


class YMonomial:
    """Finitely supported exponent map on (node, spectral) pairs.

    Immutable; the canonical key is a tuple of (node, spectral, exponent)
    triples sorted by (node, spectral) with no zero exponents.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, exponents=None):
        if isinstance(exponents, tuple):
            key = exponents
        elif exponents:
            items = sorted((int(i), int(l), int(e))
                           for (i, l), e in exponents.items() if e)
            key = tuple(items)
        else:
            key = ()
        self.key = key
        self._hash = hash(key)

    @classmethod
    def _from_key(cls, key):
        m = cls.__new__(cls)
        m.key = key
        m._hash = hash(key)
        return m

    @classmethod
    def one(cls):
        return cls._from_key(())

    @classmethod
    def var(cls, i, l, e=1):
        if e == 0:
            return cls.one()
        return cls._from_key(((i, l, e),))

    # -- structure ------------------------------------------------------

    def exponents(self):
        return {(i, l): e for (i, l, e) in self.key}

    def is_identity(self):
        return not self.key

    def is_dominant(self):
        return all(e > 0 for (_, _, e) in self.key)

    def node_part(self, i):
        """Spectral exponent -> power, restricted to node i."""
        return {l: e for (ni, l, e) in self.key if ni == i}

    def weight(self):
        """Pairing coordinates: lambda_j is the node-j exponent sum."""
        coords = {}
        for (i, _, e) in self.key:
            coords[i] = coords.get(i, 0) + e
        return WeightVector(coords)

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, YMonomial):
            return NotImplemented
        return self.mul_power(other, 1)

    def mul_power(self, other, c):
        """self * other^c."""
        acc = self.exponents()
        for (i, l, e) in other.key:
            acc[i, l] = acc.get((i, l), 0) + c * e
        return YMonomial(acc)

    def inverse(self):
        return self ** -1

    def __pow__(self, c):
        if not c:
            return YMonomial.one()
        return YMonomial._from_key(tuple((i, l, c * e)
                                         for (i, l, e) in self.key))

    def shift_nodes(self, steps, modulus):
        key = sorted(((i + steps) % modulus, l, e) for (i, l, e) in self.key)
        return YMonomial._from_key(tuple(key))

    def shift_spectral(self, d):
        return YMonomial._from_key(tuple((i, l + d, e)
                                         for (i, l, e) in self.key))

    def reduce_spectral_mod(self, n):
        acc = {}
        for (i, l, e) in self.key:
            k = (i, l % n)
            acc[k] = acc.get(k, 0) + e
        return YMonomial(acc)

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, YMonomial):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "YMonomial(%s)" % mono_format(self)


def mono_format(m):
    """Canonical text, factors sorted by (node, spectral): Y[i,l]^e."""
    if m.is_identity():
        return "1"
    parts = []
    for (i, l, e) in m.key:
        if e == 1:
            parts.append("Y[%d,%d]" % (i, l))
        else:
            parts.append("Y[%d,%d]^%d" % (i, l, e))
    return " ".join(parts)


def mono_parse(text):
    """Parse the Y[i,l]^e factor grammar; inverse of mono_format."""
    s = text.strip()
    if s == "1" or s == "":
        return YMonomial.one()
    pos = 0
    acc = {}
    while pos < len(s):
        mm = _FACTOR_RE.match(s, pos)
        if mm is None:
            raise ParseError("expected a Y[i,l]^e factor", pos)
        i, l = int(mm.group(1)), int(mm.group(2))
        e = int(mm.group(3)) if mm.group(3) is not None else 1
        if e == 0:
            raise ParseError("zero exponent is not allowed", pos)
        acc[(i, l)] = acc.get((i, l), 0) + e
        pos = mm.end()
    tail = s[pos:].strip()
    if tail:
        raise ParseError("trailing garbage %r" % tail, pos)
    return YMonomial(acc)


def mono_to_json(m):
    return {"factors": [{"node": i, "l": l, "e": e} for (i, l, e) in m.key]}


def mono_from_json(obj):
    acc = {}
    for f in obj["factors"]:
        acc[(f["node"], f["l"])] = acc.get((f["node"], f["l"]), 0) + f["e"]
    return YMonomial(acc)


def a_monomial(C, i, l):
    """The monomial A_{i,q^l}: the q-analogue of the simple root alpha_i.

    A_{i,a} = Y_{i,a q_i^-1} Y_{i,a q_i} times, for each neighbor j, the
    inverses Y_{j,a q^k}^-1 with k running over C_ji+1, C_ji+3, ..., -C_ji-1.
    """
    r_i = C.r(i)
    acc = {(i, l - r_i): 1}
    acc[(i, l + r_i)] = acc.get((i, l + r_i), 0) + 1
    for j in C.neighbors(i):
        cji = C.C(j, i)
        for k in range(cji + 1, -cji, 2):
            key = (j, l + k)
            acc[key] = acc.get(key, 0) - 1
    return YMonomial(acc)


def dominance_leq(C, m, mtop, depth_cap):
    """Factor mtop / m as a product of A-monomials, if possible.

    Returns the multiset of (i, l) indices with
    m = mtop * prod A_{i,q^l}^-1 using at most depth_cap factors, or None.
    The solve peels the highest spectral layer greedily, which is exact
    because every A_{i,q^l} has its unique top-spectral entry at
    (i, l + r_i) with a positive sign.
    """
    if depth_cap < 0:
        raise DomainError("depth_cap must be >= 0")
    diff = mtop.mul_power(m, -1).exponents()
    factors = []
    budget = depth_cap
    # each pass returns or spends at least 1 of the budget, so the loop
    # ends within depth_cap + 1 passes
    while diff:
        top_l = max(l for (_, l) in diff)
        layer = [(j, l) for (j, l) in diff if l == top_l]
        for key in layer:
            if diff[key] < 0:
                return None
        for (i, l) in layer:
            c = diff.get((i, l), 0)
            if c <= 0:
                continue
            budget -= c
            if budget < 0:
                return None
            a_l = l - C.r(i)
            factors.extend([(i, a_l)] * c)
            for key, e in a_monomial(C, i, a_l).exponents().items():
                nv = diff.get(key, 0) - c * e
                if nv:
                    diff[key] = nv
                else:
                    diff.pop(key, None)
    factors.sort()
    return factors


def dominance_height(C, m, mtop, depth_cap):
    """Number of A-inverse steps from mtop down to m, or None."""
    fs = dominance_leq(C, m, mtop, depth_cap)
    return None if fs is None else len(fs)


def drinfeld_fraction(m):
    """Per-node root data (Q_i, R_i) of the l-weight of m.

    Positive exponents of Y_{i,.} populate the Q_i root multiset, negative
    exponents the R_i multiset; both polynomials have constant term one by
    construction.  Returns {node: (sorted Q exponents, sorted R exponents)}.
    """
    out = {}
    for (i, l, e) in m.key:
        q, r = out.setdefault(i, ([], []))
        if e > 0:
            q.extend([l] * e)
        else:
            r.extend([l] * (-e))
    return {i: (sorted(q), sorted(r)) for i, (q, r) in out.items()}


def from_drinfeld_fraction(data):
    """Inverse of drinfeld_fraction."""
    acc = {}
    for i, (q, r) in data.items():
        for l in q:
            acc[(i, l)] = acc.get((i, l), 0) + 1
        for l in r:
            acc[(i, l)] = acc.get((i, l), 0) - 1
    return YMonomial(acc)
