"""Stabilized-tableau character formula for the type-A cycle.

A tableau has k columns and rows indexed by nonpositive integers; rows
weakly increase, columns strictly increase, and far below everything
stabilizes to T[i][j] = i.  Only deviating boxes are stored.  The infinite
ground product of each column telescopes to a single variable, so the
monomial of a tableau is the telescoped ground part times finitely many
box ratios; that collapse is a tested invariant, not an assumption.

The tableau sum carries each tableau's monomial through the enumeration
as one packed int: the ground part packed once, plus one packed ratio per
deviating box, each ratio packed once per call.
"""

from __future__ import annotations

from .cartan import cyclic_a
from .errors import InputError
from .monomials import YMonomial, mono_format
from .qchar import _Packing, kr_qchar


class StabTableau:
    """Width-k stabilized tableau, stored through its deviating boxes."""

    __slots__ = ("width", "deviations")

    def __init__(self, width, deviations):
        self.width = width
        self.deviations = tuple(sorted(
            ((int(i), int(j)), int(v)) for (i, j), v in dict(deviations).items()
            if v != i))

    @property
    def excess(self):
        return sum(v - i for (i, _), v in self.deviations)

    def entry(self, i, j):
        for (ii, jj), v in self.deviations:
            if (ii, jj) == (i, j):
                return v
        return i

    def __eq__(self, other):
        if not isinstance(other, StabTableau):
            return NotImplemented
        return (self.width, self.deviations) == (other.width,
                                                 other.deviations)

    def __hash__(self):
        return hash((self.width, self.deviations))

    def __repr__(self):
        return "StabTableau(k=%d, %r)" % (self.width, list(self.deviations))


def enumerate_tableaux(k, max_excess):
    """All width-k tableaux with excess at most max_excess, each once,
    the ground tableau first."""
    _check_shape(k, max_excess)
    results = []

    def place(acc, row, vec):
        return acc + [(row, j + 1, d) for j, d in enumerate(vec) if d]

    def visit(acc):
        results.append(StabTableau(k, {(i, j): i + d for (i, j, d) in acc}))

    _walk(k, max_excess, [], place, visit)
    return results


def _check_shape(k, max_excess):
    if k < 1 or max_excess < 0:
        raise InputError("need k >= 1 and max_excess >= 0")


def _walk(k, max_excess, start, place, visit):
    """Visit every width-k tableau with excess at most max_excess once,
    threading a caller's state: ``visit(state)`` is called once per
    tableau, and ``place(state, row, vec)`` returns the state with row
    ``row`` set to the deviations ``vec``.

    Works on the deviation profile d[i][j] = T[i][j] - i, which is
    nonnegative, weakly increasing along rows and weakly increasing up
    each column.  Rows are chosen from row 0 down, each bounded entrywise
    by the row above and by the excess left, so the first zero row ends a
    tableau: every tableau is found once, as the rows above its first
    zero row, visited before the tableaux that extend it.
    """
    memo = {}

    def row_vectors(above, budget):
        # nonzero weakly increasing v with v[j] <= above[j], sum(v) <= budget
        out = memo.get((above, budget))
        if out is not None:
            return out
        out = []

        def go(pos, lower, left, cur):
            if pos == k:
                out.append(cur)
                return
            # the k - pos entries still to place are each at least d
            for d in range(lower, min(above[pos], left // (k - pos)) + 1):
                go(pos + 1, d, left - d, cur + (d,))

        go(0, 0, budget, ())
        out = memo[above, budget] = out[1:]     # the first is the zero row
        return out

    def rec(row, above, left, state):
        visit(state)
        for vec in row_vectors(above, left):
            rec(row - 1, vec, left - sum(vec), place(state, row, vec))

    rec(0, (max_excess,) * k, max_excess, start)


def _box_factors(value, base, n):
    """Exponent contributions of one box symbol at spectral base q^base."""
    mod = n + 1
    return (((value % mod, base + value - 1), 1),
            (((value - 1) % mod, base + value), -1))


def _bump(acc, key, e):
    """Add e to the exponent at key, dropping it when it cancels."""
    v = acc.get(key, 0) + e
    if v:
        acc[key] = v
    else:
        del acc[key]


def tableau_monomial(T, n, l, shift=0):
    """Monomial of a tableau over the (n+1)-node cycle with base q^l.

    Ground columns telescope to Y[0, l+2j-1]; each deviating box then
    multiplies by the ratio of its box symbol to the ground symbol at the
    same position.  The node rotation by ``shift`` is applied last.
    """
    if n < 2:
        raise InputError("the cycle needs n >= 2")
    mod = n + 1
    acc = {}
    for j in range(1, T.width + 1):
        _bump(acc, (0, l + 2 * j - 1), 1)
    for (i, j), v in T.deviations:
        base = l + 2 * (j - i)
        for key, e in _box_factors(v, base, n):
            _bump(acc, key, e)
        for key, e in _box_factors(i, base, n):
            _bump(acc, key, -e)
    m = YMonomial(acc)
    if shift:
        m = m.shift_nodes(shift, mod)
    return m


def tableau_monomial_truncated(T, n, l, M, shift=0):
    """Explicit product of the box symbols over rows -M..0 only.

    Used to certify the telescoping: once M exceeds the deviation depth
    this equals tableau_monomial(T) times the dangling inverse factors
    Y[(-M-1) mod (n+1), l+2j+M+1]^-1 per column j.
    """
    mod = n + 1
    acc = {}
    for j in range(1, T.width + 1):
        for i in range(-M, 1):
            v = T.entry(i, j)
            base = l + 2 * (j - i)
            for key, e in _box_factors(v, base, n):
                _bump(acc, key, e)
    m = YMonomial(acc)
    if shift:
        m = m.shift_nodes(shift, mod)
    return m


def tableau_char(n, k, shift, l, depth):
    """Multiset of tableau monomials with excess at most ``depth``.

    Returns (terms, excesses): coefficient = number of tableaux landing on
    the monomial, and the common excess of those tableaux.  Monomials are
    summed as packed ints (``qchar._Packing``), the node rotation by
    ``shift`` folded into the fields: the ground columns are packed once,
    and each box ratio, keyed by (row, column, value), once per call.
    The ground part has |exponents| at most k, each deviating box moves
    one by at most 2, and a tableau of excess <= depth has at most depth
    deviating boxes, so no field of reach k + 2·depth can wrap.  Each
    distinct monomial is decoded once, in first-seen order.
    """
    _check_shape(k, depth)
    if n < 2:
        raise InputError("the cycle needs n >= 2")
    mod = n + 1
    packing = _Packing(k + 2 * depth)

    def pack(factors):
        acc = {}
        for key, e in factors:
            _bump(acc, key, e)
        return packing.pack(tuple(((i + shift) % mod, sl, e)
                                  for (i, sl), e in acc.items()))

    ground = pack(((0, l + 2 * j - 1), 1) for j in range(1, k + 1))
    ratios = {}             # (row, column, value) -> packed box ratio

    def place(state, row, vec):
        g, excess = state
        for j, d in enumerate(vec, 1):
            if d:
                r = ratios.get((row, j, row + d))
                if r is None:
                    base = l + 2 * (j - row)
                    r = ratios[row, j, row + d] = pack(
                        _box_factors(row + d, base, n)
                        + tuple((key, -e) for key, e
                                in _box_factors(row, base, n)))
                g += r
        return g, excess + sum(vec)

    counts = {}
    excesses = {}

    def visit(state):
        g, excess = state
        counts[g] = counts.get(g, 0) + 1
        if excesses.setdefault(g, excess) != excess:
            raise InputError("tableaux of different excess share a "
                             "monomial; the excess bound is unsound here")

    _walk(k, depth, (ground, 0), place, visit)
    monos = {g: packing.decode(g) for g in counts}
    return ({monos[g]: c for g, c in counts.items()},
            {monos[g]: e for g, e in excesses.items()})


def tableau_qchar_compare(n, k, shift, l, depth):
    """Cross-check the tableau sum against the expansion-engine character.

    The tableau side with base q^l describes the node-``shift`` string
    module at spectral exponent l+1.  Exact multiset agreement at heights
    (= excesses) up to ``depth`` is required; the report carries the first
    mismatch witnesses if any.
    """
    C = cyclic_a(n + 1)
    terms, excesses = tableau_char(n, k, shift, l, depth)
    kr = kr_qchar(C, shift % (n + 1), k, l + 1, depth)
    kr_terms = kr.terms
    mism = [(excesses.get(m, kr.heights.get(m)), mono_format(m),
             terms.get(m, 0), kr_terms.get(m, 0))
            for m in set(terms) | set(kr_terms)
            if terms.get(m, 0) != kr_terms.get(m, 0)]
    mismatches = [{"monomial": text, "tableaux": ta, "kr": kc}
                  for _, text, ta, kc in sorted(mism)]
    holds = not mismatches
    report = {"holds": holds, "n": n, "k": k, "shift": shift,
              "spectral": l, "depth": depth,
              "tableau_count": sum(terms.values()),
              "mismatches": mismatches}
    if not holds:
        report["first_mismatch"] = mismatches[0]
    return report
