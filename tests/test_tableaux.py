import itertools
from collections import Counter

import pytest

from qtoroidal import tableaux

from qtoroidal.cartan import cyclic_a
from qtoroidal.errors import InputError
from qtoroidal.monomials import dominance_leq, mono_format, mono_parse
from qtoroidal.qchar import QCharacter
from qtoroidal.tableaux import (StabTableau, enumerate_tableaux,
                                tableau_char, tableau_monomial,
                                tableau_monomial_truncated,
                                tableau_qchar_compare)


def brute_force_tableaux(k, max_excess):
    """Independent enumeration over an explicit bounding box of deviations."""
    depth = max_excess  # no deviation can sit below row -max_excess
    rows = list(range(-depth, 1))
    cells = [(i, j) for i in rows for j in range(1, k + 1)]
    found = set()
    for values in itertools.product(range(0, max_excess + 1),
                                    repeat=len(cells)):
        dev = dict(zip(cells, values))
        excess = sum(values)
        if excess > max_excess:
            continue
        ok = True
        for (i, j) in cells:
            d = dev[(i, j)]
            below = dev.get((i - 1, j), 0)
            if d < below:            # columns: weakly increasing upward
                ok = False
                break
            if j < k and d > dev[(i, j + 1)]:   # rows: weakly increasing
                ok = False
                break
        if ok:
            found.add(StabTableau(k, {(i, j): i + d
                                      for (i, j), d in dev.items() if d}))
    return found


def test_k1_excess0_is_ground():
    ts = enumerate_tableaux(1, 0)
    assert len(ts) == 1 and ts[0].deviations == ()


def test_k1_excess2_explicit():
    ts = set(enumerate_tableaux(1, 2))
    want = {
        StabTableau(1, {}),
        StabTableau(1, {(0, 1): 1}),
        StabTableau(1, {(0, 1): 2}),
        StabTableau(1, {(-1, 1): 0, (0, 1): 1}),
    }
    assert ts == want


@pytest.mark.parametrize("k,e", [(1, 3), (2, 1), (2, 2), (3, 2)])
def test_enumeration_matches_brute_force(k, e):
    ts = enumerate_tableaux(k, e)
    assert len(ts) == len(set(ts))
    assert set(ts) == brute_force_tableaux(k, e)


def oracle_enumerate_tableaux(k, max_excess):
    """The bottom-up enumeration: rows from -max_excess up to 0, each row
    bounded entrywise below by the one under it, all-zero rows included.
    Kept as the oracle for ``enumerate_tableaux``."""
    results = []

    def row_vectors(prev, budget):
        out = []

        def go(pos, lower, left, cur):
            if pos == k:
                out.append(tuple(cur))
                return
            d = max(prev[pos], lower)
            while d <= left:
                go(pos + 1, d, left - d, cur + [d])
                d += 1

        go(0, 0, budget, [])
        return out

    def rec(row, prev, used, acc):
        if row > 0:
            results.append(StabTableau(
                k, {(i, j): i + d for (i, j, d) in acc}))
            return
        for vec in row_vectors(prev, max_excess - used):
            nacc = acc + [(row, j + 1, vec[j]) for j in range(k) if vec[j]]
            rec(row + 1, vec, used + sum(vec), nacc)

    rec(-max_excess, tuple([0] * k), 0, [])
    return results


def test_enumeration_matches_bottom_up_oracle():
    for k in (1, 2, 3):
        for e in range(7):
            ts = enumerate_tableaux(k, e)
            assert Counter(ts) == Counter(oracle_enumerate_tableaux(k, e)), \
                (k, e)
            assert ts[0] == StabTableau(k, {}), (k, e)


def test_enumeration_unique():
    ts = enumerate_tableaux(2, 3)
    assert len(set(ts)) == len(ts)


def test_ground_monomial_k1():
    T = StabTableau(1, {})
    assert tableau_monomial(T, 3, 0) == mono_parse("Y[0,1]")
    assert tableau_monomial(T, 3, -1) == mono_parse("Y[0,0]")


def test_single_deviation_monomial():
    T = StabTableau(1, {(0, 1): 1})
    assert tableau_monomial(T, 3, -1) == \
        mono_parse("Y[0,2]^-1 Y[1,1] Y[3,1]")


def test_double_deviation_monomial():
    T = StabTableau(1, {(-1, 1): 0, (0, 1): 1})
    assert tableau_monomial(T, 3, -1) == \
        mono_parse("Y[3,3]^-1 Y[2,2] Y[1,1]")


def test_shift_rotates_nodes():
    T = StabTableau(1, {})
    assert tableau_monomial(T, 3, -1, shift=1) == mono_parse("Y[1,0]")


def test_telescoping_certificate():
    # explicit truncation at -M equals the telescoped monomial times the
    # dangling column tails, once M clears the deviation depth
    n = 3
    for T in enumerate_tableaux(2, 3):
        depth = max((-i for (i, _), _ in T.deviations), default=0)
        for M in range(depth + 1, depth + 4):
            explicit = tableau_monomial_truncated(T, n, 0, M)
            tails = mono_parse("1")
            for j in range(1, T.width + 1):
                from qtoroidal.monomials import YMonomial
                tails = tails * YMonomial.var((-M - 1) % (n + 1),
                                              2 * j + M, -1)
            assert explicit == tableau_monomial(T, n, 0) * tails


def test_excess_equals_dominance_height():
    C = cyclic_a(4)
    for k in (1, 2):
        top = tableau_monomial(StabTableau(k, {}), 3, 0)
        for T in enumerate_tableaux(k, 4):
            m = tableau_monomial(T, 3, 0)
            fs = dominance_leq(C, m, top, 8)
            assert fs is not None and len(fs) == T.excess


def test_compare_k1_matches_figure_data():
    rep = tableau_qchar_compare(3, 1, 0, -1, 4)
    assert rep["holds"], rep["mismatches"]


def test_compare_k2_shifted():
    rep = tableau_qchar_compare(3, 2, 1, 0, 3)
    assert rep["holds"], rep["mismatches"]


def test_compare_depth0():
    rep = tableau_qchar_compare(3, 1, 0, 0, 0)
    assert rep["holds"] and rep["tableau_count"] == 1


def test_compare_deep_k2():
    # depth 8 exercises the family-deficit bookkeeping of the expansion
    # engine; the naive full-coefficient expansion over-generates here
    rep = tableau_qchar_compare(3, 2, 0, -1, 8)
    assert rep["holds"], rep["mismatches"]


def full_sort_mismatches(n, k, shift, l, depth):
    """The mismatch rows as read off every monomial of both sides sorted
    by (height, text).  Kept as the oracle for the report's list."""
    terms, excesses = tableau_char(n, k, shift, l, depth)
    kr = tableaux.kr_qchar(cyclic_a(n + 1), shift % (n + 1), k, l + 1,
                           depth)
    rows = []
    for m in sorted(set(terms) | set(kr.terms),
                    key=lambda x: (excesses.get(x, kr.heights.get(x)),
                                   mono_format(x))):
        if terms.get(m, 0) != kr.terms.get(m, 0):
            rows.append({"monomial": mono_format(m),
                         "tableaux": terms.get(m, 0),
                         "kr": kr.terms.get(m, 0)})
    return rows


def test_compare_mismatches_in_full_sort_order(monkeypatch):
    """A character that drops every third term, doubles every fifth and
    copies every seventh off the spectral lattice, where no tableau
    lands, gives the mismatch rows, in order, that sorting all terms
    gives."""
    real = tableaux.kr_qchar

    def corrupted(C, i, k, l, depth):
        ch = real(C, i, k, l, depth)
        terms = {}
        heights = {}
        for n, (m, c) in enumerate(ch.terms.items()):
            if n % 3 != 2:
                terms[m] = 2 * c if n % 5 == 4 else c
                heights[m] = ch.heights[m]
            if n % 7 == 6:
                terms[m.shift_spectral(1)] = c
                heights[m.shift_spectral(1)] = ch.heights[m]
        return QCharacter(C, ch.top, depth, terms, heights)

    monkeypatch.setattr(tableaux, "kr_qchar", corrupted)
    for args in [(3, 1, 0, -1, 4), (3, 2, 1, 0, 4), (4, 2, 3, 1, 3)]:
        rep = tableau_qchar_compare(*args)
        want = full_sort_mismatches(*args)
        # dropped, doubled and added terms all mismatch
        assert {row["kr"] == 0 for row in want} == {True, False}
        assert any(row["tableaux"] == 0 for row in want)
        assert rep["mismatches"] == want, args
        assert rep["first_mismatch"] == want[0]


def oracle_tableau_char(n, k, shift, l, depth):
    """The tableau sum built one tableau at a time: a ``StabTableau`` from
    ``enumerate_tableaux`` and its ``tableau_monomial``.  Kept as the
    oracle for ``tableau_char``."""
    terms = {}
    excesses = {}
    for T in enumerate_tableaux(k, depth):
        m = tableau_monomial(T, n, l, shift)
        terms[m] = terms.get(m, 0) + 1
        if m in excesses and excesses[m] != T.excess:
            raise InputError("tableaux of different excess share a "
                             "monomial; the excess bound is unsound here")
        excesses[m] = T.excess
    return terms, excesses


def items_with_keys(d):
    """The items of a monomial map in insertion order, each monomial by
    its stored key."""
    return [(m.key, v) for m, v in d.items()]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tableau_char_matches_oracle(n):
    """Terms and excesses equal the oracle's, keys, values and insertion
    order, for every k 1..3, node shift 0..n, base l -1..1 and depth
    0..8."""
    for k in (1, 2, 3):
        for shift in range(n + 1):
            for l in (-1, 0, 1):
                for depth in range(9):
                    got = tableau_char(n, k, shift, l, depth)
                    want = oracle_tableau_char(n, k, shift, l, depth)
                    assert ([items_with_keys(d) for d in got]
                            == [items_with_keys(d) for d in want]), \
                        (k, shift, l, depth)


def test_tableau_char_excess_clash(monkeypatch):
    """Box symbols that contribute nothing put every tableau on the
    ground monomial, so tableaux of different excess share it."""
    monkeypatch.setattr(tableaux, "_box_factors", lambda value, base, n: ())
    for fn in (tableau_char, oracle_tableau_char):
        with pytest.raises(InputError, match="tableaux of different excess "
                           "share a monomial"):
            fn(3, 1, 0, 0, 1)
        # one tableau alone cannot clash
        assert len(fn(3, 1, 0, 0, 0)[0]) == 1


@pytest.mark.parametrize("args, message", [
    ((3, 0, 0, 0, 2), "need k >= 1 and max_excess >= 0"),
    ((3, 1, 0, 0, -1), "need k >= 1 and max_excess >= 0"),
    ((1, 1, 0, 0, 2), "the cycle needs n >= 2"),
    # the k and depth check comes first
    ((1, 0, 0, 0, 2), "need k >= 1 and max_excess >= 0"),
    ((1, 1, 0, 0, -1), "need k >= 1 and max_excess >= 0"),
], ids=["k0", "negative-depth", "n1", "n1-k0", "n1-negative-depth"])
def test_tableau_char_input_errors(args, message):
    for fn in (tableau_char, oracle_tableau_char, tableau_qchar_compare):
        with pytest.raises(InputError) as exc:
            fn(*args)
        assert str(exc.value) == message


def test_shift_commutes_with_char():
    t0, _ = tableau_char(3, 1, 0, 0, 3)
    t1, _ = tableau_char(3, 1, 1, 0, 3)
    assert {m.shift_nodes(1, 4): c for m, c in t0.items()} == t1


def test_bad_inputs():
    with pytest.raises(InputError):
        enumerate_tableaux(0, 1)
    with pytest.raises(InputError):
        tableau_monomial(StabTableau(1, {}), 1, 0)
