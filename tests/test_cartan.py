import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from qtoroidal.cartan import (WeightVector, _leading_minors,
                              _minimal_symmetrizer, b_np, build_cartan,
                              cartan_preset, cyclic_a, infinite_a,
                              minimal_affinization_check, node_geometry,
                              node_geometry_at, quantized_cartan_condition)
from qtoroidal.errors import ConstructionError, DomainError, InputError
from qtoroidal.scalars import QScalar
from oracles import finite_type_a, finite_type_d4


def test_five_node_cycle_is_affine_all_r_one():
    C = cyclic_a(5)
    assert C.type_tag == "Affine"
    assert all(C.r(i) == 1 for i in C.nodes)


def test_rank_one_is_finite():
    C = build_cartan([[2]])
    assert C.type_tag == "Finite"
    assert C.r(0) == 1


def test_b23_symmetrizer_against_linear_oracle():
    C = b_np(2, 3)
    # oracle: brute-force the smallest positive integer solution of
    # r_i C_ij = r_j C_ji
    best = None
    for r1 in range(1, 10):
        for r2 in range(1, 10):
            if all(ra * C.C(a, b) == rb * C.C(b, a)
                   for ra, a in ((r1, 1), (r2, 2))
                   for rb, b in ((r1, 1), (r2, 2))):
                if best is None or r1 + r2 < sum(best):
                    best = (r1, r2)
    assert (C.r(1), C.r(2)) == best == (3, 1)


def test_symmetrized_matrix_is_symmetric():
    for C in (cyclic_a(4), b_np(3, 2), b_np(2, 3), finite_type_d4()):
        for i in C.nodes:
            for j in C.nodes:
                assert C.r(i) * C.C(i, j) == C.r(j) * C.C(j, i)


def test_symmetrizer_gcd_is_one():
    for C in (cyclic_a(4), b_np(2, 3), b_np(4, 2), cartan_preset("A1tor")):
        g = 0
        for i in C.nodes:
            g = math.gcd(g, C.r(i))
        # A1tor overrides minimality by convention
        assert g == 1 or C.name == "A1tor"


def test_axiom_violations_rejected():
    with pytest.raises(ConstructionError):
        build_cartan([[2, 1], [-1, 2]])
    with pytest.raises(ConstructionError):
        build_cartan([[1, -1], [-1, 2]])
    with pytest.raises(ConstructionError):
        build_cartan([[2, 0], [-1, 2]])


def test_non_symmetrizable_rejected():
    # a 3-cycle with asymmetric weights cannot be symmetrized
    with pytest.raises(ConstructionError):
        build_cartan([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]])


def test_quantized_condition_a3tor():
    assert quantized_cartan_condition(cartan_preset("A3tor"))


def test_quantized_condition_a1tor_needs_convention():
    assert quantized_cartan_condition(cartan_preset("A1tor"))
    plain = build_cartan([[2, -2], [-2, 2]])
    assert not quantized_cartan_condition(plain)


def test_quantized_condition_direct_substitution():
    # C_12 = -3, C_21 = -1 forces r = (1, 3); the pair (1,2) requires
    # -C_21 = 1 <= r_1 = 1, so the condition holds
    C = build_cartan([[2, -3], [-1, 2]])
    assert (C.r(0), C.r(1)) == (1, 3)
    assert quantized_cartan_condition(C)
    # swapped: C_12 = -1, C_21 = -3 gives r = (3, 1) and the pair (2,1)
    # requires -C_12 = 1 <= r_2 = 1: also fine; build one that fails
    bad = build_cartan([[2, -4], [-2, 2]])
    assert (bad.r(0), bad.r(1)) == (1, 2)
    assert not quantized_cartan_condition(bad)


def test_node_geometry_a3_cycle():
    geo = node_geometry(cartan_preset("A3tor"))
    for rec in geo.values():
        assert not rec.extremal and not rec.special
        assert rec.d == math.inf
        assert rec.small_bound(2) and not rec.small_bound(3)


def test_node_geometry_a5_path():
    geo = node_geometry(finite_type_a(5))
    assert geo[1].extremal and not geo[1].special
    assert geo[1].d == math.inf
    for k in (1, 2, 5, 17):
        assert geo[1].small_bound(k)
    assert not geo[3].extremal


def test_node_geometry_d4():
    geo = node_geometry(finite_type_d4())
    assert geo[2].special and not geo[2].extremal
    for leaf in (1, 3, 4):
        assert geo[leaf].extremal
        assert geo[leaf].d == 2
        assert geo[leaf].small_bound(3)
        assert not geo[leaf].small_bound(4)


def test_node_geometry_infinite_line():
    rec = node_geometry_at(infinite_a(), 7)
    assert not rec.extremal and not rec.special and rec.d == math.inf
    assert rec.small_bound(2) and not rec.small_bound(3)


def test_node_geometry_rejects_an_unknown_node():
    C = cartan_preset("A3tor")
    for call in (lambda: node_geometry(C, [9]),
                 lambda: node_geometry_at(C, 9)):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == "node 9 is not one of the nodes 0, 1, 2, 3"
    assert node_geometry(infinite_a(), [-9, 9])[9].d == math.inf


def test_node_geometry_relabel_invariance():
    rng = random.Random(7)
    base = finite_type_d4()
    labels = [1, 2, 3, 4]
    for _ in range(10):
        perm = labels[:]
        rng.shuffle(perm)
        relabel = dict(zip(labels, perm))
        rows = [[base.C(a, b) for b in labels] for a in labels]
        permuted = build_cartan(rows, [relabel[a] for a in labels])
        geo0 = node_geometry(base)
        geo1 = node_geometry(permuted)
        for a in labels:
            r0, r1 = geo0[a], geo1[relabel[a]]
            assert (r0.extremal, r0.special, r0.d) == \
                   (r1.extremal, r1.special, r1.d)


def test_infinite_window_matches_tridiagonal():
    C = infinite_a()
    for i in range(-5, 6):
        for j in range(-5, 6):
            want = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            assert C.C(i, j) == want
            assert C.r(i) == 1


def test_preset_bnp():
    C = cartan_preset("Bnp:2,3")
    assert C.C(2, 1) == -3 and C.C(1, 2) == -1


def test_unknown_node_is_an_input_error():
    C = cartan_preset("Bnp:2,2")
    for call, node in [(lambda: C.r(0), 0), (lambda: C.C(0, 1), 0),
                       (lambda: C.C(2, 5), 5)]:
        with pytest.raises(InputError, match="node %d is not" % node):
            call()


def test_minimal_affinization_single_pair():
    C = b_np(2, 3)
    lam = {1: 1, 2: 0}
    # single constraint: a_2 - a_1 must equal the one alignment exponent
    c1 = C.r(1) * 1 + C.r(2) * 0 + C.r(1) - C.C(1, 2) - 1
    assert minimal_affinization_check(C, lam, [0, c1])
    assert not minimal_affinization_check(C, lam, [0, c1 + 1])


def test_minimal_affinization_zero_weight():
    C = b_np(3, 2)
    lam = {}
    offs = [0]
    for s in range(1, 3):
        i, j = s, s + 1
        offs.append(offs[-1] + C.r(i) + C.r(j) * 0 - C.C(i, j) - 1
                    + C.r(i) * 0)
    # recompute honestly: c_s(0) = q^(r_s - C_{s,s+1} - 1)
    offs = [0]
    for s in (1, 2):
        offs.append(offs[-1] + C.r(s) - C.C(s, s + 1) - 1)
    assert minimal_affinization_check(C, lam, offs)


def test_minimal_affinization_qscalar_inputs():
    C = b_np(2, 2)
    lam = {1: 0, 2: 0}
    c1 = C.r(1) - C.C(1, 2) - 1
    assert minimal_affinization_check(C, lam,
                                      [QScalar.q_power(0),
                                       QScalar.q_power(c1)])
    with pytest.raises(DomainError):
        minimal_affinization_check(C, lam, [QScalar({0: 1, 1: 1}),
                                            QScalar.q_power(0)])


def test_minimal_affinization_random_perturbation():
    rng = random.Random(3)
    C = b_np(3, 3)
    for _ in range(10):
        lam = {i: rng.randrange(0, 4) for i in C.nodes}
        offs = [0]
        for s in (1, 2):
            t = s + 1
            offs.append(offs[-1] + C.r(s) * lam.get(s, 0)
                        + C.r(t) * lam.get(t, 0) + C.r(s) - C.C(s, t) - 1)
        assert minimal_affinization_check(C, lam, offs)
        k = rng.randrange(1, 3)
        offs[k] += 1
        assert not minimal_affinization_check(C, lam, offs)


def test_weight_vector_bookkeeping():
    C = cartan_preset("A3tor")
    alpha0 = WeightVector.simple_root(C, 0)
    assert alpha0.coords == {0: 2, 1: -1, 3: -1}
    lam = WeightVector.fundamental(0).scale(2) - alpha0
    assert lam.pairing(1) == 1
    assert not (WeightVector({0: -1})).is_dominant()


def oracle_leading_minors(rows):
    """Leading principal minors by a private Gaussian elimination over
    Fraction; kept as the oracle for the linalg-based minors."""
    n = len(rows)
    minors = []
    for m in range(1, n + 1):
        mat = [[Fraction(rows[i][j]) for j in range(m)] for i in range(m)]
        det = Fraction(1)
        for col in range(m):
            piv = None
            for row in range(col, m):
                if mat[row][col] != 0:
                    piv = row
                    break
            if piv is None:
                det = Fraction(0)
                break
            if piv != col:
                mat[col], mat[piv] = mat[piv], mat[col]
                det = -det
            det *= mat[col][col]
            inv = 1 / mat[col][col]
            for row in range(col + 1, m):
                f = mat[row][col] * inv
                if f:
                    for k in range(col, m):
                        mat[row][k] -= f * mat[col][k]
        minors.append(det)
    return minors


def oracle_minimal_symmetrizer(nodes, C):
    """Ratios propagated over each component, then a second search that
    finds the components again to clear denominators; kept as the oracle
    for the one-walk symmetrizer."""
    ratio = {}
    for start in nodes:
        if start in ratio:
            continue
        ratio[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j == i or C(i, j) == 0:
                    continue
                want = ratio[i] * Fraction(C(i, j), C(j, i))
                if j in ratio:
                    if ratio[j] != want:
                        raise ConstructionError("matrix is not symmetrizable")
                else:
                    ratio[j] = want
                    stack.append(j)
    seen = set()
    r = {}
    for start in nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        idx = 0
        while idx < len(comp):
            i = comp[idx]
            idx += 1
            for j in nodes:
                if j not in seen and j != i and C(i, j) != 0:
                    seen.add(j)
                    comp.append(j)
        denom = 1
        for j in comp:
            denom = denom * ratio[j].denominator // math.gcd(
                denom, ratio[j].denominator)
        vals = {j: int(ratio[j] * denom) for j in comp}
        g = 0
        for v in vals.values():
            g = math.gcd(g, v)
        for j, v in vals.items():
            r[j] = v // g
    return r


def _gcm(n, pair_entries):
    """The n-node GCM with entries (C_ij, C_ji) for each pair i < j."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), (a, b) in zip(combinations(range(n), 2), pair_entries):
        rows[i][j], rows[j][i] = a, b
    return rows


def _symmetrizer_or_error(fn, rows):
    try:
        return fn(list(range(len(rows))), lambda i, j: rows[i][j])
    except ConstructionError:
        return ConstructionError


def _all_small_gcms():
    # off-diagonal entries in {0, -1, -2, -3}, zero pattern symmetric
    pairs = [(0, 0)] + list(product((-1, -2, -3), repeat=2))
    for n in (1, 2, 3):
        for entries in product(pairs, repeat=n * (n - 1) // 2):
            yield _gcm(n, entries)


def _random_gcms(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 6)
        entries = [(0, 0) if rng.random() < 0.5 else
                   (rng.choice((-1, -2, -3)), rng.choice((-1, -2, -3)))
                   for _ in range(n * (n - 1) // 2)]
        yield _gcm(n, entries)


@pytest.mark.parametrize("gcms, count", [
    (_all_small_gcms, 1011), (lambda: _random_gcms(3000, 2008), 3000)],
    ids=["every_1_to_3_node", "random_4_to_6_node"])
def test_minors_and_symmetrizer_match_oracles(gcms, count):
    outcomes = []
    for rows in gcms():
        assert _leading_minors(rows) == oracle_leading_minors(rows), rows
        got = _symmetrizer_or_error(_minimal_symmetrizer, rows)
        assert got == _symmetrizer_or_error(oracle_minimal_symmetrizer,
                                            rows), rows
        outcomes.append(got is ConstructionError)
    assert len(outcomes) == count
    # both the symmetrizable and the rejected cases were compared
    assert set(outcomes) == {False, True}
