import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

import qtoroidal.hecke
import qtoroidal.linalg
from qtoroidal.errors import AlgorithmFailure, InputError
from qtoroidal.hecke import (SegmentCollection, all_perms, build_MA,
                             find_isomorphism, invariant_subspaces,
                             module_to_json, perm_length, reduced_word,
                             right_mul_s, segments_to_drinfeld,
                             verify_presentation, zelevinsky_product)
from qtoroidal.linalg import (Field, LinOp, kernel_basis, op_matrix, rref,
                              span_grow)
from qtoroidal.scalars import QRat, QScalar


def q_pow(n):
    return QRat(QScalar.q_power(n))


def test_perm_helpers():
    w = (3, 1, 2)
    assert perm_length(w) == 2
    word = reduced_word(w)
    v = tuple(range(1, 4))
    for i in word:
        v = right_mul_s(v, i)
    assert v == w


def test_m_a_dimensions():
    for l in (1, 2, 3):
        M = build_MA(l, [q_pow(2 * j) for j in range(l)])
        assert M.dim == [1, 1, 2, 6][l]


def test_l1_is_scalar():
    M = build_MA(1, [q_pow(5)])
    assert M.z_ops[1].entry((1,), (1,)) == q_pow(5)


def test_m_a_takes_int_and_fraction_parameters_as_constants():
    # an int n is the constant n, not q^n
    M = build_MA(2, [2, Fraction(1, 3)])
    assert M.z_ops[1].entry((1, 2), (1, 2)) == QRat(2)
    assert M.z_ops[2].entry((1, 2), (1, 2)) == QRat(Fraction(1, 3))
    assert M.z_ops[1].entry((1, 2), (1, 2)) != q_pow(2)


@pytest.mark.parametrize("A", [[0, 2], [q_pow(0), Fraction(0)],
                               [QScalar.zero(), q_pow(1)],
                               [q_pow(1), QRat.zero()]])
def test_m_a_rejects_a_zero_parameter(A):
    with pytest.raises(InputError, match="is zero"):
        build_MA(2, A)


def test_l2_z1_matrix_symbolic():
    # frozen from the left normal form: z_1 fixes 1 with a_1 and sends
    # sigma to a_2 sigma - (q - q^-1) a_2, read at a_1 = q^3, a_2 = q^7
    M = build_MA(2, [q_pow(3), q_pow(7)])
    ring = M.ring
    e, s = (1, 2), (2, 1)
    z1 = M.z_ops[1]
    a1 = ring.param(1)
    a2 = ring.param(2)
    qdiff = ring.from_qscalar(QScalar({1: 1, -1: -1}))
    assert z1.entry(e, e) == a1
    assert z1.entry(s, s) == a2
    assert z1.entry(e, s) == -(qdiff * a2)
    z2 = M.z_ops[2]
    assert z2.entry(e, e) == a2
    assert z2.entry(s, s) == a1
    assert z2.entry(e, s) == qdiff * a2


def _column(terms, A):
    """The column sum of a_{j'} c T_{w'} over the z_{j'} T_{w'} terms of a
    left normal form, with a_None = 1; each c must be free of the a's."""
    col = {}
    for (jj, ww, c) in terms:
        assert isinstance(c, QScalar)
        v = QRat(c) if jj is None else A[jj - 1] * QRat(c)
        col[ww] = col[ww] + v if ww in col else v
    return {w: v for w, v in col.items() if v}


@pytest.mark.parametrize("l", [1, 2, 3])
def test_presentation_relations_on_parameter_grid(l):
    # The presentation of M_A holds for all parameters; it is checked at
    # the 3^l points of S^l.
    # Premise, checked below, not assumed: each braid entry is free of the
    # a's (its terms carry no z index) and each z_j entry is a linear form
    # in them (each term of T_w z_j carries one z index).  Every relation
    # verify_presentation checks has at most two z letters on a side (the
    # check names spell the words), so each entry of lhs - rhs is a
    # polynomial over Q(q) of degree <= 2 in each a_j, and one that
    # vanishes on S^l with |S| = 3 is zero (N. Alon, "Combinatorial
    # Nullstellensatz", Combin. Probab. Comput. 8 (1999), Lemma 2.1).
    hk = qtoroidal.hecke
    perms = all_perms(l)
    memo = {}
    for exps in product(range(3), repeat=l):       # S = {1, q, q^2}
        A = [q_pow(n) for n in exps]
        M = build_MA(l, A)
        for w in perms:
            for i, op in M.sigma_ops.items():
                terms = hk._rmul_sigma_terms([(None, w, QScalar.one())], i)
                assert all(jj is None for jj, _, _ in terms)
                assert op.apply({w: QRat.one()}) == _column(terms, A)
            for j, op in M.z_ops.items():
                terms = hk._z_expansion(w, j, memo)
                assert all(jj in range(1, l + 1) for jj, _, _ in terms)
                assert op.apply({w: QRat.one()}) == _column(terms, A)
        rep = verify_presentation(M)
        assert rep["passed"], (exps, rep["checks"])
        assert all(name.count("z") <= 2 for name in rep["checks"])


def test_presentation_relations_instantiated():
    rep = verify_presentation(build_MA(3, [q_pow(0), q_pow(2), q_pow(5)]))
    assert rep["passed"]


def test_reducibility_iff_ratio_is_eps():
    # eps = q^2; the quotient is reducible exactly when a_2/a_1 is
    # q^2 or q^-2
    rng = random.Random(91)
    seen_red = seen_irr = 0
    for _ in range(24):
        n1 = rng.randrange(-6, 7)
        off = rng.choice([-3, -2, -1, 0, 1, 2, 3, 4])
        M = build_MA(2, [q_pow(n1), q_pow(n1 + off)])
        rep = invariant_subspaces(M)
        want_reducible = off in (2, -2)
        assert (not rep["irreducible"]) == want_reducible, (n1, off)
        seen_red += want_reducible
        seen_irr += not want_reducible
    assert seen_red and seen_irr


def test_m_a_aeps_composition():
    # a_2 = a_1 q^2: unique invariant line, sigma eigenvalue -q^-1,
    # z-eigenvalues swapped relative to the parameters
    M = build_MA(2, [q_pow(0), q_pow(2)])
    rep = invariant_subspaces(M)
    assert rep["socle_lines"] == 1
    assert rep["proper_count"] == 1          # non-split
    assert rep["composition"]["factor_dims"] == [1, 1]
    line = rep["line_data"][0]
    assert line["s1"] == repr(QRat(QScalar.q_power(-1)).__neg__())
    assert line["z1"] == repr(q_pow(2))
    assert line["z2"] == repr(q_pow(0))


def test_m_aeps_a_composition():
    # swapped parameters: still one line, sigma eigenvalue q, straight
    # z-eigenvalues; the two quotients exhibit the two extension orders
    M = build_MA(2, [q_pow(2), q_pow(0)])
    rep = invariant_subspaces(M)
    assert rep["socle_lines"] == 1
    assert rep["proper_count"] == 1
    line = rep["line_data"][0]
    assert line["s1"] == repr(q_pow(1))
    assert line["z1"] == repr(q_pow(0))
    assert line["z2"] == repr(q_pow(2))


def test_generic_l2_irreducible():
    M = build_MA(2, [q_pow(0), q_pow(5)])
    rep = invariant_subspaces(M)
    assert rep["irreducible"]
    assert rep["dims"] == [0, 2]


@pytest.mark.parametrize("exps, irreducible, dims, factor_dims, lines", [
    ((1, 0, 2), False, [0, 3, 6], [3, 3], []),
    ((0, 3, -1), True, [0, 6], [6], []),
    ((0, 2, 4), False, [0, 1, 3, 3, 5, 6], [1, 2, 2, 1],
     [{"s1": "-q^-1", "s2": "-q^-1", "z1": "q^4", "z2": "q^2",
       "z3": "1"}]),
])
def test_l3_invariant_subspaces(exps, irreducible, dims, factor_dims, lines):
    # frozen: one reducible and one irreducible parameter set, and a
    # q^2-segment, whose module has an invariant line
    rep = invariant_subspaces(build_MA(3, [q_pow(n) for n in exps]))
    assert rep["irreducible"] is irreducible
    assert rep["dims"] == dims
    assert rep["composition"]["factor_dims"] == factor_dims
    assert rep["line_data"] == lines


@pytest.mark.parametrize("exps", [(0, 3, -1), (1, 0, 2), (0, 0, 2)])
def test_z_operators_triangular_with_permuted_parameters(exps):
    # in the all_perms basis every z_j is upper triangular, and the
    # diagonal entries of z_1..z_l on one basis vector are the parameters
    # in some order; so is every joint z-eigenvalue tuple
    l = len(exps)
    params = [q_pow(n) for n in exps]
    M = build_MA(l, params)
    index = {w: k for k, w in enumerate(all_perms(l))}
    for z in M.z_ops.values():
        for src, col in z.cols.items():
            assert all(index[dst] <= index[src] for dst in col), src
    for w in M.basis:
        diag = [M.z_ops[j].entry(w, w) for j in range(1, l + 1)]
        assert Counter(diag) == Counter(params), w


def product_invariant_subspaces(M, monkeypatch):
    """``invariant_subspaces`` solving every tuple of parameter values
    for a joint z-eigenvector, not only their orderings.  Kept as the
    oracle for the restriction to permutations."""
    calls = []

    def every_tuple(values):
        calls.append(values)
        return product(values, repeat=len(values))

    with monkeypatch.context() as mp:
        mp.setattr(qtoroidal.hecke, "permutations", every_tuple)
        rep = invariant_subspaces(M)
    assert len(calls) == 1 and len(calls[0]) == M.l
    return rep


ORDERING_EXPS = [
    (0, 2), (2, 0), (0, 0), (0, 5), (3, 1),
    (1, 0, 2), (0, 3, -1), (0, 2, 4), (4, 2, 0), (0, 0, 2), (2, 0, 0),
    (0, 2, 0), (1, 1, 1)]


@pytest.mark.parametrize("exps", ORDERING_EXPS)
def test_invariant_subspaces_match_product_oracle(exps, monkeypatch):
    M = build_MA(len(exps), [q_pow(n) for n in exps])
    assert invariant_subspaces(M) == product_invariant_subspaces(
        M, monkeypatch)


@pytest.mark.parametrize("exps", ORDERING_EXPS)
def test_non_ordering_tuples_have_no_joint_z_eigenvector(exps):
    # the product oracle above reaches invariant_subspaces through the
    # name it patches, so it cannot tell a search cut to fewer orderings
    # from the full one; this checks the fact the restriction rests on,
    # on the module itself
    l = len(exps)
    M = build_MA(l, [q_pow(n) for n in exps])
    field = M.ring.field()
    zs = [op_matrix(M.z_ops[j], M.basis, field.zero)
          for j in range(1, l + 1)]
    orderings = set(permutations(exps))
    others = [lam for lam in product(sorted(set(exps)), repeat=l)
              if lam not in orderings]
    for lam in others:
        stacked = [[zm[r][c] - (q_pow(e) if r == c else field.zero)
                    for c in range(M.dim)] for r in range(M.dim)
                   for zm, e in zip(zs, lam)]
        assert kernel_basis(stacked, field) == [], lam


def oracle_subspace_key(rows):
    return tuple(tuple(repr(x) for x in r) for r in rows)


def oracle_echelon_rows(vectors, field):
    """Reduced echelon rows of a spanning list, zero rows dropped."""
    if not vectors:
        return []
    rows, _ = rref(vectors, field)
    return [r for r in rows if any(not field.is_zero(x) for x in r)]


def oracle_intersect(rows1, rows2, field, dim):
    """Intersection of two row spaces: solve x rows1 = y rows2 as one
    stacked kernel and re-echelonize the combinations x rows1."""
    if not rows1 or not rows2:
        return []
    mat = [[rows1[r][c] if r < len(rows1) else
            -rows2[r - len(rows1)][c] for r in range(len(rows1)
                                                     + len(rows2))]
           for c in range(dim)]
    vecs = []
    for combo in kernel_basis(mat, field):
        v = [field.zero] * dim
        for r in range(len(rows1)):
            if not field.is_zero(combo[r]):
                v = [a + combo[r] * b for a, b in zip(v, rows1[r])]
        if any(not field.is_zero(x) for x in v):
            vecs.append(v)
    return oracle_echelon_rows(vecs, field)


def oracle_contains(big, small, field):
    """Containment as it was before it became one rank test: solve for
    the intersection."""
    if not small:
        return True
    dim = len(small[0])
    return len(oracle_intersect(big, small, field, dim)) == len(small)


def oracle_composition_chain(M, field, subspaces):
    """The chain search as it was before containment became one rank
    test, with ``oracle_contains``."""
    dim = M.dim

    def contains(big, small):
        return oracle_contains(big, small, field)

    chain_rows = []
    last = []
    while len(last) < dim:
        bigger = [rows for rows in subspaces.values()
                  if len(rows) > len(last) and contains(rows, last)]
        if not bigger:
            break
        nxt = min(bigger, key=len)
        chain_rows.append(nxt)
        last = nxt
    factors = []
    prev_dim = 0
    for rows in chain_rows:
        factors.append(len(rows) - prev_dim)
        prev_dim = len(rows)
    return {"subspace_dims": [len(r) for r in chain_rows],
            "factor_dims": factors}


SUBSPACE_EXPS = ORDERING_EXPS + [
    (0,), (3,), (1, 3), (0, -2), (-1, 1), (2, 2), (0, 1),
    (0, 2, 2), (3, 1, -1), (0, 4, 2), (2, 4, 6), (1, -1, 3), (0, 2, -2)]


@pytest.mark.parametrize("exps", SUBSPACE_EXPS)
def test_invariant_subspaces_match_repr_key_oracle(exps, monkeypatch):
    # the eigenvector closure with subspaces keyed by the repr text of
    # their echelon rows, and a chain whose containment test intersects,
    # gives the same whole report; distinct parameters are sent down the
    # closure too, so they compare it with the weight graph
    M = build_MA(len(exps), [q_pow(n) for n in exps])
    got = invariant_subspaces(M)
    monkeypatch.setattr(qtoroidal.hecke, "_subspace_key",
                        oracle_subspace_key)
    monkeypatch.setattr(qtoroidal.hecke, "_contains_rows",
                        oracle_contains)
    monkeypatch.setattr(qtoroidal.hecke, "_weight_lattice",
                        qtoroidal.hecke._closure_lattice)
    assert got == invariant_subspaces(M)


def oracle_sum_entries(mat, vec, field, r):
    """Row r of a dense matrix times a dense vector."""
    acc = field.zero
    for c, x in enumerate(vec):
        if not field.is_zero(x):
            acc = acc + mat[r][c] * x
    return acc


def oracle_span_grow(vectors, mats, field):
    """``span_grow`` on dense matrices, forming each image row by row with
    ``oracle_sum_entries``.  Kept as the oracle for the operator path."""
    basis_rows = []

    def reduce_against(vec):
        v = list(vec)
        for row, pc in basis_rows:
            if not field.is_zero(v[pc]):
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        for c, x in enumerate(v):
            if not field.is_zero(x):
                inv = field.one / x
                return [y * inv for y in v], c
        return None, None

    frontier = list(vectors)
    while frontier:
        vec = frontier.pop()
        row, pc = reduce_against(vec)
        if row is None:
            continue
        basis_rows.append((row, pc))
        if len(basis_rows) == len(row):
            break
        for mat in mats:
            frontier.append([oracle_sum_entries(mat, row, field, r)
                             for r in range(len(row))])
    return [row for row, _ in sorted(basis_rows, key=lambda t: t[1])]


def oracle_gen_matrices(M, field):
    """Dense matrices of the generators in the basis order, keyed ("s", i)
    and ("z", j)."""
    mats = {("s", i): op_matrix(op, M.basis, field.zero)
            for i, op in M.sigma_ops.items()}
    mats.update({("z", j): op_matrix(op, M.basis, field.zero)
                 for j, op in M.z_ops.items()})
    return mats


def oracle_line_data(mats, field, vec):
    """Each generator's eigenvalue on a dense line vector, read off dense
    matrix-vector products."""
    out = {}
    for key, mat in mats.items():
        img = [oracle_sum_entries(mat, vec, field, r)
               for r in range(len(vec))]
        lam = None
        for r in range(len(vec)):
            if not field.is_zero(vec[r]):
                lam = img[r] / vec[r]
                break
        ok = all(field.is_zero(img[r] - lam * vec[r])
                 for r in range(len(vec)))
        out["%s%d" % key] = repr(lam) if ok else "not an eigenvector"
    return out


def oracle_joint_eigenvectors(M, mats, field):
    """Kernel vectors of every ordering's stacked z-system, each ordering
    subtracted from whole dense matrices."""
    dim = M.dim
    values = [M.ring.param(j) for j in range(1, M.l + 1)]
    for lam in permutations(values):
        stacked = []
        for j in range(1, M.l + 1):
            zm = mats[("z", j)]
            stacked.extend([[zm[r][c] - (lam[j - 1] if r == c else
                                         field.zero)
                             for c in range(dim)] for r in range(dim)])
        yield from kernel_basis(stacked, field)


def oracle_invariant_subspaces(M):
    """``invariant_subspaces`` with the saturation it had before the
    worklist: every ordered pair of members, self-pairs included, gives a
    sum and a kernel-based intersection, and whole passes repeat until one
    adds nothing.  Subspaces grow through dense generator matrices, and
    the chain comes from ``oracle_composition_chain``."""
    field = M.ring.field()
    dim = M.dim
    mats = oracle_gen_matrices(M, field)
    gen_mats = list(mats.values())
    subspaces = {}
    for vec in oracle_joint_eigenvectors(M, mats, field):
        rows = oracle_echelon_rows(oracle_span_grow([vec], gen_mats, field),
                                   field)
        subspaces[oracle_subspace_key(rows)] = rows
    subspaces[oracle_subspace_key([])] = []
    full = [[field.one if c == r else field.zero for c in range(dim)]
            for r in range(dim)]
    subspaces[oracle_subspace_key(full)] = full
    changed = True
    while changed:
        changed = False
        items = list(subspaces.values())
        for r1 in items:
            for r2 in items:
                for rows in (oracle_echelon_rows(r1 + r2, field),
                             oracle_intersect(r1, r2, field, dim)):
                    key = oracle_subspace_key(rows)
                    if key not in subspaces:
                        subspaces[key] = rows
                        changed = True
    proper = [rows for rows in subspaces.values() if 0 < len(rows) < dim]
    lines = [rows for rows in proper if len(rows) == 1]
    return {
        "dims": sorted(len(rows) for rows in subspaces.values()),
        "proper_count": len(proper),
        "irreducible": not proper,
        "socle_lines": len(lines),
        "line_data": [oracle_line_data(mats, field, rows[0])
                      for rows in lines],
        "composition": oracle_composition_chain(M, field, subspaces),
    }


SATURATION_EXPS = sorted(set(SUBSPACE_EXPS)
                         | set(product(range(-1, 4), repeat=2))
                         | set(product(range(-1, 3), repeat=3)),
                         key=lambda e: (len(e), e))


@pytest.mark.parametrize("exps", SATURATION_EXPS,
                         ids=lambda e: ",".join(map(str, e)))
def test_span_grow_matches_dense_oracle(exps):
    # every joint z-eigenvector grows to the same rows, row order and
    # unreduced entries included
    M = build_MA(len(exps), [q_pow(n) for n in exps])
    field = M.ring.field()
    mats = oracle_gen_matrices(M, field)
    ops = [op for _, op in M.generators()]
    vecs = list(oracle_joint_eigenvectors(M, mats, field))
    assert vecs
    for vec in vecs:
        assert (span_grow([vec], ops, M.basis, field)
                == oracle_span_grow([vec], list(mats.values()), field)), vec


@pytest.mark.parametrize("exps", SATURATION_EXPS,
                         ids=lambda e: ",".join(map(str, e)))
def test_invariant_subspaces_match_saturation_oracle(exps):
    # whole reports, list order included: line_data follows the order in
    # which lines join the lattice and the chain takes the first minimal
    # member, so a saturation that finds members in another order shows
    M = build_MA(len(exps), [q_pow(n) for n in exps])
    assert invariant_subspaces(M) == oracle_invariant_subspaces(M)


@pytest.mark.parametrize("exps", SATURATION_EXPS + [(0, 2, 4, 6)],
                         ids=lambda e: ",".join(map(str, e)))
def test_one_pass_saturation_closes_the_lattice(exps, monkeypatch):
    # every pair of members has its sum and its meet in the returned
    # lattice: sets of weights by union and intersection, echelon rows by
    # row reduction and a kernel-based intersection; at l = 4 on the
    # q^2-segment, pairs with members that saturation found add members
    lattices = []
    real = qtoroidal.hecke._saturate

    def spy(members, key, sum_and_meet):
        out = real(members, key, sum_and_meet)
        lattices.append((out, key))
        return out

    monkeypatch.setattr(qtoroidal.hecke, "_saturate", spy)
    M = build_MA(len(exps), [q_pow(n) for n in exps])
    invariant_subspaces(M)
    [(members, key)] = lattices
    field = M.ring.field()
    keys = {key(s) for s in members}
    for a, b in combinations(members, 2):
        if isinstance(a, frozenset):
            pair = (a | b, a & b)
        else:
            pair = (rref(a + b, field)[0],
                    oracle_intersect(a, b, field, M.dim))
        assert all(key(s) in keys for s in pair), (a, b)


def test_closure_lattice_tries_each_distinct_ordering_once(monkeypatch):
    # (0, 0, 2) has 6 orderings but 3 distinct ones; a repeated ordering
    # would rebuild the same stacked system, kernel and closures
    calls = []
    real = qtoroidal.hecke.kernel_basis

    def spy(rows, field):
        calls.append(rows)
        return real(rows, field)

    monkeypatch.setattr(qtoroidal.hecke, "kernel_basis", spy)
    invariant_subspaces(build_MA(3, [q_pow(n) for n in (0, 0, 2)]))
    assert len(calls) == 3


KATO_EXPS = [(0,) + abc for abc in combinations(range(1, 7), 3)]


@pytest.mark.parametrize("exps", KATO_EXPS,
                         ids=lambda e: ",".join(map(str, e)))
def test_l4_kato_criterion(exps):
    # distinct parameters q^e: M_A is irreducible exactly when no two
    # exponents differ by 2, i.e. no ratio a_i/a_j is q^{+-2}
    rep = invariant_subspaces(build_MA(4, [q_pow(n) for n in exps]))
    linked = any(abs(a - b) == 2 for a, b in combinations(exps, 2))
    assert rep["irreducible"] is not linked


def test_l4_weight_lattice_matches_saturation_oracle():
    # a q^2-segment: twenty members and the full chain of Kato's
    # composition factors, against the eigenvector closure
    M = build_MA(4, [q_pow(n) for n in (0, 2, 4, 6)])
    rep = invariant_subspaces(M)
    assert len(rep["dims"]) == 20
    assert rep["composition"]["factor_dims"] == [1, 3, 3, 5, 5, 3, 3, 1]
    assert rep == oracle_invariant_subspaces(M)


def _bent(M, kind, i, src, dst):
    """M with 1 added to the (dst, src) entry, as basis indices, of the
    generator ("s" or "z", i)."""
    ops = M.sigma_ops if kind == "s" else M.z_ops
    cols = {b: dict(col) for b, col in ops[i].cols.items()}
    col = cols[M.basis[src]]
    b = M.basis[dst]
    col[b] = col[b] + QRat.one() if b in col else QRat.one()
    ops[i] = LinOp(cols)
    return M


def _diagonal_module(pairs):
    """An l = 2 module with diagonal z_1, z_2 whose entries on the two
    basis vectors are q to the given exponent pairs, parameters q, q^3."""
    basis = [(1, 2), (2, 1)]
    z = {j: LinOp({b: {b: q_pow(e[j - 1])} for b, e in zip(basis, pairs)})
         for j in (1, 2)}
    ident = LinOp.identity(basis, QRat.one())
    return qtoroidal.hecke.HeckeModule(
        2, qtoroidal.hecke.QRatRing([q_pow(1), q_pow(3)]), basis,
        {1: ident}, z)


@pytest.mark.parametrize("make, match", [
    (lambda: _bent(build_MA(3, [q_pow(n) for n in (0, 3, -1)]),
                   "s", 1, 0, 5), "leaves the span"),
    (lambda: _bent(build_MA(3, [q_pow(n) for n in (0, 3, -1)]),
                   "z", 2, 5, 0), "not a joint z-eigenvector"),
    (lambda: _diagonal_module([(1, 3), (1, 3)]), "on the diagonal 2 times"),
    (lambda: _diagonal_module([(1, 3), (1, 5)]), "do not span"),
], ids=["bent-sigma", "bent-z", "weight-twice", "weight-missing"])
def test_weight_lattice_checks_its_premises(make, match):
    with pytest.raises(AlgorithmFailure, match=match):
        invariant_subspaces(make())


def _random_rows(rng, field, count, dim):
    """Reduced echelon rows spanned by ``count`` small random vectors."""
    vecs = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
            for _ in range(count)]
    return rref(vecs, field)[0]


def test_sum_and_meet_match_rref_and_kernel_oracle():
    field = Field(Fraction(0), Fraction(1))
    rng = random.Random(15)
    meets = 0
    for dim in range(3, 7):
        for _ in range(20):
            u = _random_rows(rng, field, rng.randint(0, dim), dim)
            w = _random_rows(rng, field, rng.randint(0, dim), dim)
            # a subspace of u, spanned by random combinations of its rows
            combos = [[rng.randint(-2, 2) for _ in u]
                      for _ in range(rng.randint(1, 3))]
            inner = rref([[sum((c * row[j] for c, row in zip(cs, u)),
                               Fraction(0)) for j in range(dim)]
                          for cs in combos], field)[0]
            assert rref(u + inner, field)[0] == u
            for r1, r2 in ((u, w), (w, u), (u, []), ([], w), (u, inner),
                           (inner, u)):
                got_sum, got_meet = qtoroidal.hecke._sum_and_meet(
                    r1, r2, field, dim)
                assert got_sum == rref(r1 + r2, field)[0], (r1, r2)
                assert got_meet == oracle_intersect(r1, r2, field, dim), \
                    (r1, r2)
                meets += bool(got_meet)
    assert meets > 100


def test_saturation_reduces_each_pair_of_members_once(monkeypatch):
    # l = 3 at (0, 2, 0), a repeated parameter, has four members, so six
    # unordered pairs of distinct members, each row-reduced once
    reductions = []
    per_call = []
    pairs = []
    real_rref = qtoroidal.hecke.rref
    real_sum_and_meet = qtoroidal.hecke._sum_and_meet

    def counting_rref(matrix, field):
        reductions.append(None)
        return real_rref(matrix, field)

    def counting_sum_and_meet(rows1, rows2, field, dim):
        before = len(reductions)
        out = real_sum_and_meet(rows1, rows2, field, dim)
        per_call.append(len(reductions) - before)
        pairs.append(frozenset(map(qtoroidal.hecke._subspace_key,
                                   (rows1, rows2))))
        return out

    monkeypatch.setattr(qtoroidal.hecke, "rref", counting_rref)
    monkeypatch.setattr(qtoroidal.hecke, "_sum_and_meet",
                        counting_sum_and_meet)
    rep = invariant_subspaces(build_MA(3, [q_pow(n) for n in (0, 2, 0)]))
    assert len(rep["dims"]) == 4
    assert per_call == [1] * 6
    assert len(set(pairs)) == 6 and all(len(p) == 2 for p in pairs)


def test_composition_chain_steps_only_to_members_containing_the_last():
    # a line and a plane that misses it: the chain through the line must
    # pass over the plane, although the plane is the smallest larger member
    field = qtoroidal.hecke.QRatRing([]).field()
    one, zero = field.one, field.zero
    line = [[one, zero, zero]]
    plane = [[zero, one, zero], [zero, zero, one]]
    full = line + plane
    chain = qtoroidal.hecke._composition_chain(
        3, [[], line, plane, full],
        lambda big, small: qtoroidal.hecke._contains_rows(big, small, field))
    assert chain == {"subspace_dims": [1, 3], "factor_dims": [1, 2]}


def _qrats(obj):
    if isinstance(obj, QRat):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _qrats(x)


def test_l3_linear_algebra_keeps_int_coefficients(monkeypatch):
    """Every QRat the row reductions and span growths of an l = 3
    invariant_subspaces with a repeated parameter return stores int
    coefficients: no float, no Fraction."""
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append(out)
            return out
        return wrapped

    for mod in (qtoroidal.hecke, qtoroidal.linalg):
        monkeypatch.setattr(mod, "rref", spy(qtoroidal.linalg.rref))
    monkeypatch.setattr(qtoroidal.hecke, "span_grow",
                        spy(qtoroidal.linalg.span_grow))
    M = build_MA(3, [q_pow(n) for n in (0, 2, 0)])
    invariant_subspaces(M)
    ops = [*M.sigma_ops.values(), *M.z_ops.values()]
    values = list(_qrats(seen)) + [x for op in ops
                                   for col in op.cols.values()
                                   for x in col.values()]
    # divisions happened: some entries have a non-constant denominator
    assert any(len(x._d) > 1 for x in values)
    for x in values:
        assert all(type(c) is int for c in (*x._n, *x._d, x._v)), x


def test_l3_weight_vectors_keep_int_coefficients(monkeypatch):
    """Every coordinate of the weight vectors of an l = 3 invariant_subspaces
    with distinct parameters stores int coefficients, and back-substitution
    divided: some have a non-constant denominator."""
    seen = []
    real = qtoroidal.hecke._weight_vector

    def spy(*args):
        vec = real(*args)
        seen.append(vec)
        return vec

    monkeypatch.setattr(qtoroidal.hecke, "_weight_vector", spy)
    invariant_subspaces(build_MA(3, [q_pow(n) for n in (0, 3, -1)]))
    assert len(seen) == 6
    values = [x for vec in seen for x in vec.values()]
    assert any(len(x._d) > 1 for x in values)
    for x in values:
        assert all(type(c) is int for c in (*x._n, *x._d, x._v)), x


def test_span_grow_stops_once_the_basis_spans_the_space(monkeypatch):
    """Images are formed only of the rows found before the basis spans
    the space, dim - 1 of them per operator, so no frontier vector is
    reduced after that; the rows returned are the whole space's."""
    images = []
    real_apply = LinOp.apply

    def counting(op, vec):
        images.append(vec)
        return real_apply(op, vec)

    monkeypatch.setattr(LinOp, "apply", counting)
    field = Field(Fraction(0), Fraction(1))
    dim = 4
    unit = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    shift, shift2 = (LinOp({i: {(i + k) % dim: Fraction(1)}
                            for i in range(dim)}) for k in (1, 2))
    rows = span_grow([unit[0]], [shift, shift2], range(dim), field)
    assert rows == unit
    assert len(images) == (dim - 1) * 2


def test_segments_to_drinfeld():
    S = SegmentCollection([(3, 2)])
    out = segments_to_drinfeld(S, 4)
    assert out["roots"] == {2: [3]}
    assert out["out_of_range"] == []
    S2 = SegmentCollection([(0, 1), (7, 1)])
    assert segments_to_drinfeld(S2, 2)["roots"] == {1: [0, 7]}
    S3 = SegmentCollection([(1, 3)])
    out3 = segments_to_drinfeld(S3, 2)
    assert out3["roots"] == {} and out3["out_of_range"] == [(1, 3)]


def test_segment_elements():
    S = SegmentCollection([(2, 3)])
    assert S.elements() == [0, 2, 4]
    assert S.total_length == 3


def test_zelevinsky_dimension_count():
    M1 = build_MA(1, [q_pow(0)])
    M2 = build_MA(2, [q_pow(3), q_pow(7)])
    P = zelevinsky_product(M1, M2)
    assert P.dim == 1 * 2 * 3      # dim M1 * dim M2 * binom(3,1)
    assert verify_presentation(P)["passed"]


def test_zelevinsky_one_one_matches_m_a():
    a, b = q_pow(1), q_pow(4)
    P = zelevinsky_product(build_MA(1, [a]), build_MA(1, [b]))
    M = build_MA(2, [a, b])
    assert verify_presentation(P)["passed"]
    F = find_isomorphism(P, M)
    assert F is not None


def test_zelevinsky_associative_via_m_abc():
    vals = [q_pow(0), q_pow(3), q_pow(7)]
    A = build_MA(1, [vals[0]])
    B = build_MA(1, [vals[1]])
    C = build_MA(1, [vals[2]])
    left = zelevinsky_product(zelevinsky_product(A, B), C)
    right = zelevinsky_product(A, zelevinsky_product(B, C))
    target = build_MA(3, vals)
    assert find_isomorphism(left, target) is not None
    assert find_isomorphism(right, target) is not None


def test_module_json_dump():
    import json

    M = build_MA(2, [q_pow(0), q_pow(2)])
    obj = module_to_json(M)
    text = json.dumps(obj, sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text
    assert obj["dim"] == 2 and set(obj["z"]) == {"1", "2"}
    # the frozen z_1 column on the long basis element
    entries = {(d, s): v for d, s, v in obj["z"]["1"]}
    assert entries[("(2, 1)", "(2, 1)")] == repr(q_pow(2))


def test_build_MA_rejects_large_l():
    with pytest.raises(InputError):
        build_MA(5, [q_pow(0)] * 5)


@pytest.mark.parametrize("count", [1, 3])
def test_build_MA_needs_one_parameter_per_z(count):
    with pytest.raises(InputError):
        build_MA(2, [q_pow(0)] * count)


# ---------------------------------------------------------------------------
# operator construction against the per-generator loops it replaced
# ---------------------------------------------------------------------------

def oracle_build_MA(l, A):
    """``build_MA`` with one sigma loop that states the Hecke rule
    T_w T_i = T_{w s_i} (+ (q - q^-1) T_w when l(w s_i) < l(w)) inline and
    one z loop over the left normal form.  Kept as the oracle for the
    single operator builder."""
    hk = qtoroidal.hecke
    ring = hk.QRatRing([QRat(a) if isinstance(a, QScalar) else a
                        for a in A])
    perms = all_perms(l)
    qdiff = ring.from_qscalar(hk._QDIFF)
    sigma_ops = {}
    for i in range(1, l):
        cols = {}
        for w in perms:
            ws = right_mul_s(w, i)
            if perm_length(ws) > perm_length(w):
                cols[w] = {ws: ring.one()}
            else:
                cols[w] = {ws: ring.one(), w: qdiff}
        sigma_ops[i] = LinOp(cols)
    memo = {}
    z_ops = {}
    for j in range(1, l + 1):
        cols = {}
        for w in perms:
            col = {}
            for (jj, ww, c) in hk._z_expansion(w, j, memo):
                val = ring.param(jj) * ring.from_qscalar(c)
                col[ww] = col[ww] + val if ww in col else val
            cols[w] = col
        z_ops[j] = LinOp(cols)
    return hk.HeckeModule(l, ring, perms, sigma_ops, z_ops, label="M_A")


def oracle_zelevinsky_product(M1, M2):
    """``zelevinsky_product`` with its separate sigma loop (the Hecke rule
    inline, through an if/else) and z loop.  Kept as the oracle for the
    single operator builder."""
    hk = qtoroidal.hecke
    l1, l2 = M1.l, M2.l
    n = l1 + l2
    ring = hk.QRatRing(M1.ring.params + M2.ring.params)
    reps = hk._coset_reps(l1, l2)
    basis = [(b1, b2, d) for d in reps for b1 in M1.basis
             for b2 in M2.basis]
    memo = {}
    qdiff = ring.from_qscalar(hk._QDIFF)

    def act_parabolic(b1, b2, u1, u2, scalar):
        v1 = {b1: ring.one()}
        for i in reduced_word(u1):
            v1 = M1.sigma_ops[i].apply(v1)
        v2 = {b2: ring.one()}
        for i in reduced_word(u2):
            v2 = M2.sigma_ops[i].apply(v2)
        return {(c1, c2): x1 * x2 * scalar for c1, x1 in v1.items()
                for c2, x2 in v2.items()}

    sigma_ops = {}
    for i in range(1, n):
        cols = {}
        for (b1, b2, d) in basis:
            col = {}
            ds = right_mul_s(d, i)
            terms = []
            if perm_length(ds) > perm_length(d):
                terms.append((ds, ring.one()))
            else:
                terms.append((ds, ring.one()))
                terms.append((d, qdiff))
            for (w, coef) in terms:
                u1, u2, dp = hk._decompose(w, l1)
                for pair, val in act_parabolic(b1, b2, u1, u2,
                                               coef).items():
                    key = (pair[0], pair[1], dp)
                    col[key] = col[key] + val if key in col else val
            cols[(b1, b2, d)] = col
        sigma_ops[i] = LinOp(cols)

    z_ops = {}
    for j in range(1, n + 1):
        cols = {}
        for (b1, b2, d) in basis:
            col = {}
            for (jj, w, c) in hk._z_expansion(d, j, memo):
                u1, u2, dp = hk._decompose(w, l1)
                if jj <= l1:
                    img = M1.z_ops[jj].apply({b1: ring.from_qscalar(c)})
                    pairs = {(t, b2): x for t, x in img.items()}
                else:
                    img = M2.z_ops[jj - l1].apply(
                        {b2: ring.from_qscalar(c)})
                    pairs = {(b1, t): x for t, x in img.items()}
                for (c1, c2), val in pairs.items():
                    for pair2, x in act_parabolic(c1, c2, u1, u2,
                                                  val).items():
                        key = (pair2[0], pair2[1], dp)
                        col[key] = col[key] + x if key in col else x
            cols[(b1, b2, d)] = col
        z_ops[j] = LinOp(cols)
    return hk.HeckeModule(n, ring, basis, sigma_ops, z_ops,
                          label="%s (x)Z %s" % (M1.label, M2.label))


def assert_same_module(got, want):
    assert got.l == want.l and got.label == want.label
    assert got.basis == want.basis
    assert type(got.ring) is type(want.ring)
    assert list(got.sigma_ops) == list(want.sigma_ops)
    assert list(got.z_ops) == list(want.z_ops)
    for i, op in want.sigma_ops.items():
        assert got.sigma_ops[i] == op, ("s", i)
    for j, op in want.z_ops.items():
        assert got.z_ops[j] == op, ("z", j)
    assert module_to_json(got) == module_to_json(want)


BUILD_ORACLE_CASES = [
    (1, (0,)), (1, (-3,)), (2, (0, 2)), (2, (2, 0)), (2, (1, 1)),
    (2, (-2, 5)), (3, (1, 0, 2)), (3, (0, 3, -1)), (3, (0, 0, 2)),
    (3, (2, 2, 2))]


@pytest.mark.parametrize("l, exps", BUILD_ORACLE_CASES, ids=str)
def test_build_MA_matches_per_generator_oracle(l, exps):
    A = [q_pow(n) for n in exps]
    assert_same_module(build_MA(l, A), oracle_build_MA(l, A))


PRODUCT_ORACLE_CASES = [
    ((0,), (2,)), ((3,), (-1,)), ((1,), (1,)),
    ((0,), (3, 7)), ((2,), (0, 2)), ((1,), (1, 1)),
    ((3, 7), (0,)), ((0, 2), (4,)), ((2, 0), (2,))]


@pytest.mark.parametrize("exps1, exps2", PRODUCT_ORACLE_CASES)
def test_zelevinsky_product_matches_per_generator_oracle(exps1, exps2):
    M1 = build_MA(len(exps1), [q_pow(n) for n in exps1])
    M2 = build_MA(len(exps2), [q_pow(n) for n in exps2])
    assert_same_module(zelevinsky_product(M1, M2),
                       oracle_zelevinsky_product(M1, M2))


@pytest.mark.parametrize("exps1, exps2", PRODUCT_ORACLE_CASES)
def test_product_module_lattice_matches_saturation_oracle(exps1, exps2):
    # induced modules with distinct parameters take the weight-graph path
    # too, and give the eigenvector closure's reports
    P = zelevinsky_product(build_MA(len(exps1), [q_pow(n) for n in exps1]),
                           build_MA(len(exps2), [q_pow(n) for n in exps2]))
    assert invariant_subspaces(P) == oracle_invariant_subspaces(P)
