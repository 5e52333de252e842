import pytest

from qtoroidal.errors import DomainError, EscapeError, InputError
from qtoroidal.linalg import LinOp
from qtoroidal.modrep import (_relation_instances, build_extremal_loop,
                              build_root_of_unity, display_monomial,
                              expected_phi_series, hecke_companion,
                              l_character, l_character_offset,
                              rou_irreducible, verify_relations)
from qtoroidal.monomials import mono_parse
from qtoroidal.scalars import QScalar, cyclotomic_specialize, is_zero_elem


def one_vec(M, label):
    return {label: M.one()}


def test_xplus_node0_crosses_sites():
    M = build_extremal_loop((-2, 2))
    out = M.apply(("xp", 0, 3), one_vec(M, (1, 1)))
    # x+_{0,r} v_{1,p} = q^(r(4p-1)) v_{4,p-1}
    assert out == {(4, 0): QScalar.q_power(3 * (4 * 1 - 1))}


def test_k2_eigenvalues():
    M = build_extremal_loop((-2, 2))
    assert M.apply(("k", 2, 1), one_vec(M, (2, 0))) == \
        {(2, 0): QScalar.q_power(1)}
    assert M.apply(("k", 2, 1), one_vec(M, (3, 0))) == \
        {(3, 0): QScalar.q_power(-1)}
    assert M.apply(("k", 2, 1), one_vec(M, (1, 0))) == \
        {(1, 0): QScalar.one()}


def test_commutator_matches_phi_difference():
    M = build_extremal_loop((-2, 2))
    v = (1, 0)
    plus = M.apply(("xp", 1, 0), M.apply(("xm", 1, 0), one_vec(M, v)))
    minus = M.apply(("xm", 1, 0), M.apply(("xp", 1, 0), one_vec(M, v)))
    assert minus == {}
    assert plus == {v: QScalar.one()}
    qq = M.qq_inv()
    phi_diff = (M.apply(("phip", 1, 0), one_vec(M, v))[v]
                - M.apply(("phim", 1, 0), one_vec(M, v))[v])
    assert phi_diff.exact_div(qq) == QScalar.one()


def per_label_apply(M, gen, vec):
    """The per-label apply loop: each source label's table row is read
    from ``image()`` and merged into the result one entry at a time.
    Kept as the oracle for the cached-operator ``apply``."""
    out = {}
    for label, c in vec.items():
        if not M.in_basis(label):
            raise EscapeError("label %r is outside the window" % (label,))
        img = M.image(gen, label)
        if img is None:
            continue
        tgt, scal = img
        if tgt == "diag":
            tgt = label
        v = scal * c
        if tgt in out:
            v = out[tgt] + v
        if is_zero_elem(v):
            out.pop(tgt, None)
        else:
            out[tgt] = v
    return out


def relation_generators(M):
    gens = []
    for _, _, terms in _relation_instances(M, 1, 1):
        for _, seq in terms:
            for gen in seq:
                if gen not in gens:
                    gens.append(gen)
    return gens


def outcome(fn, *args):
    try:
        return list(fn(*args).items())
    except EscapeError:
        return "escape"


@pytest.mark.parametrize("make", [
    lambda: build_extremal_loop((-1, 1)),
    lambda: build_extremal_loop((-1, 1), corrupt_xp=(1, 1)),
    lambda: build_root_of_unity(1),
    lambda: build_root_of_unity(2),
], ids=["loop", "corrupt", "rou1", "rou2"])
def test_apply_matches_per_label_loop(make):
    M = make()
    gens = relation_generators(M)
    assert {g[0] for g in gens} == {"k", "h", "xp", "xm", "phip", "phim"}
    # basis vectors, a mixed vector and every one-step image (for the loop
    # module these include boundary targets, whose images must escape)
    mixed = {v: M.q_power(k) + M.one() for k, v in enumerate(M.basis)}
    vecs = [{v: M.one()} for v in M.basis] + [mixed]
    vecs += [per_label_apply(M, g, {v: M.one()}) for g in gens
             for v in M.basis]
    escaped = 0
    for gen in gens:
        for vec in vecs:
            want = outcome(per_label_apply, M, gen, vec)
            escaped += want == "escape"
            assert outcome(M.apply, gen, vec) == want, (gen, vec)
    assert (escaped > 0) == (M.kind == "loop")


def test_apply_escapes_outside_window():
    M = build_extremal_loop((0, 1))
    for gen in (("k", 1, 1), ("xp", 0, 0), ("h", 2, 1)):
        with pytest.raises(EscapeError):
            M.apply(gen, {(1, 2): M.one()})
        with pytest.raises(EscapeError):
            M.apply(gen, {(1, 0): M.one(), (4, -1): M.one()})


def test_generator_operators_are_cached():
    for M in (build_extremal_loop((-1, 1)), build_root_of_unity(2)):
        assert M.op(("xp", 1, 0)) is M.op(("xp", 1, 0))
        assert M.op(("one",)) == LinOp.identity(M.basis, M.one())


def test_escape_on_window_edge():
    M = build_extremal_loop((0, 1))
    with pytest.raises(EscapeError):
        # v_{4,-1} is a boundary ghost; acting on it must escape
        M.apply(("xp", 3, 0), M.apply(("xp", 0, 0), one_vec(M, (1, 0))))


def test_h_eigenvalue_from_log():
    from fractions import Fraction

    from qtoroidal.scalars import q_int
    M = build_extremal_loop((-2, 2))
    # v_{a,p} carries the fundamental-type l-weight Y[a, t] with
    # t = 4p+a-2, whose h eigenvalues are q^(t m) [m]_q / m
    v = (2, 1)
    t = 4 * 1 + 2 - 2
    for m in (1, 2, 3):
        got = M.h_eigenvalue(2, m, v)
        want = QScalar.q_power(t * m) * q_int(m) * Fraction(1, m)
        assert got == want
        # and the negative side mirrors it with t -> -t under q -> q
        got_neg = M.h_eigenvalue(2, -m, v)
        assert got_neg == QScalar.q_power(-t * m) * q_int(m) * Fraction(1, m)


def test_relations_loop_smoke():
    M = build_extremal_loop((-2, 2))
    rep = verify_relations(M, 1, 1)
    assert rep.passed, rep.to_json()
    assert rep.family("serre")["checked_vectors"] > 0


def test_relations_rou_smoke():
    M = build_root_of_unity(1)
    rep = verify_relations(M, 2, 2)
    assert rep.passed, rep.to_json()
    assert all(f["skipped_vectors"] == 0 for f in rep.families)


def test_corrupted_table_fails_with_witness():
    # flipping the sign of the single table x+_{1,1} breaks the relations
    # tying different spectral indices together
    M = build_extremal_loop((-2, 2), corrupt_xp=(1, 1))
    rep = verify_relations(M, 1, 1)
    assert not rep.passed
    offenders = [f for f in rep.families if not f["passed"]]
    assert any(f["family"] == "h-x" for f in offenders)
    for f in offenders:
        assert f["witness"] is not None
        assert "relation" in f["witness"] and "vector" in f["witness"]


def test_rou_specializes_loop():
    L = 2
    M = build_extremal_loop((-1, 2 * L))
    R = build_root_of_unity(L)
    order = 4 * L
    gens = [("xp", 0, 1), ("xp", 2, -1), ("xm", 3, 2), ("k", 1, 1),
            ("phip", 2, 2), ("phim", 0, -1)]
    for gen in gens:
        for label in M.basis:
            img = M.image(gen, label)
            rimg = R.image(gen, (label[0], label[1] % L))
            if img is None:
                assert rimg is None
                continue
            tgt, scal = img
            rtgt, rscal = rimg
            spec = cyclotomic_specialize(scal, order)
            if tgt == "diag":
                assert rtgt == "diag"
            else:
                assert rtgt == (tgt[0], tgt[1] % L)
            assert rscal == spec


def test_rou_k_orders():
    R = build_root_of_unity(2)
    v = (1, 0)
    k = R.apply(("k", 0, 1), one_vec(R, v))[v]
    # k eigenvalues are eps^{+-1}; their multiplicative order divides 8
    assert (k ** 8).is_one()


def test_l_character_reads_display_with_shift():
    M = build_extremal_loop((-2, 2))
    data = l_character(M, series_order=3)
    # the extremal vector carries the chain seed shifted one step down
    assert data["terms"][(1, 0)] == \
        display_monomial((1, 0)).shift_spectral(-1)
    off = l_character_offset(M)
    assert off["c"] == -1


def test_l_character_offset_rou():
    for L in (1, 2):
        R = build_root_of_unity(L)
        off = l_character_offset(R, series_order=3)
        assert off["c"] == -1
        assert -1 in off["candidates"]


def test_trivial_module_empty_monomial():
    M = build_extremal_loop((-2, 2))
    # a module whose phi series is constant 1 reads back the identity
    series = expected_phi_series(M, {}, 1, 3)
    assert series.at(0) == M.one()
    assert all(series.at(m) is None for m in (1, 2, 3))


def test_display_monomial_matches_remark_at_l1():
    # reduced mod 4: the four displayed terms of the small quotient
    want = {mono_parse("Y[1,0] Y[0,1]^-1"), mono_parse("Y[2,1] Y[1,2]^-1"),
            mono_parse("Y[3,2] Y[2,3]^-1"), mono_parse("Y[0,3] Y[3,0]^-1")}
    got = {display_monomial((a, 0)).reduce_spectral_mod(4)
           for a in (1, 2, 3, 4)}
    assert got == want


def test_rou_l1_irreducible():
    assert rou_irreducible(build_root_of_unity(1))


def test_hecke_companion_relation_and_spectra():
    for L in (1, 2, 3):
        rep = hecke_companion(L).verify()
        assert rep["passed"], rep


def test_hecke_companion_rejects_bad_l():
    with pytest.raises(InputError):
        hecke_companion(0)


def test_l_character_rejects_rou_direct_read():
    with pytest.raises(DomainError):
        l_character(build_root_of_unity(1))
