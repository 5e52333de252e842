import pytest

from qtoroidal.errors import InputError, WindowError
from qtoroidal.fusion import (coproduct_generator, coproduct_relation_check,
                              delta_terms, twisted_coassoc_check)
from qtoroidal.linalg import LinOp
from qtoroidal.modrep import (ModuleRealization, build_extremal_loop,
                              build_root_of_unity)


def tensor_op(M1, M2, genA, genB):
    a = M1.op(genA) if genA != ("one",) else LinOp.identity(M1.basis,
                                                            M1.one())
    b = M2.op(genB) if genB != ("one",) else LinOp.identity(M2.basis,
                                                            M2.one())
    return a.tensor(b)


def test_k_image_is_group_like():
    M = build_root_of_unity(1)
    img = coproduct_generator(("k", 2, 1), M, M, (-2, 3))
    assert img.complete
    assert img.coeff(0) == tensor_op(M, M, ("k", 2, 1), ("k", 2, 1))
    assert all(img.coeff(n) is None for n in (-2, -1, 1, 2, 3))
    assert img.specialize_u1() == img.coeff(0)


def test_xp_u0_coefficient():
    M = build_root_of_unity(1)
    img = coproduct_generator(("xp", 1, 0), M, M, (-3, 4))
    want = (tensor_op(M, M, ("xp", 1, 0), ("one",))
            + tensor_op(M, M, ("phim", 1, 0), ("xp", 1, 0)))
    assert img.coeff(0) == want
    assert not img.complete
    with pytest.raises(WindowError):
        img.specialize_u1()


def test_xp_u2_coefficient_is_single_summand():
    M = build_root_of_unity(1)
    img = coproduct_generator(("xp", 1, 0), M, M, (-3, 4))
    want = tensor_op(M, M, ("phim", 1, -2), ("xp", 1, 2))
    assert img.coeff(2) == want


def test_per_degree_finiteness():
    for gen in [("xp", 0, -2), ("xm", 3, 1), ("phip", 2, 3),
                ("phim", 1, -3)]:
        from qtoroidal.fusion import _delta_sum_terms
        terms = _delta_sum_terms(gen, 1, 6)
        degrees = [d for d, _, _ in terms]
        assert len(degrees) == len(set(degrees))


def test_phim_image_has_negative_degrees():
    M = build_root_of_unity(1)
    img = coproduct_generator(("phim", 2, -2), M, M, (-4, 4))
    assert img.series.lo == -2
    assert img.complete
    assert img.coeff(-2) is not None


def test_window_clip_detected():
    M = build_root_of_unity(1)
    with pytest.raises(WindowError):
        coproduct_generator(("phim", 2, -3), M, M, (-1, 4))


def test_loop_modules_rejected():
    L = build_extremal_loop((-1, 1))
    R = build_root_of_unity(1)
    with pytest.raises(InputError):
        coproduct_generator(("k", 0, 1), L, R, (0, 1))


def test_relation_check_small_window():
    M = build_root_of_unity(1)
    rep = coproduct_relation_check(M, M, (-2, 2), 1, 1)
    assert rep["passed"], rep


def test_coassoc_k_trivial():
    M = build_root_of_unity(1)
    rep = twisted_coassoc_check(M, M, M, 1, 1, (-2, 2), [("k", 0, 1)])
    assert rep["passed"]


def test_coassoc_xp():
    M = build_root_of_unity(1)
    rep = twisted_coassoc_check(M, M, M, 1, 1, (-3, 3),
                                [("xp", 1, 0), ("xm", 2, 1)])
    assert rep["passed"], rep


def test_coassoc_mixed_twist():
    M = build_root_of_unity(1)
    rep = twisted_coassoc_check(M, M, M, 1, 2, (-2, 2),
                                [("xm", 0, 1), ("phip", 1, 2)])
    assert rep["passed"], rep


def test_delta_terms_truncation_bound():
    terms = delta_terms(("xp", 0, -1), 1, 3)
    assert all(d <= 3 for d, _, _ in terms)
    # the standalone summand plus one sum term per degree -1..3
    assert len([t for t in terms if t[1] == ("xp", 0, -1)]) == 1


def test_relation_check_monotone_in_window():
    # passing on a window implies passing on any subwindow
    M = build_root_of_unity(1)
    big = coproduct_relation_check(M, M, (-2, 3), 1, 1)
    small = coproduct_relation_check(M, M, (0, 2), 1, 1)
    assert big["passed"] and small["passed"]


def test_relation_check_fails_on_corrupted_table():
    # negative control: one x+ table with a flipped sign must break the
    # relations that read it, with a u-degree witness, and leave the rest
    M = ModuleRealization("rou", n=3, period=1, corrupt_xp=(1, 0))
    rep = coproduct_relation_check(M, M, (-1, 1), 1, 1)
    assert rep["passed"] is False
    fams = {f["family"]: f for f in rep["families"]}
    assert {name: f["instances"] for name, f in fams.items()} == {
        "k-cartan": 52, "h-h": 64, "k-x": 96, "h-x": 192, "xpxm": 144,
        "quadratic": 288, "serre": 504}
    for name in ("k-cartan", "h-h", "k-x", "serre"):
        assert fams[name]["passed"] and fams[name]["witness"] is None, name
    assert fams["h-x"]["witness"] == {
        "relation": "[h_{0,-1}, xxp_{1,-1}]", "u_degree": -1}
    assert fams["xpxm"]["witness"] == {
        "relation": "[x+_{1,-1}, x-_{0,-1}] vs phi", "u_degree": 0}
    assert fams["quadratic"]["witness"] == {
        "relation": "xxp_{0,-1+1} xxp_{1,-1} exchange", "u_degree": -1}
    assert not any(fams[name]["passed"]
                   for name in ("h-x", "xpxm", "quadratic"))
