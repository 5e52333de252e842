import pytest

from qtoroidal import fusion
from qtoroidal.errors import InputError, WindowError
from qtoroidal.fusion import (_check_fusable, _h_images, coproduct_generator,
                              coproduct_relation_check, delta_terms,
                              twisted_coassoc_check)
from qtoroidal.linalg import LinOp
from qtoroidal.modrep import (ModuleRealization, _relation_instances,
                              build_extremal_loop, build_root_of_unity)
from qtoroidal.scalars import TruncSeries


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


def full_window_relation_check(M1, M2, u_window, r_bound, m_bound):
    """The relation check that multiplies every series out to the padded
    build window and scales every term by its converted coefficient.
    Kept as the oracle for ``coproduct_relation_check``."""
    _check_fusable(M1, M2)
    lo_req, hi_req = u_window
    pad = 3 * r_bound + m_bound * m_bound + 4
    build_window = (lo_req - pad, hi_req + pad)
    images = {}
    prefix_cache = {}

    def image(gen):
        if gen not in images:
            if gen[0] == "h":
                images.update(_h_images(M1, M2, M1.nodes, m_bound,
                                        build_window, images))
            else:
                images[gen] = coproduct_generator(gen, M1, M2, build_window)
        return images[gen]

    tensor_one = LinOp.identity([(a, b) for a in M1.basis
                                 for b in M2.basis], M1.one())
    unit = TruncSeries("u", {0: tensor_one}, build_window[0],
                       build_window[1])

    results = []
    passed_all = True
    fam_state = {}
    for family, desc, terms in _relation_instances(M1, r_bound, m_bound):
        st = fam_state.setdefault(family, {"instances": 0, "witness": None})
        st["instances"] += 1
        if st["witness"] is not None:
            continue
        acc = None
        for coef, seq in terms:
            if not seq:
                prod = unit
            else:
                prod = None
                built = ()
                for gen in seq:
                    built += (gen,)
                    hit = prefix_cache.get(built)
                    if hit is not None:
                        prod = hit
                        continue
                    s = image(gen).series
                    prod = s if prod is None else prod * s
                    prefix_cache[built] = prod
            prod = prod.scale(M1.from_qscalar(coef))
            acc = prod if acc is None else acc + prod
        lo = max(acc.lo, lo_req)
        hi = min(acc.hi, hi_req)
        if hi < hi_req:
            raise WindowError("window too narrow for %s (have %d, need %d);"
                              " enlarge the pad" % (desc, hi, hi_req))
        bad = None
        for n in range(lo, hi + 1):
            v = acc.at(n)
            if v is not None and not v.is_zero():
                bad = {"relation": desc, "u_degree": n}
                break
        if bad is not None:
            st["witness"] = bad
    for family, st in fam_state.items():
        ok = st["witness"] is None
        passed_all = passed_all and ok
        results.append({"family": family, "instances": st["instances"],
                        "passed": ok, "witness": st["witness"]})
    return {"passed": passed_all, "u_window": list(u_window),
            "families": results}


def _corrupted(c):
    return lambda: ModuleRealization("rou", n=3, period=1, corrupt_xp=c)


@pytest.mark.parametrize("make, window, r_bound, m_bound", [
    (lambda: build_root_of_unity(1), (-w, w), r, m)
    for w in (1, 2, 3) for r, m in ((0, 0), (0, 1), (1, 1))
] + [
    (lambda: build_root_of_unity(2), (-1, 1), 0, 1),
] + [
    (_corrupted(c), (-1, 1), 1, 1) for c in ((1, 0), (0, 1), (2, -1))
] + [
    # windows off centre; at (-3, -3) many products lie wholly above it
    (lambda: build_root_of_unity(1), (-3, -3), 1, 1),
    (_corrupted((1, 0)), (-2, -1), 1, 1),
    (_corrupted((1, 0)), (2, 2), 1, 1),
], ids=["rou1-w%d-r%dm%d" % (w, r, m)
        for w in (1, 2, 3) for r, m in ((0, 0), (0, 1), (1, 1))]
   + ["rou2-w1-r0m1", "corrupt10", "corrupt01", "corrupt2m1",
      "rou1-low", "corrupt10-low", "corrupt10-high"])
def test_relation_check_matches_full_window(make, window, r_bound, m_bound):
    M = make()
    want = full_window_relation_check(M, M, window, r_bound, m_bound)
    got = coproduct_relation_check(M, M, window, r_bound, m_bound)
    assert got == want
    assert want["passed"] is (M.corrupt_xp is None)


@pytest.mark.parametrize("corrupt", [
    lambda terms, t: [x for x in terms if x != t],
    # the same summand twice: the same columns and entry positions as the
    # true side, so only a comparison of values sees it
    lambda terms, t: terms + [t],
], ids=["dropped", "doubled"])
def test_coassoc_fails_on_corrupted_summand(monkeypatch, corrupt):
    # negative control: the right side of one x+ image loses, or counts
    # twice, its u^2 summand phi-_{1,-1} (x) phi-_{1,0} (x) x+_{1,1}; that
    # generator must mismatch at u^2 and the others must still pass
    summand = (2, ("phim", 1, -1), ("phim", 1, 0), ("xp", 1, 1))
    triple_terms = fusion._triple_terms

    def corrupted(gen, s, sp, lo, hi, side):
        terms = triple_terms(gen, s, sp, lo, hi, side)
        if gen == ("xp", 1, 0) and side == "right":
            assert summand in terms
            terms = corrupt(terms, summand)
        return terms

    monkeypatch.setattr(fusion, "_triple_terms", corrupted)
    M = build_root_of_unity(1)
    rep = twisted_coassoc_check(M, M, M, 1, 1, (-3, 3),
                                [("xp", 1, 0), ("xm", 2, 1), ("xp", 0, 0)])
    assert rep["passed"] is False
    assert rep["generators"] == [
        {"generator": ["xp", 1, 0], "passed": False,
         "first_mismatch_degree": 2},
        {"generator": ["xm", 2, 1], "passed": True,
         "first_mismatch_degree": None},
        {"generator": ["xp", 0, 0], "passed": True,
         "first_mismatch_degree": None}]
