import pytest

from qtoroidal import fusion, modrep
from qtoroidal.errors import InputError, WindowError
from qtoroidal.fusion import (ONE, _check_fusable, coproduct_generator,
                              coproduct_relation_check, delta_terms,
                              twisted_coassoc_check)
from qtoroidal.linalg import LinOp, add_into
from qtoroidal.modrep import (ModuleRealization, _first_witness_walk,
                              _relation_instances, build_extremal_loop,
                              build_root_of_unity, verify_relations)
from qtoroidal.scalars import QScalar, TruncSeries
from series_oracles import series_log_coeffs


def tensor_op(M1, M2, genA, genB):
    a = M1.op(genA) if genA != ("one",) else LinOp.identity(M1.basis,
                                                            M1.one())
    b = M2.op(genB) if genB != ("one",) else LinOp.identity(M2.basis,
                                                            M2.one())
    return a.tensor(b)


def test_k_image_is_group_like():
    M = build_root_of_unity(1)
    img = coproduct_generator(("k", 2, 1), M, M, (-2, 3))
    assert (img.lo, img.hi) == (0, 3)
    assert img.coeffs == {0: tensor_op(M, M, ("k", 2, 1), ("k", 2, 1))}


def test_h_image_is_primitive():
    M = build_root_of_unity(1)
    # (h_{0,2} and h_{0,-2} act as zero on this module)
    for m in (-3, 1):
        img = coproduct_generator(("h", 0, m), M, M, (-3, 3))
        assert (img.lo, img.hi) == (min(0, m), 3)
        assert img.coeffs == {0: tensor_op(M, M, ("h", 0, m), ("one",)),
                              m: tensor_op(M, M, ("one",), ("h", 0, m))}


def test_xp_u0_coefficient():
    M = build_root_of_unity(1)
    img = coproduct_generator(("xp", 1, 0), M, M, (-3, 4))
    want = (tensor_op(M, M, ("xp", 1, 0), ("one",))
            + tensor_op(M, M, ("phim", 1, 0), ("xp", 1, 0)))
    assert img.at(0) == want
    # the defining sum runs on past the window top: reading there is an
    # error, not a silent zero
    with pytest.raises(WindowError):
        img.at(5)


def test_xp_u2_coefficient_is_single_summand():
    M = build_root_of_unity(1)
    img = coproduct_generator(("xp", 1, 0), M, M, (-3, 4))
    want = tensor_op(M, M, ("phim", 1, -2), ("xp", 1, 2))
    assert img.at(2) == want


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
    assert img.lo == -2
    assert img.at(-2) is not None


def test_window_clip_detected():
    M = build_root_of_unity(1)
    with pytest.raises(WindowError):
        coproduct_generator(("phim", 2, -3), M, M, (-1, 4))


def test_window_below_the_image_claims_all_it_knows():
    # the image of x+_{0,-1} starts at u^-1, so it is zero up to u^-4: the
    # empty image is known from -4 down, and a product of two such images
    # is known to -8
    M = build_root_of_unity(1)
    img = coproduct_generator(("xp", 0, -1), M, M, (-20, -4))
    assert repr(img) == "Series[-4..-4]{}"
    prod = fusion._series_product(img, img, 0)
    assert (prod.lo, prod.hi, prod.coeffs) == (-8, -8, {})


def test_loop_modules_rejected():
    L = build_extremal_loop((-1, 1))
    R = build_root_of_unity(1)
    with pytest.raises(InputError):
        coproduct_generator(("k", 0, 1), L, R, (0, 1))


def test_relation_check_small_window():
    M = build_root_of_unity(1)
    rep = coproduct_relation_check(M, M, (-2, 2), 1, 1)
    assert rep["passed"], rep


@pytest.mark.parametrize("window", [(1, -1), (3, 2)])
def test_empty_u_window_is_an_input_error(window):
    M = build_root_of_unity(1)
    with pytest.raises(InputError, match="empty u-window"):
        coproduct_relation_check(M, M, window, 1, 1)
    with pytest.raises(InputError, match="empty u-window"):
        twisted_coassoc_check(M, M, M, 1, 1, window, [("k", 0, 1)])
    with pytest.raises(InputError, match="empty u-window"):
        coproduct_generator(("xp", 1, 0), M, M, window)


def test_coassoc_without_generators_is_an_input_error():
    # a check over no generators has checked nothing, so it must not pass
    M = build_root_of_unity(1)
    with pytest.raises(InputError, match="no generators"):
        twisted_coassoc_check(M, M, M, 1, 1, (-2, 2), [])


def test_h_index_zero_is_an_input_error():
    # h_{i,0} is no generator, also where every summand of its expansion
    # would cancel without forming an operator
    M = build_root_of_unity(1)
    with pytest.raises(InputError, match="h index must be nonzero"):
        twisted_coassoc_check(M, M, M, 1, 1, (-2, 2), [("h", 0, 0)])
    with pytest.raises(InputError, match="h index must be nonzero"):
        coproduct_generator(("h", 0, 0), M, M, (-2, 2))


def test_phi_index_of_the_wrong_sign_is_an_input_error():
    # phi+_{i,m} has m >= 0 and phi-_{i,m} has m <= 0: the formula has no
    # summand for the wrong sign, so it rejects the generator itself
    M = build_root_of_unity(1)
    for gen, msg in ((("phip", 0, -1), "phip index must be >= 0"),
                     (("phim", 2, 1), "phim index must be <= 0")):
        with pytest.raises(InputError, match=msg):
            twisted_coassoc_check(M, M, M, 1, 1, (-2, 2), [gen])
        with pytest.raises(InputError, match=msg):
            coproduct_generator(gen, M, M, (-2, 2))


def test_generator_off_the_cycle_is_an_input_error():
    # a check whose triples all cancel builds no operator, yet a node off
    # the cycle is still rejected, also after a generator that passes
    M = build_root_of_unity(1)
    for gen in (("xp", 7, 0), ("k", 9, 1), ("phim", -1, 0)):
        with pytest.raises(InputError, match="node %d is not one of"
                           % gen[1]):
            twisted_coassoc_check(M, M, M, 1, 1, (-2, 2),
                                  [("k", 0, 1), gen])
        with pytest.raises(InputError, match="node %d is not one of"
                           % gen[1]):
            coproduct_generator(gen, M, M, (-2, 2))
    assert twisted_coassoc_check(M, M, M, 1, 1, (-2, 2), [ONE])["passed"]


def test_negative_relation_bound_is_an_input_error():
    M = build_root_of_unity(1)
    for r_bound, m_bound in ((-1, 1), (1, -1), (-1, -1)):
        with pytest.raises(InputError, match="bounds must be >= 0"):
            coproduct_relation_check(M, M, (-1, 1), r_bound, m_bound)


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


def rotated(gen, k):
    """gen with its node moved k steps round the 4-cycle."""
    return gen if gen == ONE else (gen[0], (gen[1] + k) % 4, gen[2])


def degree(gen):
    return 0 if gen[0] in ("k", "one") else gen[2]


ROTATION_GENS = ([(name, i, r) for name in ("xp", "xm") for i in range(4)
                  for r in (-2, 0, 1)]
                 + [("phip", i, m) for i in range(4) for m in (0, 1, 2)]
                 + [("phim", i, m) for i in range(4) for m in (0, -1, -2)]
                 + [("k", i, e) for i in range(4) for e in (1, -1)]
                 + [("h", i, m) for i in range(4) for m in (-2, -1, 1, 2)]
                 + [ONE])


@pytest.mark.parametrize("twist", [1, 2])
def test_delta_terms_commute_with_the_rotation(twist):
    # rotating the generator rotates both factors of every summand and
    # keeps its u-degree; the factors' degrees add up to the generator's
    for gen in ROTATION_GENS:
        for hi in (-3, 0, 2, 5):
            terms = delta_terms(gen, twist, hi)
            for d, a, b in terms:
                assert degree(a) + degree(b) == degree(gen), (gen, a, b)
            for k in range(1, 4):
                assert delta_terms(rotated(gen, k), twist, hi) == [
                    (d, rotated(a, k), rotated(b, k)) for d, a, b in terms]


def doubled_xp(L):
    """The period-L quotient with every x+ table doubled: the rotation
    still intertwines each generator up to q^deg, but [x+, x-] is off by
    a factor 2."""
    class DoubledXp(ModuleRealization):
        def image(self, gen, label):
            img = super().image(gen, label)
            if gen[0] == "xp" and img is not None:
                img = img[0], img[1] * 2
            return img
    return DoubledXp("rou", period=L)


@pytest.mark.parametrize("left, window, r_bound, m_bound", [
    (True, (-1, 1), 1, 1), (False, (-1, 1), 1, 1), (True, (-2, 2), 0, 1)],
    ids=["both-w1-r1m1", "right-w1-r1m1", "both-w2-r0m1"])
def test_relation_check_on_a_symmetric_but_wrong_quotient(left, window,
                                                           r_bound, m_bound):
    # the doubled tables commute with the rotation, so only the relations
    # themselves can catch them: the report must be the composed check's
    right = doubled_xp(1)
    M = doubled_xp(1) if left else build_root_of_unity(1)
    want = composed_relation_check(M, right, window, r_bound, m_bound)
    assert not want["passed"]
    assert coproduct_relation_check(M, right, window, r_bound,
                                    m_bound) == want


@pytest.mark.parametrize("L", [1, 2])
def test_failing_quotient_is_walked_once(monkeypatch, L):
    # a representative's witness is the full walk's, so neither check
    # walks a symmetric but wrong quotient twice: each checks at most the
    # instances whose outermost node is 0
    M = doubled_xp(L)
    reps = len(list(_relation_instances(M, 1, 1, (0,))))
    runs = ((modrep, lambda: verify_relations(M, 1, 1).to_json()),
            (fusion, lambda: coproduct_relation_check(M, M, (-1, 1), 1, 1)))
    for module, run in runs:
        calls = []
        walk = module._first_witness_walk

        def spy(M, r_bound, m_bound, check, rotates=None):
            def counted(desc, terms, fam):
                calls.append(desc)
                return check(desc, terms, fam)
            return walk(M, r_bound, m_bound, counted, rotates)
        monkeypatch.setattr(module, "_first_witness_walk", spy)
        assert not run()["passed"]
        assert 0 < len(calls) <= reps, module.__name__


def test_relation_check_rotates_images_on_their_windows(monkeypatch):
    # the rotation test the check hands to the walk compares whole images:
    # a flipped x+_{1,0} table, or one image cut short, breaks it there
    handed = []
    walk = fusion._first_witness_walk

    def spy(M, r_bound, m_bound, check, rotates=None):
        handed.append(rotates)
        return walk(M, r_bound, m_bound, check, rotates)
    monkeypatch.setattr(fusion, "_first_witness_walk", spy)
    M = build_root_of_unity(1)
    coproduct_relation_check(M, M, (-1, 1), 1, 1)
    gens = [("xp", 0, -1), ("xm", 3, 1), ("phip", 2, 1), ("phim", 1, -2),
            ("h", 0, -1), ("k", 3, -1)]
    assert all(handed[-1](rotated(g, k)) for g in gens for k in range(4))
    C = ModuleRealization("rou", period=1, corrupt_xp=(1, 0))
    coproduct_relation_check(C, C, (-1, 1), 1, 1)
    assert [handed[-1](("xp", i, 0)) for i in range(4)] == [
        False, False, True, True]
    monkeypatch.setattr(fusion, "coproduct_generator",
                        _narrowing(("xm", 2, 0), 6))
    with pytest.raises(WindowError):
        coproduct_relation_check(M, M, (-1, 1), 0, 1)
    assert [handed[-1](("xm", i, 0)) for i in range(4)] == [
        True, False, False, True]


@pytest.mark.parametrize("window", [(-12, -12), (-30, -20), (12, 13)])
def test_window_far_from_u0_passes_on_every_instance(window):
    # no product and not the unit reach a window more than the pad away
    # from u^0, so every relation holds there; the report names the same
    # families and instances as one around u^0
    M = build_root_of_unity(1)
    rep = coproduct_relation_check(M, M, window, 1, 1)
    near = coproduct_relation_check(M, M, (-1, 1), 1, 1)
    assert rep["passed"] and near["passed"]
    assert rep["u_window"] == list(window)
    assert ([(f["family"], f["instances"]) for f in rep["families"]]
            == [(f["family"], f["instances"]) for f in near["families"]])


def test_relation_check_monotone_in_window():
    # passing on a window implies passing on any subwindow
    M = build_root_of_unity(1)
    big = coproduct_relation_check(M, M, (-2, 3), 1, 1)
    small = coproduct_relation_check(M, M, (0, 2), 1, 1)
    assert big["passed"] and small["passed"]


def test_relation_check_fails_on_corrupted_table():
    # negative control: one x+ table with a flipped sign must break the
    # relations that read it, with a u-degree witness, and leave the rest
    M = ModuleRealization("rou", period=1, corrupt_xp=(1, 0))
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


def diagonal_inverse(op):
    """Inverse of a diagonal operator."""
    cols = {}
    for src, col in op.cols.items():
        assert list(col) == [src], "only diagonal operators are inverted"
        cols[src] = {src: col[src].inverse()}
    return LinOp(cols)


class PhiZeroSeries(TruncSeries):
    """The u-series of Delta(phi_{i,0}) as the constant term of a z-series,
    with the truncated inverse that ``series_log_coeffs`` asks of it."""

    __slots__ = ()

    def inverse(self):
        c0 = self.at(self.lo)
        inv0 = diagonal_inverse(c0)
        width = self.hi - self.lo
        g = self.shift(-self.lo).scale(inv0)
        one = g.at(0)
        neg_u = TruncSeries(self.var, {0: one}, 0, width) - g
        acc = TruncSeries(self.var, {0: one}, 0, width)
        term = TruncSeries(self.var, {0: one}, 0, width)
        for _ in range(width):
            term = TruncSeries(self.var, (term * neg_u).coeffs, 0, width)
            if term.is_zero():
                break
            acc = acc + term
        return acc.scale(inv0).shift(-self.lo)


def log_h_images(M1, M2, nodes, m_bound, u_window):
    """h images derived from the phi images by the exact logarithm of the
    z-series phi(z) whose coefficients are u-series of operators.  Kept as
    the oracle for the closed-form h images."""
    lo, hi = u_window
    qq_inv = M1.from_qscalar(QScalar({1: 1, -1: -1})).inverse()
    out = {}
    for i in nodes:
        for sign in (1, -1):
            zc = {}
            for m in range(m_bound + 1):
                gen = ("phip", i, m) if sign > 0 else ("phim", i, -m)
                series = coproduct_generator(gen, M1, M2, u_window)
                if m == 0:
                    series = PhiZeroSeries("u", series.coeffs, series.lo,
                                           series.hi)
                if not series.is_zero():
                    zc[m] = series
            f = TruncSeries("z" if sign > 0 else "w", zc, 0, m_bound)
            cs = series_log_coeffs(f, m_bound)
            for m in range(1, m_bound + 1):
                c = cs[m - 1]
                if c is None:
                    series = TruncSeries("u", {}, lo, hi)
                else:
                    series = c.scale(qq_inv)
                    if sign < 0:
                        series = -series
                out[("h", i, sign * m)] = series
    return out


def _corrupted(c):
    return lambda: ModuleRealization("rou", period=1, corrupt_xp=c)


H_IMAGE_MODULES = [(lambda: build_root_of_unity(1), "rou1"),
                   (lambda: build_root_of_unity(2), "rou2")] + [
    (_corrupted(c), "corrupt%d%d" % c) for c in ((1, 0), (0, 1), (2, -1))]


def h_images_agree(M, m_bound):
    """Whether the library's h images equal the logarithm oracle's on
    every degree both windows hold; that common window must hold every
    term of the image."""
    pad = m_bound * m_bound + 4
    window = (-pad, pad)
    want = log_h_images(M, M, M.nodes, m_bound, window)
    for (_, i, m), oracle in want.items():
        got = coproduct_generator(("h", i, m), M, M, window)
        lo, hi = max(got.lo, oracle.lo), min(got.hi, oracle.hi)
        assert lo <= min(0, m) and max(0, m) <= hi, (i, m, lo, hi)
        if any(got.at(n) != oracle.at(n) for n in range(lo, hi + 1)):
            return False
    return True


@pytest.mark.parametrize("make, m_bound", [
    (make, m) for make, _ in H_IMAGE_MODULES for m in (1, 2, 3)],
    ids=["%s-m%d" % (name, m) for _, name in H_IMAGE_MODULES
         for m in (1, 2, 3)])
def test_h_images_match_log_oracle(make, m_bound):
    assert h_images_agree(make(), m_bound)


def full_window_relation_check(M1, M2, u_window, r_bound, m_bound):
    """The relation check that multiplies every series out to the padded
    build window and scales every term by its coefficient.
    Kept as the oracle for ``coproduct_relation_check``."""
    _check_fusable(M1, M2)
    lo_req, hi_req = u_window
    pad = 3 * r_bound + m_bound * m_bound + 4
    # padded from u^0 when the window lies wholly on one side of it
    build_window = (min(lo_req, 0) - pad, max(hi_req, 0) + pad)
    images = {}
    prefix_cache = {}

    def image(gen):
        if gen not in images:
            if gen[0] == "h":
                images.update(log_h_images(M1, M2, M1.nodes, m_bound,
                                           build_window))
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
                    s = image(gen)
                    prod = s if prod is None else prod * s
                    prefix_cache[built] = prod
            prod = prod.scale(coef)
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


def capped_series_mul(f, g, top):
    """f * g known up to ``top``, or as far as the factors' windows allow
    when that is lower; degrees above ``top`` are never formed."""
    lo = f.lo + g.lo
    hi = min(f.hi + g.lo, g.hi + f.lo, top)
    c = {}
    for e1, v1 in f.coeffs.items():
        for e2, v2 in g.coeffs.items():
            e = e1 + e2
            if e > hi:
                continue
            prev = c.get(e)
            c[e] = v1 * v2 if prev is None else prev + v1 * v2
    return TruncSeries(f.var, c, lo, hi)


def composed_relation_check(M1, M2, u_window, r_bound, m_bound):
    """The relation check that builds a new ``LinOp`` for every
    composition, sum and scaling: capped series products, ``LinOp``
    addition and scaling, and series sums over the whole product window.
    Kept as the oracle for the in-place accumulation of
    ``coproduct_relation_check``."""
    _check_fusable(M1, M2)
    lo_req, hi_req = fusion._u_window(u_window)
    pad = 3 * r_bound + m_bound + 4
    # padded from u^0 when the window lies wholly on one side of it
    build_window = (min(lo_req, 0) - pad, max(hi_req, 0) + pad)
    images = {}
    prefix_cache = {}

    def image(gen):
        if gen not in images:
            images[gen] = fusion.coproduct_generator(gen, M1, M2,
                                                     build_window)
        return images[gen]

    def product(seq):
        factors = [image(gen) for gen in seq]
        top = max(hi_req, sum(f.lo for f in factors))
        tops = []
        for f in reversed(factors):
            tops.append(top)
            top -= f.lo
        tops.reverse()
        prod = None
        built = ()
        for gen, f, top in zip(seq, factors, tops):
            built += (gen,)
            hit = prefix_cache.get(built)
            if hit is not None and hit.hi >= top:
                prod = hit
                continue
            prod = f if prod is None else capped_series_mul(prod, f, top)
            prefix_cache[built] = prod
        return prod

    one = M1.one()
    neg_one = -one
    tensor_one = LinOp.identity([(a, b) for a in M1.basis
                                 for b in M2.basis], one)
    unit = TruncSeries("u", {0: tensor_one}, build_window[0],
                       build_window[1])

    def check(desc, terms, fam):
        acc = None
        for coef, seq in terms:
            prod = product(seq) if seq else unit
            if coef != one:
                prod = -prod if coef == neg_one else prod.scale(coef)
            acc = prod if acc is None else acc + prod
        lo = max(acc.lo, lo_req)
        hi = min(acc.hi, hi_req)
        if hi < hi_req:
            raise WindowError("window too narrow for %s (have %d, need %d);"
                              " enlarge the pad" % (desc, hi, hi_req))
        for n in range(lo, hi + 1):
            if acc.at(n):
                return {"relation": desc, "u_degree": n}
        return None

    fams = _first_witness_walk(M1, r_bound, m_bound, check)
    results = [{"family": family, "instances": fam["instances"],
                "passed": fam["witness"] is None, "witness": fam["witness"]}
               for family, fam in fams.items()]
    return {"passed": all(f["passed"] for f in results),
            "u_window": list(u_window), "families": results}


def _dropping_phi_summand(delta_sum_terms):
    """``_delta_sum_terms`` with Delta(phi+_{i,1}) missing its u^1 summand
    phi+_{i,0} (x) phi+_{i,1}; any further arguments pass through."""
    def dropped(gen, twist, hi, *rest):
        terms = delta_sum_terms(gen, twist, hi, *rest)
        if gen[0] == "phip" and gen[2] == 1:
            summand = (twist, ("phip", gen[1], 0), ("phip", gen[1], 1))
            assert summand in terms
            terms = [t for t in terms if t != summand]
        return terms
    return dropped


def test_h_images_and_relations_fail_on_dropped_phi_summand(monkeypatch):
    # negative control for Delta(phi): Delta(phi+_{i,1}) loses its u^1
    # summand phi+_{i,0} (x) phi+_{i,1}.  The h images no longer come from
    # the phi images, so the logarithm oracle must disagree with them, and
    # the relation check must still see the broken phi image in xpxm
    monkeypatch.setattr(fusion, "_delta_sum_terms",
                        _dropping_phi_summand(fusion._delta_sum_terms))
    M = build_root_of_unity(1)
    assert not h_images_agree(M, 1)
    rep = coproduct_relation_check(M, M, (-1, 1), 1, 1)
    assert rep["passed"] is False
    fams = {f["family"]: f for f in rep["families"]}
    assert fams["xpxm"]["witness"] == {
        "relation": "[x+_{0,0}, x-_{0,1}] vs phi", "u_degree": 1}


def test_coassoc_fails_on_dropped_phi_summand(monkeypatch):
    # the same broken Delta(phi+_{i,1}) must reach the coassociativity
    # check: the x- and phi+ generators whose two-level expansions pass
    # through phi+_{i,1} mismatch at u^2, while x+ reads only phi-
    monkeypatch.setattr(fusion, "_delta_sum_terms",
                        _dropping_phi_summand(fusion._delta_sum_terms))
    M = build_root_of_unity(1)
    rep = twisted_coassoc_check(M, M, M, 1, 1, (-3, 3),
                                [("xm", 2, 1), ("phip", 1, 2), ("xp", 1, 0)])
    assert rep["passed"] is False
    assert rep["generators"] == [
        {"generator": ["xm", 2, 1], "passed": False,
         "first_mismatch_degree": 2},
        {"generator": ["phip", 1, 2], "passed": False,
         "first_mismatch_degree": 2},
        {"generator": ["xp", 1, 0], "passed": True,
         "first_mismatch_degree": None}]


RELATION_CASES = [
    (lambda: build_root_of_unity(1), (-w, w), r, m)
    for w in (1, 2, 3) for r, m in ((0, 0), (0, 1), (1, 1))
] + [
    (lambda: build_root_of_unity(2), (-1, 1), 0, 1),
] + [
    (_corrupted(c), (-1, 1), 1, 1) for c in ((1, 0), (0, 1), (2, -1))
] + [
    # windows off centre; at (-3, -3) many products lie wholly above it
    (lambda: build_root_of_unity(1), (-3, -3), 1, 1),
    # more than the pad below u^0 and above it: no term reaches the window
    (lambda: build_root_of_unity(1), (-12, -12), 1, 1),
    (lambda: build_root_of_unity(1), (12, 13), 0, 1),
    (_corrupted((1, 0)), (-2, -1), 1, 1),
    (_corrupted((1, 0)), (2, 2), 1, 1),
    # m_bound above 1
    (lambda: build_root_of_unity(1), (-1, 1), 0, 2),
    (lambda: build_root_of_unity(1), (-1, 1), 0, 3),
    (lambda: build_root_of_unity(1), (-2, 2), 1, 2),
    (_corrupted((1, 0)), (-1, 1), 1, 2),
]
RELATION_IDS = (["rou1-w%d-r%dm%d" % (w, r, m)
                 for w in (1, 2, 3) for r, m in ((0, 0), (0, 1), (1, 1))]
                + ["rou2-w1-r0m1", "corrupt10", "corrupt01", "corrupt2m1",
                   "rou1-low", "rou1-far-low", "rou1-far-high",
                   "corrupt10-low", "corrupt10-high",
                   "rou1-w1-r0m2", "rou1-w1-r0m3", "rou1-w2-r1m2",
                   "corrupt10-r1m2"])


@pytest.mark.parametrize("make, window, r_bound, m_bound", RELATION_CASES,
                         ids=RELATION_IDS)
def test_relation_check_matches_full_window(make, window, r_bound, m_bound):
    M = make()
    want = full_window_relation_check(M, M, window, r_bound, m_bound)
    got = coproduct_relation_check(M, M, window, r_bound, m_bound)
    assert got == want
    assert want["passed"] is (M.corrupt_xp is None)


@pytest.mark.parametrize("make, window, r_bound, m_bound", RELATION_CASES,
                         ids=RELATION_IDS)
def test_relation_check_matches_composed_check(make, window, r_bound,
                                               m_bound):
    M = make()
    want = composed_relation_check(M, M, window, r_bound, m_bound)
    assert coproduct_relation_check(M, M, window, r_bound, m_bound) == want


def _narrowing(target, cut):
    """``coproduct_generator`` with the image of ``target`` known only up
    to ``cut`` below the top of the window it is built on."""
    generator = fusion.coproduct_generator

    def narrowed(gen, M1, M2, u_window):
        img = generator(gen, M1, M2, u_window)
        if gen != target:
            return img
        hi = img.hi - cut
        return TruncSeries("u", {d: v for d, v in img.coeffs.items()
                                 if d <= hi}, img.lo, hi)
    return narrowed


@pytest.mark.parametrize("target, cut", [
    (("xp", 0, -1), 6), (("xp", 0, -1), 5), (("xm", 2, 0), 6),
    (("k", 1, -1), 6), (("phip", 3, 0), 6), (("h", 1, 1), 6),
    (("h", 2, -1), 7)])
def test_relation_check_window_error_matches_composed_check(
        monkeypatch, target, cut):
    # images known to a top too low for the window: the check must raise
    # the same WindowError as the composed check, on the same instance,
    # also where the narrow image is a term with a zero coefficient
    monkeypatch.setattr(fusion, "coproduct_generator",
                        _narrowing(target, cut))
    M = build_root_of_unity(1)
    outcomes = []
    for check in (composed_relation_check, coproduct_relation_check):
        try:
            outcomes.append(check(M, M, (-1, 1), 0, 1))
        except WindowError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]
    if (target, cut) == (("xp", 0, -1), 6):
        # the first instance reading x+_{0,-1} does so in its third term,
        # whose coefficient [-2]_q / -1 vanishes at q = i
        assert outcomes[1] == ("window too narrow for [h_{0,-1}, xxp_{0,0}]"
                               " (have 0, need 1); enlarge the pad")


def test_cancelling_terms_leave_clean_operators():
    # terms that cancel, within a product's degree or across a relation's
    # terms, leave no zero entry and no empty column behind
    M = build_root_of_unity(1)
    a = M.op(("xp", 1, 0)).tensor(M.op(("k", 2, 1)))
    b = M.op(("xm", 1, 0)).tensor(M.op(("phip", 1, 1)))
    assert a * b
    f = TruncSeries("u", {0: a, 1: -a}, 0, 3)
    g = TruncSeries("u", {0: b, 1: b}, 0, 3)
    # degree 1 is a o b - a o b
    prod = fusion._series_product(f, g, 3)
    assert sorted(prod.coeffs) == [0, 2]
    assert prod.at(0) == a * b and prod.at(2) == -(a * b)
    for op in prod.coeffs.values():
        assert all(op.cols.values())
        assert all(v for col in op.cols.values() for v in col.values())
    cols = {}
    add_into(cols, a, b)
    add_into(cols, prod.at(0), c=-1)
    assert cols and not LinOp.of_cols(cols).cols
    # a partial cancellation keeps only the surviving columns
    c = M.op(("k", 0, 1)).tensor(M.op(("k", 0, 1)))
    add_into(cols, c)
    add_into(cols, a)
    add_into(cols, a, c=-1)
    assert LinOp.of_cols(cols).cols == c.cols


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


def two_sided_coassoc_check(M1, M2, M3, s, s_prime, u_window, gens):
    """Twisted coassociativity compared side by side: each side's triples
    from ``fusion._triple_terms`` are tensored and summed per u-degree,
    and the two operator sums are compared degree by degree.  Kept as the
    oracle for ``twisted_coassoc_check``."""
    lo, hi = u_window
    triples = {}

    def op3(ga, gb, gc):
        key = (ga, gb, gc)
        if key not in triples:
            triples[key] = (M1.op(ga).tensor(M2.op(gb)).tensor(M3.op(gc)))
        return triples[key]

    report = []
    for gen in gens:
        sides = []
        for side in ("left", "right"):
            acc = {}
            for d, a, b, c in fusion._triple_terms(gen, s, s_prime, lo, hi,
                                                   side):
                op = op3(a, b, c)
                if op:
                    acc[d] = acc[d] + op if d in acc else op
            sides.append(acc)
        left, right = sides
        zero = LinOp.zero()
        mismatch = next((d for d in sorted(set(left) | set(right))
                         if left.get(d, zero) != right.get(d, zero)), None)
        report.append({"generator": list(gen), "passed": mismatch is None,
                       "first_mismatch_degree": mismatch})
    return {"passed": all(g["passed"] for g in report),
            "twists": [s, s_prime], "u_window": list(u_window),
            "generators": report}


# every generator the coassociativity tests read, each kind with both
# signs of its index where it has one
COASSOC_GENS = [("xp", 1, 0), ("xp", 0, -1), ("xp", 0, 0), ("xm", 2, 1),
                ("xm", 0, -1), ("k", 0, 1), ("k", 2, -1), ("phip", 1, 2),
                ("phim", 3, -1), ("h", 1, 1), ("h", 2, -2), ONE]

# the summand the corrupted-summand tests drop or double on the right side
# of Delta(x+_{1,0}), at degree s + s'
CORRUPTED_TRIPLE = (("phim", 1, -1), ("phim", 1, 0), ("xp", 1, 1))


def _corrupting_right_summand(triple_terms, corrupt):
    """``_triple_terms`` with ``corrupt`` applied to the right side of
    Delta(x+_{1,0}) wherever it holds ``CORRUPTED_TRIPLE``."""
    def corrupted(gen, s, sp, lo, hi, side):
        terms = triple_terms(gen, s, sp, lo, hi, side)
        if gen == ("xp", 1, 0) and side == "right":
            for t in terms:
                if t[1:] == CORRUPTED_TRIPLE:
                    return corrupt(terms, t)
        return terms
    return corrupted


COASSOC_CORRUPTIONS = {
    "none": None,
    "dropped": ("_triple_terms", lambda f: _corrupting_right_summand(
        f, lambda terms, t: [x for x in terms if x != t])),
    "doubled": ("_triple_terms", lambda f: _corrupting_right_summand(
        f, lambda terms, t: terms + [t])),
    # three times on the right: a residual multiplicity of -2
    "tripled": ("_triple_terms", lambda f: _corrupting_right_summand(
        f, lambda terms, t: terms + [t, t])),
    "dropped-phi": ("_delta_sum_terms", _dropping_phi_summand),
}


@pytest.mark.parametrize("corruption", list(COASSOC_CORRUPTIONS))
@pytest.mark.parametrize("L", [1, 2])
def test_coassoc_matches_two_sided_oracle(monkeypatch, L, corruption):
    # the full report, verdicts and first mismatch degrees, equals the
    # side-by-side comparison on every twist and window, with the true
    # coproduct and with each corrupted expansion
    patch = COASSOC_CORRUPTIONS[corruption]
    if patch is not None:
        name, wrap = patch
        monkeypatch.setattr(fusion, name, wrap(getattr(fusion, name)))
    M = build_root_of_unity(L)
    failed = 0
    for s, sp in ((1, 1), (1, 2), (2, 1)):
        for w in (1, 2, 3):
            args = (M, M, M, s, sp, (-w, w), COASSOC_GENS)
            want = two_sided_coassoc_check(*args)
            assert twisted_coassoc_check(*args) == want, (s, sp, w)
            failed += not want["passed"]
    # each corruption is seen on some window, and nothing fails without one
    assert (failed > 0) == (patch is not None)


def count_tensors(monkeypatch):
    """A list whose one entry counts the ``LinOp.tensor`` calls from now
    until the end of the test."""
    calls = [0]
    tensor = LinOp.tensor

    def counted(self, other):
        calls[0] += 1
        return tensor(self, other)

    monkeypatch.setattr(LinOp, "tensor", counted)
    return calls


def test_coassoc_tensors_nothing_when_the_sides_share_every_triple(
        monkeypatch):
    # criterion 8's coassociativity calls: every triple of one side is a
    # triple of the other, so no operator is formed
    M = build_root_of_unity(1)
    gens = [("xp", 1, 0), ("xm", 2, 1), ("k", 0, 1), ("phip", 1, 2),
            ("phim", 3, -1)]
    tensors = count_tensors(monkeypatch)
    for s, sp in ((1, 1), (1, 2)):
        assert twisted_coassoc_check(M, M, M, s, sp, (-3, 3), gens)["passed"]
    assert tensors == [0]


@pytest.mark.parametrize("sub, passed", [
    (("phip", 0, 0), True), (("phip", 0, 1), False), (("k", 1, 1), False)])
def test_coassoc_residual_that_cancels_only_as_operators(monkeypatch, sub,
                                                         passed):
    # the right side of Delta(k_0) written with ``sub`` for k_0: on the
    # L = 1 quotient phi+_{0,0} = k_0, so its triple cancels the left one
    # only as an operator, through the residual; phi+_{0,1} or k_1 leave a
    # nonzero residual at u^0
    k0 = ("k", 0, 1)
    M = build_root_of_unity(1)
    assert (M.op(sub) == M.op(k0)) == passed
    triple_terms = fusion._triple_terms

    def substituted(gen, s, sp, lo, hi, side):
        terms = triple_terms(gen, s, sp, lo, hi, side)
        if gen == k0 and side == "right":
            assert terms == [(0, k0, k0, k0)]
            terms = [(0, sub, sub, sub)]
        return terms

    monkeypatch.setattr(fusion, "_triple_terms", substituted)
    tensors = count_tensors(monkeypatch)
    rep = twisted_coassoc_check(M, M, M, 1, 1, (-2, 2), [k0])
    assert rep["passed"] is passed
    assert rep["generators"] == [
        {"generator": list(k0), "passed": passed,
         "first_mismatch_degree": None if passed else 0}]
    # two residual triples, each two tensor products
    assert tensors == [4]


def grid_triple_terms(gen, s, sp, lo, hi, side):
    """The two-level expansion enumerated on a cap-by-cap index grid and
    filtered to the window.  Kept as the oracle for ``_triple_terms``."""
    name = gen[0]
    out = []
    if name in ("k", "one"):
        a = gen if name == "k" else ONE
        return [(0, a, a, a)] if lo <= 0 <= hi else []
    cap = abs(hi) + abs(lo) + (abs(gen[2]) + 2) * (s + sp + 2) + 8
    if name == "phip":
        _, i, m = gen
        for b in range(m + 1):
            a = m - b
            if side == "left":
                for d2 in range(b + 1):
                    deg = s * b + sp * d2
                    out.append((deg, ("phip", i, a), ("phip", i, b - d2),
                                ("phip", i, d2)))
            else:
                for e in range(a + 1):
                    deg = (s + sp) * b + s * e
                    out.append((deg, ("phip", i, a - e), ("phip", i, e),
                                ("phip", i, b)))
    elif name == "phim":
        _, i, m = gen
        mm = -m
        for b in range(mm + 1):
            a = mm - b
            if side == "left":
                for d2 in range(b + 1):
                    deg = -s * b - sp * d2
                    out.append((deg, ("phim", i, -a),
                                ("phim", i, -(b - d2)), ("phim", i, -d2)))
            else:
                for e in range(a + 1):
                    deg = -(s + sp) * b - s * e
                    out.append((deg, ("phim", i, -(a - e)), ("phim", i, -e),
                                ("phim", i, -b)))
    elif name == "xp":
        _, i, r = gen
        out.append((0, ("xp", i, r), ONE, ONE))
        for l in range(cap):
            out.append((s * (r + l), ("phim", i, -l), ("xp", i, r + l),
                        ONE))
        if side == "left":
            for l in range(cap):
                for lp in range(cap):
                    deg = s * (r + l) + sp * (r + l + lp)
                    out.append((deg, ("phim", i, -l), ("phim", i, -lp),
                                ("xp", i, r + l + lp)))
        else:
            for L in range(cap):
                for lpp in range(L + 1):
                    deg = (s + sp) * (r + L) - s * lpp
                    out.append((deg, ("phim", i, -(L - lpp)),
                                ("phim", i, -lpp), ("xp", i, r + L)))
    elif name == "xm":
        _, i, r = gen
        if side == "left":
            out.append(((s + sp) * r, ONE, ONE, ("xm", i, r)))
            for lp in range(cap):
                out.append((s * r + sp * lp, ONE, ("xm", i, r - lp),
                            ("phip", i, lp)))
            for l in range(cap):
                for d in range(l + 1):
                    deg = s * l + sp * d
                    out.append((deg, ("xm", i, r - l), ("phip", i, l - d),
                                ("phip", i, d)))
        else:
            out.append(((s + sp) * r, ONE, ONE, ("xm", i, r)))
            for l in range(cap):
                out.append(((s + sp) * l + s * (r - l), ONE,
                            ("xm", i, r - l), ("phip", i, l)))
            for l in range(cap):
                for e in range(cap):
                    deg = (s + sp) * l + s * e
                    out.append((deg, ("xm", i, r - l - e), ("phip", i, e),
                                ("phip", i, l)))
    return [(d, a, b, c) for (d, a, b, c) in out if lo <= d <= hi]


TWISTS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 1))
WINDOWS = ((-3, 3), (-2, 2), (0, 0), (-1, 4), (-5, -1), (2, 6))


@pytest.mark.parametrize("name", ["xp", "xm", "phip", "phim", "k", "one"])
def test_triple_terms_match_grid(name):
    indices = {"xp": range(-3, 4), "xm": range(-3, 4), "phip": range(4),
               "phim": range(-3, 1), "k": (-1, 1), "one": (None,)}[name]
    cases = 0
    for r in indices:
        gen = (name, 1, r) if name != "one" else ONE
        for s, sp in TWISTS:
            for lo, hi in WINDOWS:
                for side in ("left", "right"):
                    got = fusion._triple_terms(gen, s, sp, lo, hi, side)
                    want = grid_triple_terms(gen, s, sp, lo, hi, side)
                    assert sorted(got) == sorted(want), (gen, s, sp, lo,
                                                         hi, side)
                    cases += 1
    assert cases == len(indices) * len(TWISTS) * len(WINDOWS) * 2


def test_natural_lo_is_lowest_delta_degree():
    # the outer sums of the two-level expansion stop on _natural_lo, so it
    # must be exactly the lowest degree of the one-level image
    gens = ([(name, 1, r) for name in ("xp", "xm") for r in range(-3, 4)]
            + [("h", 1, m) for m in range(-3, 4) if m]
            + [("phip", 1, m) for m in range(4)]
            + [("phim", 1, m) for m in range(-3, 1)]
            + [("k", 1, 1), ("k", 1, -1), ONE])
    cases = 0
    for twist in (1, 2, 3):
        for gen in gens:
            assert fusion._natural_lo(gen, twist) == min(
                d for d, _, _ in delta_terms(gen, twist, 0)), (gen, twist)
            cases += 1
    assert cases == 3 * 31


def test_coassoc_h_generators():
    # h images are primitive, and both sides expand them through the same
    # one-level coproduct as every other generator
    M = build_root_of_unity(1)
    rep = twisted_coassoc_check(M, M, M, 1, 1, (-3, 3),
                                [("h", 1, 1), ("h", 2, -2)])
    assert rep["passed"], rep
