"""Deformed coproduct as truncated operator series on tensor products.

Each generator image is a Laurent series in the deformation parameter u
whose coefficients are exact operators on the tensor basis; negative
u-exponents are first class.  Windows narrow through products by the
intersection rule and nothing is ever specialized at u = 1 unless the
series is complete (its defining sum lies fully inside the window).
"""

from __future__ import annotations

from .errors import DomainError, InputError, WindowError
from .linalg import LinOp
from .modrep import _relation_instances
from .scalars import QScalar, TruncSeries, series_log_coeffs

ONE = ("one",)


def _delta_sum_terms(gen, twist, hi):
    """The summation part of the coproduct image, as (u-degree, left
    generator, right generator); exactly one summand per u-degree."""
    name = gen[0]
    out = []
    if name == "xp":
        _, i, r = gen
        l = 0
        while twist * (r + l) <= hi:
            out.append((twist * (r + l), ("phim", i, -l), ("xp", i, r + l)))
            l += 1
    elif name == "xm":
        _, i, r = gen
        l = 0
        while twist * l <= hi:
            out.append((twist * l, ("xm", i, r - l), ("phip", i, l)))
            l += 1
    elif name == "phip":
        _, i, m = gen
        for l in range(m + 1):
            out.append((twist * l, ("phip", i, m - l), ("phip", i, l)))
    elif name == "phim":
        _, i, m = gen
        for l in range(-m + 1):
            out.append((-twist * l, ("phim", i, m + l), ("phim", i, -l)))
    elif name == "k":
        _, i, e = gen
        out.append((0, ("k", i, e), ("k", i, e)))
    elif name == "one":
        out.append((0, ONE, ONE))
    else:
        raise InputError("no coproduct formula for %r" % (gen,))
    return out


def delta_terms(gen, twist, hi):
    """All coproduct summands of u-degree at most ``hi``: the standalone
    term plus the defining sum."""
    name = gen[0]
    terms = []
    if name == "xp":
        terms.append((0, gen, ONE))
    elif name == "xm":
        _, i, r = gen
        terms.append((twist * r, ONE, gen))
    terms.extend(_delta_sum_terms(gen, twist, hi))
    return [(d, a, b) for (d, a, b) in terms if d <= hi]


def _natural_lo(gen, twist):
    name = gen[0]
    if name == "xp":
        return min(0, twist * gen[2])
    if name == "xm":
        return min(0, twist * gen[2])
    if name == "phim":
        return twist * gen[2]
    return 0


class UCoproductImage:
    """Operator-valued u-series of one generator on a tensor product.

    The series window starts at the image's true lower edge so products
    stay sharp; ``coeff`` additionally answers the requested range below
    it, where coefficients are exact zeros.
    """

    __slots__ = ("gen", "series", "complete", "req_lo")

    def __init__(self, gen, series, complete, req_lo=None):
        self.gen = gen
        self.series = series
        self.complete = complete
        self.req_lo = series.lo if req_lo is None else req_lo

    def coeff(self, n):
        if self.req_lo <= n < self.series.lo:
            return None
        return self.series.at(n)

    def specialize_u1(self):
        """Sum of all coefficients; only legal when the window is closed."""
        if not self.complete:
            raise WindowError("the image of %r has an open tail; u -> 1 "
                              "is not defined on this window" % (self.gen,))
        acc = None
        for _, v in sorted(self.series.coeffs.items()):
            acc = v if acc is None else acc + v
        return acc if acc is not None else LinOp.zero()


def _check_fusable(*mods):
    kinds = {m.kind for m in mods}
    if "loop" in kinds:
        raise InputError("tensor actions need modules without window "
                         "boundaries; use the periodic quotients")
    orders = {m.cyc_order for m in mods}
    if len(orders) != 1:
        raise DomainError("tensor factors live over different scalar "
                          "fields")


def coproduct_generator(gen, M1, M2, u_window):
    """Exact image of one generator on basis(M1) x basis(M2) within the
    requested u-window."""
    lo_req, hi_req = u_window
    _check_fusable(M1, M2)
    twist = 1
    lo_nat = _natural_lo(gen, twist)
    if lo_req > lo_nat:
        # the window would hide known terms below it; refuse to lie
        raise WindowError("requested window clips the image of %r below "
                          "u^%d" % (gen, lo_nat))
    complete = gen[0] in ("phip", "phim", "k", "one")
    if hi_req < lo_nat:
        # the whole requested window sits below the image's first term
        return UCoproductImage(gen, TruncSeries("u", {}, lo_req, hi_req),
                               False, req_lo=lo_req)
    coeffs = {}
    for d, ga, gb in delta_terms(gen, twist, hi_req):
        op = M1.op(ga).tensor(M2.op(gb))
        if op.is_zero():
            continue
        coeffs[d] = coeffs[d] + op if d in coeffs else op
    series = TruncSeries("u", coeffs, lo_nat, hi_req)
    return UCoproductImage(gen, series, complete, req_lo=lo_req)


# ---------------------------------------------------------------------------
# relation preservation under the coproduct
# ---------------------------------------------------------------------------

def _h_images(M1, M2, nodes, m_bound, u_window, images):
    """Derived h images from the logarithm of the phi image series."""
    lo, hi = u_window
    qq = M1.from_qscalar(QScalar({1: 1, -1: -1}))
    out = {}
    for i in nodes:
        for sign in (1, -1):
            order = m_bound
            zc = {}
            for m in range(order + 1):
                gen = ("phip", i, m) if sign > 0 else ("phim", i, -m)
                img = images.get(gen)
                if img is None:
                    img = coproduct_generator(gen, M1, M2, u_window)
                    images[gen] = img
                if not img.series.is_zero():
                    zc[m] = img.series
            f = TruncSeries("z" if sign > 0 else "w", zc, 0, order)
            cs = series_log_coeffs(f, order)
            for m in range(1, order + 1):
                c = cs[m - 1]
                if c is None:
                    series = TruncSeries("u", {}, lo, hi)
                else:
                    series = c.scale(_inv_scalar(qq))
                    if sign < 0:
                        series = -series
                out[("h", i, sign * m)] = UCoproductImage(
                    ("h", i, sign * m), series, False)
    return out


def _inv_scalar(x):
    return x.inverse()


def coproduct_relation_check(M1, M2, u_window, r_bound, m_bound):
    """Every defining relation, with generators replaced by their
    coproduct images, must vanish as an operator series on the window.

    The central element is the identity; h images are derived from the
    phi images by the exact series logarithm.  Failures are data carrying
    the first nonzero coefficient found.
    """
    _check_fusable(M1, M2)
    lo_req, hi_req = u_window
    # window losses: up to three ladder factors each costing r_bound of
    # top room, plus the log extraction inside the h images costing at
    # most m_bound per z-order; a WindowError (never a wrong answer)
    # results if this is ever too tight
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


# ---------------------------------------------------------------------------
# twisted coassociativity
# ---------------------------------------------------------------------------

def _triple_terms(gen, s, sp, lo, hi, side):
    """Two-level coproduct expansion terms (degree, gA, gB, gC).

    side "left" is (Id x Delta_{u^sp}) Delta_{u^s}; side "right" is
    (Delta_{u^s} x Id) Delta_{u^{s+sp}}.  Index grids are enumerated up to
    a cap that provably covers every term with degree in [lo, hi]: all
    degree formulas are affine with positive slope in each index once the
    others are fixed.
    """
    name = gen[0]
    out = []
    if name == "k":
        _, i, e = gen
        return [(0, ("k", i, e), ("k", i, e), ("k", i, e))]
    if name == "one":
        return [(0, ONE, ONE, ONE)]
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
    else:
        raise InputError("no coproduct formula for %r" % (gen,))
    return [(d, a, b, c) for (d, a, b, c) in out if lo <= d <= hi]


def twisted_coassoc_check(M1, M2, M3, s, s_prime, u_window, gens):
    """(Id x Delta_{u^s'}) Delta_{u^s} versus (Delta_{u^s} x Id)
    Delta_{u^{s+s'}}, compared exactly on the triple tensor per u-degree.
    """
    if s < 1 or s_prime < 1:
        raise InputError("twists must be positive")
    _check_fusable(M1, M2, M3)
    lo, hi = u_window

    def op3(ga, gb, gc):
        return M1.op(ga).tensor(M2.op(gb)).tensor(M3.op(gc))

    report = []
    ok_all = True
    for gen in gens:
        sides = []
        for side in ("left", "right"):
            acc = {}
            for d, a, b, c in _triple_terms(gen, s, s_prime, lo, hi, side):
                op = op3(a, b, c)
                if op.is_zero():
                    continue
                acc[d] = acc[d] + op if d in acc else op
            sides.append(acc)
        left, right = sides
        mismatch = None
        for d in sorted(set(left) | set(right)):
            lv = left.get(d, LinOp.zero())
            rv = right.get(d, LinOp.zero())
            if not (lv - rv).is_zero():
                mismatch = d
                break
        ok = mismatch is None
        ok_all = ok_all and ok
        report.append({"generator": list(gen), "passed": ok,
                       "first_mismatch_degree": mismatch})
    return {"passed": ok_all, "twists": [s, s_prime],
            "u_window": list(u_window), "generators": report}
