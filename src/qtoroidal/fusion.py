"""Deformed coproduct as truncated operator series on tensor products.

Each generator image is a Laurent series in the deformation parameter u
whose coefficients are exact operators on the tensor basis; negative
u-exponents are first class.  Windows narrow through products by the
intersection rule.  The phi series are group-like, so the derived h
images are primitive: Delta(h_{i,m}) = h_{i,m} x 1 + u^m 1 x h_{i,m}.

The checks compute only what they read.  The relation check forms each
product up to the top u-degree it compares, and each prefix of that
product up to that top less the lowest degrees of the factors still to
multiply.  The coassociativity check tensors each triple of generator
operators once and compares the two sides degree by degree on their
columns.
"""

from __future__ import annotations

from .errors import DomainError, InputError, WindowError
from .linalg import LinOp
from .modrep import _relation_instances
from .scalars import TruncSeries

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
    term plus the defining sum, or the two terms of a primitive h."""
    name = gen[0]
    terms = []
    if name == "xp":
        terms.append((0, gen, ONE))
    elif name == "xm":
        _, i, r = gen
        terms.append((twist * r, ONE, gen))
    if name == "h":
        terms.extend([(0, gen, ONE), (twist * gen[2], ONE, gen)])
    else:
        terms.extend(_delta_sum_terms(gen, twist, hi))
    return [(d, a, b) for (d, a, b) in terms if d <= hi]


def _natural_lo(gen, twist):
    if gen[0] in ("xp", "xm", "phim", "h"):
        return min(0, twist * gen[2])
    return 0


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
    requested u-window, as a u-series of operators."""
    lo_req, hi_req = u_window
    _check_fusable(M1, M2)
    twist = 1
    lo_nat = _natural_lo(gen, twist)
    if lo_req > lo_nat:
        # the window would hide known terms below it; refuse to lie
        raise WindowError("requested window clips the image of %r below "
                          "u^%d" % (gen, lo_nat))
    if hi_req < lo_nat:
        # the whole requested window sits below the image's first term
        return TruncSeries("u", {}, lo_req, hi_req)
    coeffs = {}
    for d, ga, gb in delta_terms(gen, twist, hi_req):
        op = M1.op(ga).tensor(M2.op(gb))
        if op.is_zero():
            continue
        coeffs[d] = coeffs[d] + op if d in coeffs else op
    return TruncSeries("u", coeffs, lo_nat, hi_req)


# ---------------------------------------------------------------------------
# relation preservation under the coproduct
# ---------------------------------------------------------------------------

def coproduct_relation_check(M1, M2, u_window, r_bound, m_bound):
    """Every defining relation, with generators replaced by their
    coproduct images, must vanish as an operator series on the window.

    The central element is the identity; h images are primitive.
    Failures are data carrying the first nonzero coefficient found.
    """
    _check_fusable(M1, M2)
    lo_req, hi_req = u_window
    # images are built on a padded window, because each factor with a
    # term below u^0 narrows a product: an h image reaches down to
    # -m_bound and each ladder factor (up to three) to -r_bound; products
    # read only up to hi_req, and a WindowError (never a wrong answer)
    # results if the pad is ever too tight
    pad = 3 * r_bound + m_bound + 4
    build_window = (lo_req - pad, hi_req + pad)
    images = {}
    prefix_cache = {}

    def image(gen):
        if gen not in images:
            images[gen] = coproduct_generator(gen, M1, M2, build_window)
        return images[gen]

    def product(seq):
        factors = [image(gen) for gen in seq]
        # the top each prefix must reach; a product lying wholly above
        # hi_req is still formed at its lowest degree
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
            prod = f if prod is None else prod.mul(f, top)
            prefix_cache[built] = prod
        return prod

    one = M1.one()
    neg_one = -one
    ring = {}           # QScalar coefficient -> the module's scalar
    tensor_one = LinOp.identity([(a, b) for a in M1.basis
                                 for b in M2.basis], one)
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
            prod = product(seq) if seq else unit
            c = ring.get(coef)
            if c is None:
                c = M1.from_qscalar(coef)
                # the ring's own +-1, so that the tests below are by identity
                c = ring[coef] = (one if c == one else
                                  neg_one if c == neg_one else c)
            if c is neg_one:
                prod = -prod
            elif c is not one:
                prod = prod.scale(c)
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

def _upto(start, step, hi):
    """The indices n >= 0 with start + step * n <= hi (step >= 1)."""
    return range(max(0, (hi - start) // step + 1))


def _triple_terms(gen, s, sp, lo, hi, side):
    """Two-level coproduct expansion terms (degree, gA, gB, gC).

    side "left" is (Id x Delta_{u^sp}) Delta_{u^s}; side "right" is
    (Delta_{u^s} x Id) Delta_{u^{s+sp}}.  Every infinite sum is indexed so
    that its degree grows with each index (twists are positive), and each
    index stops where the degree passes ``hi``.
    """
    name = gen[0]
    out = []
    if name == "k":
        _, i, e = gen
        return [(0, ("k", i, e), ("k", i, e), ("k", i, e))]
    if name == "one":
        return [(0, ONE, ONE, ONE)]
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
        for l in _upto(s * r, s, hi):
            out.append((s * (r + l), ("phim", i, -l), ("xp", i, r + l),
                        ONE))
        if side == "left":
            # Delta_{u^sp}(x+_{r+l}) inside the l-th summand
            for l in _upto((s + sp) * r, s + sp, hi):
                base = (s + sp) * (r + l)
                for lp in _upto(base, sp, hi):
                    out.append((base + sp * lp, ("phim", i, -l),
                                ("phim", i, -lp), ("xp", i, r + l + lp)))
        else:
            # Delta_{u^s}(phi-_{-L}) inside the L-th summand, L = a + b
            for a in _upto((s + sp) * r, s + sp, hi):
                base = (s + sp) * (r + a)
                for b in _upto(base, sp, hi):
                    out.append((base + sp * b, ("phim", i, -a),
                                ("phim", i, -b), ("xp", i, r + a + b)))
    elif name == "xm":
        _, i, r = gen
        out.append(((s + sp) * r, ONE, ONE, ("xm", i, r)))
        if side == "left":
            for lp in _upto(s * r, sp, hi):
                out.append((s * r + sp * lp, ONE, ("xm", i, r - lp),
                            ("phip", i, lp)))
            # Delta_{u^sp}(phi+_l) inside the l-th summand, l = a + d
            for d in _upto(0, s + sp, hi):
                for a in _upto((s + sp) * d, s, hi):
                    out.append(((s + sp) * d + s * a, ("xm", i, r - a - d),
                                ("phip", i, a), ("phip", i, d)))
        else:
            for l in _upto(s * r, sp, hi):
                out.append((s * r + sp * l, ONE, ("xm", i, r - l),
                            ("phip", i, l)))
            # Delta_{u^s}(x-_{r-l}) inside the l-th summand
            for l in _upto(0, s + sp, hi):
                for e in _upto((s + sp) * l, s, hi):
                    out.append(((s + sp) * l + s * e, ("xm", i, r - l - e),
                                ("phip", i, e), ("phip", i, l)))
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

    # both sides expand into the same triples, so each is tensored once
    triples = {}

    def op3(ga, gb, gc):
        key = (ga, gb, gc)
        op = triples.get(key)
        if op is None:
            op = triples[key] = (M1.op(ga).tensor(M2.op(gb))
                                 .tensor(M3.op(gc)))
        return op

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
        zero = LinOp.zero()
        for d in sorted(set(left) | set(right)):
            if left.get(d, zero) != right.get(d, zero):
                mismatch = d
                break
        ok = mismatch is None
        ok_all = ok_all and ok
        report.append({"generator": list(gen), "passed": ok,
                       "first_mismatch_degree": mismatch})
    return {"passed": ok_all, "twists": [s, s_prime],
            "u_window": list(u_window), "generators": report}
