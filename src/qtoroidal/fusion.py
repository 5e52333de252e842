"""Deformed coproduct as truncated operator series on tensor products.

Each generator image is a Laurent series in the deformation parameter u
whose coefficients are exact operators on the tensor basis; negative
u-exponents are first class.  Windows narrow through products by the
intersection rule.  The phi series are group-like, so the derived h
images are primitive: Delta(h_{i,m}) = h_{i,m} x 1 + u^m 1 x h_{i,m}.

The relation check walks the relation instances of ``modrep`` through
its first-witness walk.  That walk checks one instance per rotation orbit
of the cycle once every coproduct image the check reads is seen to
rotate: each u-coefficient of the image of the rotated generator is the
original's conjugated by rho x rho and scaled by q^deg, on the same
window, since Delta maps each summand (d, a, b) of g to (d, rot a, rot b)
for rot g.  Otherwise, or when a representative fails or raises, it walks
every instance.  The checks compute only what they read.  The
relation check forms each product up to the top u-degree it compares,
and each prefix of that product up to that top less the lowest degrees
of the factors still to multiply; a term with a zero coefficient, or
whose product lies wholly above the window, forms no product.  Products
and term sums accumulate in place, one column dict per u-degree
(``linalg.add_into``), and the term sums keep only the degrees compared.
The coassociativity check builds both two-level sides by composing the
one-level coproduct ``delta_terms`` with itself, so both checks read one
definition of Delta.  It writes left minus right, per u-degree, as a
signed sum of generator triples, +1 for each left triple and -1 for each
right one.  The sides share their summands, so these cancel before any
operator is formed: only a triple left with a nonzero multiplicity is
tensored, and its multiple adds into that degree's one column dict.
"""

from __future__ import annotations

from itertools import count

from .errors import DomainError, InputError, WindowError
from .linalg import LinOp, add_into
from .modrep import (_degree, _first_witness_walk, _intertwined,
                     _label_rotation, _rotated)
from .scalars import TruncSeries

ONE = ("one",)


def _no_low(a, b):
    return 0


def _delta_sum_terms(gen, twist, hi, low=_no_low):
    """The summation part of the coproduct image, as (u-degree, left
    generator, right generator); exactly one summand per u-degree.

    An infinite x sum keeps a summand while its degree plus
    ``low(left, right)`` (0 by default) is at most ``hi``; for a
    positive twist that bound grows along the sum, so the sum stops at the
    first summand past it.  The finite phi sums are returned whole."""
    name = gen[0]
    if name in ("xp", "xm"):
        _, i, r = gen
        out = []
        for l in count():
            if name == "xp":
                t = (twist * (r + l), ("phim", i, -l), ("xp", i, r + l))
            else:
                t = (twist * l, ("xm", i, r - l), ("phip", i, l))
            if t[0] + low(t[1], t[2]) > hi:
                return out
            out.append(t)
    if name == "phip":
        _, i, m = gen
        return [(twist * l, ("phip", i, m - l), ("phip", i, l))
                for l in range(m + 1)]
    if name == "phim":
        _, i, m = gen
        return [(-twist * l, ("phim", i, m + l), ("phim", i, -l))
                for l in range(-m + 1)]
    if name == "k":
        return [(0, gen, gen)]
    if name == "one":
        return [(0, ONE, ONE)]
    raise InputError("no coproduct formula for %r" % (gen,))


def delta_terms(gen, twist, hi, low=_no_low):
    """All coproduct summands of u-degree at most ``hi``: the standalone
    term plus the defining sum, or the two terms of a primitive h.

    With ``low``, a summand (d, a, b) is kept while d + low(a, b) <= hi:
    the bound an expansion of a or b needs to reach down to its own
    lowest degree."""
    name = gen[0]
    terms = []
    if name == "xp":
        terms.append((0, gen, ONE))
    elif name == "xm":
        terms.append((twist * gen[2], ONE, gen))
    if name == "h":
        # checked here, since a check whose summands all cancel never
        # builds the module's operator, which would reject it
        if gen[2] == 0:
            raise InputError("h index must be nonzero")
        terms.extend([(0, gen, ONE), (twist * gen[2], ONE, gen)])
    else:
        terms.extend(_delta_sum_terms(gen, twist, hi, low))
    return [(d, a, b) for (d, a, b) in terms if d + low(a, b) <= hi]


def _natural_lo(gen, twist):
    """The lowest u-degree in the image of ``gen`` under Delta_{u^twist}."""
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
    _check_fusable(M1, M2)
    lo_req, hi_req = _u_window(u_window)
    twist = 1
    lo_nat = _natural_lo(gen, twist)
    if lo_req > lo_nat:
        # the window would hide known terms below it; refuse to lie
        raise WindowError("requested window clips the image of %r below "
                          "u^%d" % (gen, lo_nat))
    if hi_req < lo_nat:
        # the whole requested window sits below the image's first term
        return TruncSeries("u", {}, lo_req, hi_req)
    acc = {}
    for d, ga, gb in delta_terms(gen, twist, hi_req):
        op = M1.op(ga).tensor(M2.op(gb))
        if op:
            add_into(acc.setdefault(d, {}), op)
    return _op_series(acc, lo_nat, hi_req)


def _op_series(acc, lo, hi):
    """The u-series on [lo, hi] of the column dicts ``acc`` by degree."""
    return TruncSeries("u", {d: LinOp.of_cols(cols)
                             for d, cols in acc.items()}, lo, hi)


def _series_product(f, g, top):
    """The operator series f g known up to ``top``, or as far as the
    factors' windows allow when that is lower: degrees above ``top`` are
    never formed, and the window never claims a degree the factors do not
    fix.  Each degree's compositions add into one column dict."""
    hi = min(f.hi + g.lo, g.hi + f.lo, top)
    acc = {}
    for e1, a in f.coeffs.items():
        for e2, b in g.coeffs.items():
            if e1 + e2 <= hi:
                add_into(acc.setdefault(e1 + e2, {}), a, b)
    return _op_series(acc, f.lo + g.lo, hi)


# ---------------------------------------------------------------------------
# relation preservation under the coproduct
# ---------------------------------------------------------------------------

def _u_window(u_window):
    """The bounds (lo, hi) of a u-window, which must not be empty."""
    lo, hi = u_window
    if lo > hi:
        raise InputError("empty u-window [%d, %d]" % (lo, hi))
    return lo, hi


def coproduct_relation_check(M1, M2, u_window, r_bound, m_bound):
    """Every defining relation, with generators replaced by their
    coproduct images, must vanish as an operator series on the window.

    The central element is the identity; h images are primitive.
    Failures are data carrying the first nonzero coefficient found.
    """
    _check_fusable(M1, M2)
    lo_req, hi_req = _u_window(u_window)
    # images are built on a padded window, because each factor with a
    # term below u^0 narrows a product: an h image reaches down to
    # -m_bound and each ladder factor (up to three) to -r_bound; products
    # read only up to hi_req, and a WindowError (never a wrong answer)
    # results if the pad is ever too tight.  The window is padded from
    # u^0 when it lies wholly on one side of it, so that it holds the
    # unit and the lowest term of every image
    pad = 3 * r_bound + m_bound + 4
    build_window = (min(lo_req, 0) - pad, max(hi_req, 0) + pad)
    images = {}
    prefix_cache = {}

    def image(gen):
        if gen not in images:
            images[gen] = coproduct_generator(gen, M1, M2, build_window)
        return images[gen]

    def product(seq, factors):
        # the top each prefix must reach
        top = hi_req
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
            prod = f if prod is None else _series_product(prod, f, top)
            prefix_cache[built] = prod
        return prod

    one = M1.one()
    neg_one = -one
    tensor_one = LinOp.identity([(a, b) for a in M1.basis
                                 for b in M2.basis], one)
    unit = TruncSeries("u", {0: tensor_one}, build_window[0],
                       build_window[1])

    def check(desc, terms, fam):
        # the sum of the terms on [lo_req, hi_req], one column dict per
        # degree, and the top degree the sum is known to
        acc = {}
        have = hi_req
        for coef, seq in terms:
            if seq:
                # a product's window, read off its factors' windows
                factors = [image(gen) for gen in seq]
                lo = sum(f.lo for f in factors)
                have = min(have, lo + min(f.hi - f.lo for f in factors))
            else:
                lo = unit.lo
            if not coef or lo > hi_req:
                # the term adds nothing on the window
                continue
            prod = product(seq, factors) if seq else unit
            c = None if coef == one else -1 if coef == neg_one else coef
            for d, op in prod.coeffs.items():
                if lo_req <= d <= hi_req:
                    add_into(acc.setdefault(d, {}), op, c=c)
        if have < hi_req:
            raise WindowError("window too narrow for %s (have %d, need %d);"
                              " enlarge the pad" % (desc, have, hi_req))
        for n in sorted(acc):
            if LinOp.of_cols(acc[n]):
                return {"relation": desc, "u_degree": n}
        return None

    # the rotation of the tensor basis, rho x rho
    rho1, rho2 = _label_rotation(M1), _label_rotation(M2)
    rho = {(a, b): (rho1[a], rho2[b]) for a in M1.basis for b in M2.basis}

    def rotates(gen):
        # each u-coefficient of the image of rot(gen), on the same window
        f, g = image(gen), image(_rotated(gen))
        c = M1.q_power(_degree(gen))
        return ((f.lo, f.hi, f.coeffs.keys()) == (g.lo, g.hi, g.coeffs.keys())
                and all(_intertwined(op, g.coeffs[d], rho, c)
                        for d, op in f.coeffs.items()))

    fams = _first_witness_walk(M1, r_bound, m_bound, check, rotates)
    results = [{"family": family, "instances": fam["instances"],
                "passed": fam["witness"] is None, "witness": fam["witness"]}
               for family, fam in fams.items()]
    return {"passed": all(f["passed"] for f in results),
            "u_window": list(u_window), "families": results}


# ---------------------------------------------------------------------------
# twisted coassociativity
# ---------------------------------------------------------------------------

def _triple_terms(gen, s, sp, lo, hi, side):
    """Two-level coproduct expansion terms (degree, gA, gB, gC), composed
    from the one-level coproduct ``delta_terms``.

    side "left" is (Id x Delta_{u^sp}) Delta_{u^s}, which expands each
    right factor again; side "right" is (Delta_{u^s} x Id)
    Delta_{u^{s+sp}}, which expands each left factor.  An outer summand is
    kept while its degree plus the lowest degree of the factor still to
    expand is at most ``hi``.
    """
    out = []
    if side == "left":
        for d, a, b in delta_terms(gen, s, hi,
                                   lambda a, b: _natural_lo(b, sp)):
            for e, b1, b2 in delta_terms(b, sp, hi - d):
                out.append((d + e, a, b1, b2))
    else:
        for d, a, b in delta_terms(gen, s + sp, hi,
                                   lambda a, b: _natural_lo(a, s)):
            for e, a1, a2 in delta_terms(a, s, hi - d):
                out.append((d + e, a1, a2, b))
    return [t for t in out if t[0] >= lo]


def twisted_coassoc_check(M1, M2, M3, s, s_prime, u_window, gens):
    """(Id x Delta_{u^s'}) Delta_{u^s} versus (Delta_{u^s} x Id)
    Delta_{u^{s+s'}}, compared exactly on the triple tensor per u-degree.

    Left minus right at u^d is the sum of n_t a x b x c over the generator
    triples t = (d, a, b, c), where n_t counts t on the left less on the
    right.  The operator of a triple is a function of the triple, so this
    equals L_d - R_d on every input, and only the triples with n_t != 0
    are tensored.  A generator's first mismatch is the lowest degree whose
    residual operator is nonzero.
    """
    if s < 1 or s_prime < 1:
        raise InputError("twists must be positive")
    if not gens:
        raise InputError("no generators to check")
    _check_fusable(M1, M2, M3)
    lo, hi = _u_window(u_window)

    report = []
    for gen in gens:
        mult = {}
        for side, sign in (("left", 1), ("right", -1)):
            for t in _triple_terms(gen, s, s_prime, lo, hi, side):
                mult[t] = mult.get(t, 0) + sign
        residual = {}
        for (d, a, b, c), n in mult.items():
            if n:
                op = M1.op(a).tensor(M2.op(b)).tensor(M3.op(c))
                add_into(residual.setdefault(d, {}), op,
                         c=None if n == 1 else n)
        mismatch = next((d for d in sorted(residual)
                         if LinOp.of_cols(residual[d])), None)
        report.append({"generator": list(gen), "passed": mismatch is None,
                       "first_mismatch_degree": mismatch})
    return {"passed": all(g["passed"] for g in report), "twists": [s, s_prime],
            "u_window": list(u_window), "generators": report}
