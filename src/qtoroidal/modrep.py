"""Explicit module realizations and the defining-relation verifier.

The rank-three extremal loop module is materialized over a finite window
of its doubly infinite basis; operator images that leave the window are
kept as boundary labels and any relation evaluation that would need to
act on them is skipped, never silently zeroed.  Root-of-unity quotients
identify the window periodically and live over a cyclotomic field, so
every vector is interior there.

Every generator acts through one sparse operator (``LinOp``) built once
per module from the generator tables in ``image()``.  Diagonal
h-generators have no table of their own: their eigenvalues are recovered
from the phi-eigenvalue series through the exact truncated logarithm,
keeping the phi-tables the single source of truth.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, EscapeError, InputError
from .linalg import Field, LinOp
from .monomials import YMonomial, mono_format
from .scalars import (CycScalar, QScalar, TruncSeries, cyclotomic_specialize,
                      is_zero_elem, q_binom, q_int, series_log_coeffs)

LETTERS = 4          # basis letters per lattice site in the rank-3 module


def _norm_label(a, p):
    while a > LETTERS:
        a -= LETTERS
        p += 1
    while a < 1:
        a += LETTERS
        p -= 1
    return a, p


class ModuleRealization:
    """Indexed basis with exact Drinfeld-generator tables.

    ``kind`` is "loop" (generic q, windowed) or "rou" (root of unity,
    periodic).  Generators are addressed by tuples:
    ("xp", a, r), ("xm", a, r), ("phip", a, m>=0), ("phim", a, m<=0),
    ("k", a, +-1), the unit ("one",) and the derived ("h", a, m != 0).
    """

    def __init__(self, kind, *, n=3, window=None, period=None,
                 corrupt_xp=None):
        if n != 3:
            raise InputError("only the rank-3 realization is verified; "
                             "other ranks are not wired up")
        self.kind = kind
        self.n = n
        self.nodes = tuple(range(n + 1))
        self.corrupt_xp = corrupt_xp      # (node, r): flip one table's sign
        if kind == "loop":
            if window is None or window[0] > window[1]:
                raise InputError("a nonempty window [p_min, p_max] is "
                                 "required")
            self.window = tuple(window)
            self.period = None
            self.cyc_order = None
            self.basis = [(a, p) for p in range(window[0], window[1] + 1)
                          for a in range(1, LETTERS + 1)]
        elif kind == "rou":
            if period is None or period < 1:
                raise InputError("period L must be >= 1")
            self.window = None
            self.period = period
            self.cyc_order = 4 * period
            self.basis = [(a, p) for p in range(period)
                          for a in range(1, LETTERS + 1)]
        else:
            raise InputError("unknown kind %r" % kind)
        self._basis_set = set(self.basis)
        self._ops = {}

    # -- scalars --------------------------------------------------------

    def one(self):
        if self.kind == "loop":
            return QScalar.one()
        return CycScalar.one(self.cyc_order)

    def q_power(self, e):
        if self.kind == "loop":
            return QScalar.q_power(e)
        return CycScalar.root_power(self.cyc_order, e)

    def qq_inv(self):
        """q - q^-1 in the module's scalar ring."""
        return self.q_power(1) - self.q_power(-1)

    def from_qscalar(self, x):
        if self.kind == "loop":
            return x
        return cyclotomic_specialize(x, self.cyc_order)

    # -- labels ----------------------------------------------------------

    def _norm(self, a, p):
        a, p = _norm_label(a, p)
        if self.kind == "rou":
            p %= self.period
        return a, p

    def in_basis(self, label):
        return label in self._basis_set

    # -- raw action ------------------------------------------------------

    def _b_case(self, g, a, p):
        """(b, p_eff) when the label (a, p) is v_{g+b, p_eff}, else None."""
        if g == 0:
            if a == LETTERS:
                return 0, (p + 1)
            if a == 1:
                return 1, p
            return None
        if a == g:
            return 0, p
        if a == g + 1:
            return 1, p
        return None

    def _site_exp(self, g, p_eff, m):
        return m * (4 * p_eff + g - 1)

    def image(self, gen, label):
        """Image of a basis (or boundary) label: (label', scalar) for the
        ladder generators, ("diag", scalar) for the diagonal ones, or None
        when the generator kills the vector."""
        a, p = label
        name = gen[0]
        if name == "xp":
            _, g, r = gen
            bc = self._b_case(g, a, p)
            if bc is None or bc[0] != 1:
                return None
            p_eff = bc[1]
            scal = self.q_power(self._site_exp(g, p_eff, r))
            if self.corrupt_xp == (g, r):
                scal = -scal
            return self._norm(g, p_eff), scal
        if name == "xm":
            _, g, r = gen
            bc = self._b_case(g, a, p)
            if bc is None or bc[0] != 0:
                return None
            p_eff = bc[1]
            return (self._norm(g + 1, p_eff),
                    self.q_power(self._site_exp(g, p_eff, r)))
        if name in ("phip", "phim"):
            _, g, m = gen
            sign = 1 if name == "phip" else -1
            if name == "phip" and m < 0:
                raise InputError("phip index must be >= 0")
            if name == "phim" and m > 0:
                raise InputError("phim index must be <= 0")
            bc = self._b_case(g, a, p)
            if m == 0:
                if bc is None:
                    return "diag", self.one()
                return "diag", self.q_power(sign * (1 if bc[0] == 0 else -1))
            if bc is None:
                return None
            b, p_eff = bc
            mag = abs(m)
            val = self.qq_inv() * self.q_power(
                self._site_exp(g, p_eff, sign * mag))
            if (sign == 1) != (b == 0):
                val = -val
            return "diag", val
        if name == "k":
            _, g, e = gen
            bc = self._b_case(g, a, p)
            if bc is None:
                return "diag", self.one()
            return "diag", self.q_power(e * (1 if bc[0] == 0 else -1))
        if name == "h":
            _, g, m = gen
            return "diag", self.h_eigenvalue(g, m, label)
        if name == "one":
            return "diag", self.one()
        raise InputError("unknown generator %r" % (gen,))

    def apply(self, gen, vec):
        """Apply a generator to {label: scalar}; raises EscapeError when a
        source label has no table row (outside the window)."""
        for label in vec:
            if not self.in_basis(label):
                raise EscapeError("label %r is outside the window"
                                  % (label,))
        return self.op(gen).apply(vec)

    def op(self, gen):
        """The generator as a sparse operator over the materialized basis,
        built from ``image()`` on first use and cached on the module;
        boundary targets appear as labels outside the window."""
        op = self._ops.get(gen)
        if op is None:
            cols = {}
            for label in self.basis:
                img = self.image(gen, label)
                if img is None:
                    continue
                tgt, scal = img
                cols[label] = {label if tgt == "diag" else tgt: scal}
            op = self._ops[gen] = LinOp(cols)
        return op

    # -- phi series and derived h ----------------------------------------

    def phi_series(self, g, sign, label, order):
        """Diagonal phi eigenvalue series on one basis vector, in the
        variable z (sign +) or z^-1 (sign -), orders 0..order."""
        coeffs = {}
        for m in range(order + 1):
            gen = ("phip", g, m) if sign > 0 else ("phim", g, -m)
            img = self.image(gen, label)
            if img is None:
                continue
            tag, val = img
            assert tag == "diag"
            if not is_zero_elem(val):
                coeffs[m] = val
        return TruncSeries("z" if sign > 0 else "w", coeffs, 0, order)

    def h_eigenvalue(self, g, m, label):
        """Eigenvalue of the derived diagonal generator h_{g,m} (m != 0),
        extracted from the phi series by the exact truncated logarithm."""
        if m == 0:
            raise InputError("h index must be nonzero")
        sign = 1 if m > 0 else -1
        mag = abs(m)
        series = self.phi_series(g, sign, label, mag)
        cs = series_log_coeffs(series, mag)
        c = cs[mag - 1]
        if c is None:
            return self.one() - self.one()
        val = c.exact_div(self.qq_inv())
        return -val if sign < 0 else val


def build_extremal_loop(window, n=3, corrupt_xp=None):
    """The integrable loop realization over generic q on a basis window."""
    return ModuleRealization("loop", n=n, window=window,
                             corrupt_xp=corrupt_xp)


def build_root_of_unity(L, n=3):
    """The 4L-dimensional periodic quotient over the order-4L cyclotomic
    field; for L = 1 this is the explicit 4-dimensional module."""
    return ModuleRealization("rou", n=n, period=L)


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

class RelationReport:
    """Per-family verification outcome with a reproducible witness."""

    def __init__(self):
        self.families = []

    def add(self, name, instances, checked, skipped, witness):
        self.families.append({
            "family": name,
            "instances": instances,
            "checked_vectors": checked,
            "skipped_vectors": skipped,
            "passed": witness is None,
            "witness": witness,
        })

    @property
    def passed(self):
        return all(f["passed"] for f in self.families)

    def family(self, name):
        for f in self.families:
            if f["family"] == name:
                return f
        raise KeyError(name)

    def to_json(self):
        return {"passed": self.passed, "families": self.families}


def _b_matrix(a, b):
    """Symmetrized entries of the 4-node cycle (all r_i = 1)."""
    if a == b:
        return 2
    return -1 if (a - b) % 4 in (1, 3) else 0


def _relation_instances(M, r_bound, m_bound):
    """Yield (family, description, terms); a term is (QScalar coefficient,
    generator sequence applied right to left)."""
    nodes = M.nodes
    one = QScalar.one()
    rng_r = range(-r_bound, r_bound + 1)
    rng_m = [m for m in range(-m_bound, m_bound + 1) if m]

    for a in nodes:
        for b in nodes:
            yield ("k-cartan", "k_%d k_%d = k_%d k_%d" % (a, b, b, a),
                   [(one, [("k", a, 1), ("k", b, 1)]),
                    (-one, [("k", b, 1), ("k", a, 1)])])
        yield ("k-cartan", "k_%d k_%d^-1 = 1" % (a, a),
               [(one, [("k", a, 1), ("k", a, -1)]), (-one, [])])
        for b in nodes:
            for m in rng_m:
                yield ("k-cartan", "[k_%d, h_{%d,%d}] = 0" % (a, b, m),
                       [(one, [("k", a, 1), ("h", b, m)]),
                        (-one, [("h", b, m), ("k", a, 1)])])

    for a in nodes:
        for b in nodes:
            for m in rng_m:
                for mp in rng_m:
                    yield ("h-h", "[h_{%d,%d}, h_{%d,%d}] = 0"
                           % (a, m, b, mp),
                           [(one, [("h", a, m), ("h", b, mp)]),
                            (-one, [("h", b, mp), ("h", a, m)])])

    for a in nodes:
        for b in nodes:
            B = _b_matrix(a, b)
            for r in rng_r:
                for sgn, tag in ((1, "xp"), (-1, "xm")):
                    yield ("k-x",
                           "k_%d x%s_{%d,%d} k_%d^-1 = q^%d x%s_{%d,%d}"
                           % (a, tag, b, r, a, sgn * B, tag, b, r),
                           [(one, [("k", a, 1), (tag, b, r), ("k", a, -1)]),
                            (-QScalar.q_power(sgn * B), [(tag, b, r)])])

    for a in nodes:
        for b in nodes:
            B = _b_matrix(a, b)
            for m in rng_m:
                coef = q_int(m * B) * Fraction(1, m)
                for sgn, tag in ((1, "xp"), (-1, "xm")):
                    for r in rng_r:
                        yield ("h-x",
                               "[h_{%d,%d}, x%s_{%d,%d}]" % (a, m, tag, b, r),
                               [(one, [("h", a, m), (tag, b, r)]),
                                (-one, [(tag, b, r), ("h", a, m)]),
                                (-QScalar.from_const(sgn) * coef,
                                 [(tag, b, m + r)])])

    qdiff = QScalar({1: 1, -1: -1})
    for a in nodes:
        for b in nodes:
            for r in rng_r:
                for rp in rng_r:
                    terms = [(qdiff, [("xp", a, r), ("xm", b, rp)]),
                             (-qdiff, [("xm", b, rp), ("xp", a, r)])]
                    if a == b:
                        s = r + rp
                        if s >= 0:
                            terms.append((-one, [("phip", a, s)]))
                        if s <= 0:
                            terms.append((one, [("phim", a, s)]))
                    yield ("xpxm",
                           "[x+_{%d,%d}, x-_{%d,%d}] vs phi" % (a, r, b, rp),
                           terms)

    for a in nodes:
        for b in nodes:
            B = _b_matrix(a, b)
            for sgn, tag in ((1, "xp"), (-1, "xm")):
                qB = QScalar.q_power(sgn * B)
                for r in rng_r:
                    for rp in rng_r:
                        yield ("quadratic",
                               "x%s_{%d,%d+1} x%s_{%d,%d} exchange"
                               % (tag, a, r, tag, b, rp),
                               [(one, [(tag, a, r + 1), (tag, b, rp)]),
                                (-qB, [(tag, b, rp), (tag, a, r + 1)]),
                                (-qB, [(tag, a, r), (tag, b, rp + 1)]),
                                (one, [(tag, b, rp + 1), (tag, a, r)])])

    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            c_ab = -1 if (a - b) % 4 in (1, 3) else 0
            s = 1 - c_ab
            binoms = [q_binom(s, k) for k in range(s + 1)]
            for sgn, tag in ((1, "xp"), (-1, "xm")):
                for r1 in rng_r:
                    for r2 in rng_r:
                        if s == 2 and r2 < r1:
                            continue
                        for rp in rng_r:
                            rs = (r1, r2)[:s]
                            terms = []
                            perms = {rs, rs[::-1]} if s == 2 else {rs}
                            for perm in sorted(perms):
                                weight = 2 if (s == 2 and len(perms) == 1) \
                                    else 1
                                for k in range(s + 1):
                                    seq = [(tag, a, rr) for rr in perm[:k]]
                                    seq.append((tag, b, rp))
                                    seq += [(tag, a, rr) for rr in perm[k:]]
                                    coef = binoms[k] * Fraction(
                                        (-1) ** k * weight)
                                    terms.append((coef, seq))
                            yield ("serre",
                                   "serre %s (%d,%d) r=%r r'=%d"
                                   % (tag, a, b, rs, rp), terms)


def verify_relations(M, r_bound, m_bound, series_order=None):
    """Evaluate every defining relation with indices within the bounds on
    every basis vector whose full evaluation stays inside the window.

    The central element is the identity throughout.  Failures carry the
    first offending (relation, vector, entry) witness.
    """
    del series_order  # h extraction is exact at the order each h needs
    report = RelationReport()
    state = {}
    for family, desc, terms in _relation_instances(M, r_bound, m_bound):
        fam = state.setdefault(family,
                               {"instances": 0, "checked": 0, "skipped": 0,
                                "witness": None})
        fam["instances"] += 1
        if fam["witness"] is not None:
            continue
        coerced = [(M.from_qscalar(c) if isinstance(c, QScalar) else c, seq)
                   for c, seq in terms]
        for v in M.basis:
            try:
                acc = {}
                for coef, seq in coerced:
                    vec = {v: M.one()}
                    for gen in reversed(seq):
                        vec = M.apply(gen, vec)
                    for lab, val in vec.items():
                        w = val * coef
                        if lab in acc:
                            w = acc[lab] + w
                        if is_zero_elem(w):
                            acc.pop(lab, None)
                        else:
                            acc[lab] = w
            except EscapeError:
                fam["skipped"] += 1
                continue
            fam["checked"] += 1
            if acc:
                lab, val = next(iter(acc.items()))
                fam["witness"] = {"relation": desc, "vector": list(v),
                                  "entry": list(lab), "value": repr(val)}
                break
    for family, fam in state.items():
        report.add(family, fam["instances"], fam["checked"], fam["skipped"],
                   fam["witness"])
    return report


# ---------------------------------------------------------------------------
# l-characters
# ---------------------------------------------------------------------------

def _linear_factor_series(var, exp_a, power, order, module):
    """(1 - z q^exp_a)^power as a TruncSeries over the module scalars."""
    one = module.one()
    if power >= 0:
        acc = TruncSeries(var, {0: one}, 0, order)
        base = TruncSeries(var, {0: one, 1: -module.q_power(exp_a)}, 0,
                           order)
        for _ in range(power):
            acc = acc * base
        return acc
    geo = TruncSeries(var, {m: module.q_power(exp_a * m)
                            for m in range(order + 1)}, 0, order)
    acc = TruncSeries(var, {0: one}, 0, order)
    for _ in range(-power):
        acc = acc * geo
    return acc


def expected_phi_series(module, part, sign, order, r_i=1):
    """Phi eigenvalue series predicted for the node part {l: n_l}.

    sign +: q^(r delta) prod (1 - z q^(l-r))^n / (1 - z q^(l+r))^n in z;
    sign -: q^(-r delta) prod (1 - w q^(r-l))^n / (1 - w q^(-r-l))^n in
    the variable w = z^-1.
    """
    var = "z" if sign > 0 else "w"
    delta = sum(part.values())
    acc = TruncSeries(var, {0: module.q_power(sign * r_i * delta)}, 0, order)
    for l, n in part.items():
        if sign > 0:
            acc = acc * _linear_factor_series(var, l - r_i, n, order, module)
            acc = acc * _linear_factor_series(var, l + r_i, -n, order,
                                              module)
        else:
            acc = acc * _linear_factor_series(var, r_i - l, n, order, module)
            acc = acc * _linear_factor_series(var, -r_i - l, -n, order,
                                              module)
    return acc


def display_monomial(label):
    """The advertised l-weight of basis vector v_{a,p}: the chain term
    Y[a mod 4, 4p+a-1] Y[a-1 mod 4, 4p+a]^-1."""
    a, p = label
    return (YMonomial.var(a % LETTERS, 4 * p + a - 1)
            * YMonomial.var((a - 1) % LETTERS, 4 * p + a, -1))


def l_character(M, series_order=3):
    """Read each basis vector's l-weight monomial from its phi series.

    Works over generic q, where the spectral exponents are recoverable
    from the first logarithmic moment; every higher moment and the
    negative-direction series are verified against the reconstruction.
    Returns {"terms": {label: YMonomial}}.
    """
    if M.kind != "loop":
        raise DomainError("direct moment reading needs generic q; use "
                          "match_display for cyclotomic modules")
    terms = {}
    for label in M.basis:
        parts = {}
        for g in M.nodes:
            series = M.phi_series(g, 1, label, series_order)
            f0 = series.at(0)
            if f0 is None or is_zero_elem(f0):
                raise DomainError("phi constant term vanishes on %r"
                                  % (label,))
            delta = f0.as_q_power()
            if delta is None:
                raise DomainError("phi constant term is not a q power")
            cs = series_log_coeffs(series, series_order)
            part = {}
            if cs[0] is not None:
                p1 = cs[0].exact_div(M.qq_inv())
                for e, v in p1.items():
                    if v.denominator != 1:
                        raise DomainError("non-integer multiplicity in the "
                                          "first moment")
                    part[e] = int(v)
            if sum(part.values()) != delta:
                raise DomainError("moment data disagrees with the constant "
                                  "term on %r" % (label,))
            for m in range(2, series_order + 1):
                # m-th log coefficient is (q^m - q^-m)/m times the moment
                # sum of q^(l m) over the node part
                want = QScalar.zero()
                for l, n in part.items():
                    want = want + QScalar({l * m: n})
                got = cs[m - 1]
                got = (QScalar.zero() if got is None
                       else (got * m).exact_div(QScalar({m: 1, -m: -1})))
                if got != want:
                    raise DomainError("moment %d mismatch on %r"
                                      % (m, label))
            minus = M.phi_series(g, -1, label, series_order)
            if not minus == expected_phi_series(M, part, -1, series_order):
                raise DomainError("negative-direction series mismatch on "
                                  "%r" % (label,))
            for l, n in part.items():
                if n:
                    parts[(g, l)] = n
        terms[label] = YMonomial(parts)
    return {"terms": terms}


def l_character_offset(M, series_order=3):
    """Global spectral shift between computed l-weights and the display.

    For generic q the monomials are read directly; the report fails unless
    one constant c aligns every basis vector with display_monomial shifted
    by c.  For cyclotomic quotients each candidate c (mod 4L) is verified
    through the full phi series comparison instead.
    """
    if M.kind == "loop":
        data = l_character(M, series_order)
        c = None
        for label, m in data["terms"].items():
            want = display_monomial(label)
            got_exps = sorted(m.key)
            want_exps = sorted(want.key)
            if len(got_exps) != len(want_exps):
                raise DomainError("l-weight shape differs from the display "
                                  "on %r" % (label,))
            shifts = {lg - lw for (ig, lg, eg), (iw, lw, ew)
                      in zip(got_exps, want_exps)}
            if len(shifts) != 1:
                raise DomainError("no uniform shift on %r" % (label,))
            if m != want.shift_spectral(next(iter(shifts))):
                raise DomainError("monomial differs beyond a shift on %r"
                                  % (label,))
            s = next(iter(shifts))
            if c is None:
                c = s
            elif c != s:
                raise DomainError("shift is not constant across the basis: "
                                  "%d vs %d" % (c, s))
        return {"c": c, "terms": {str(k): mono_format(v)
                                  for k, v in data["terms"].items()}}
    # cyclotomic: verify candidate shifts through the series
    N = M.cyc_order
    matches = []
    for c in range(-N // 2, N - N // 2):
        if _matches_display_shift(M, c, series_order):
            matches.append(c)
    if not matches:
        raise DomainError("no constant shift aligns the quotient with the "
                          "display")
    canon = min(matches, key=abs)
    return {"c": canon, "candidates": matches}


def _matches_display_shift(M, c, order):
    for label in M.basis:
        want = display_monomial(label).shift_spectral(c)
        for g in M.nodes:
            part = {l: e for (i, l, e) in want.key if i == g}
            for sign in (1, -1):
                observed = M.phi_series(g, sign, label, order)
                predicted = expected_phi_series(M, part, sign, order)
                if not observed == predicted:
                    return False
    return True


# ---------------------------------------------------------------------------
# irreducibility of the small quotient
# ---------------------------------------------------------------------------

def rou_irreducible(M, r_bound=1):
    """Brute-force irreducibility of a periodic quotient.

    The k-eigenvalue patterns separate the basis vectors, so every
    invariant subspace is spanned by basis vectors; it then suffices that
    each basis vector reaches every other through the ladder operators.
    """
    pats = {}
    for v in M.basis:
        pat = tuple(repr(M.apply(("k", g, 1), {v: M.one()})[v])
                    for g in M.nodes)
        if pat in pats.values():
            return False
        pats[v] = pat
    reach = {v: {v} for v in M.basis}
    gens = [("xp", g, r) for g in M.nodes for r in range(-r_bound,
                                                         r_bound + 1)]
    gens += [("xm", g, r) for g in M.nodes for r in range(-r_bound,
                                                          r_bound + 1)]
    changed = True
    while changed:
        changed = False
        for v in M.basis:
            for gen in gens:
                for w in list(reach[v]):
                    img = M.apply(gen, {w: M.one()})
                    for lab in img:
                        if lab not in reach[v]:
                            reach[v].add(lab)
                            changed = True
    return all(len(reach[v]) == len(M.basis) for v in M.basis)


# ---------------------------------------------------------------------------
# rank-1 companion at a root of unity
# ---------------------------------------------------------------------------

class HeckeCompanion:
    """The dimension-L pair (X, Y) with XY = e^4 YX over the order-4L
    cyclotomic field, plus the Fourier-dual basis."""

    def __init__(self, L):
        if L < 1:
            raise InputError("L must be >= 1")
        self.L = L
        self.order = 4 * L
        one = CycScalar.one(self.order)
        eps4 = CycScalar.root_power(self.order, 4)
        self.basis = ["w%d" % i for i in range(1, L + 1)]
        self.X = LinOp({"w%d" % i: {"w%d" % i: eps4 ** i}
                        for i in range(1, L + 1)})
        self.Y = LinOp({"w%d" % i: {"w%d" % (i % L + 1): one}
                        for i in range(1, L + 1)})

    def eps_power(self, k):
        return CycScalar.root_power(self.order, k)

    def verify(self):
        """Exact checks: the exchange relation, both spectra, and the
        Fourier change of basis reproducing the dual action."""
        from .linalg import invert_matrix, op_matrix
        eps4 = self.eps_power(4)
        relation_ok = (self.X * self.Y - (self.Y * self.X).scale(eps4)) \
            .is_zero()

        field = Field(CycScalar.zero(self.order), CycScalar.one(self.order))
        spectrum = [eps4 ** j for j in range(self.L)]
        xs_ok = all(self._is_eigenvalue(self.X, lam, field)
                    for lam in spectrum)
        ys_ok = all(self._is_eigenvalue(self.Y, lam, field)
                    for lam in spectrum)
        # annihilating products pin the spectra exactly
        ann_x = self._annihilates(self.X, spectrum, field)
        ann_y = self._annihilates(self.Y, spectrum, field)

        # w_i = sum_j eps^(4ij) m_j; conjugating must give X m_j = m_{j-1}
        # and Y m_j = eps^(4j) m_j
        S = [[self.eps_power(4 * i * j) for j in range(1, self.L + 1)]
             for i in range(1, self.L + 1)]
        Sinv = invert_matrix(S, field)
        Xw = op_matrix(self.X, self.basis, field.zero)
        Yw = op_matrix(self.Y, self.basis, field.zero)
        # columns of S^-1 are the w-coordinates of the m_j (S is symmetric)
        Xm = _conj(S, Xw, Sinv, field)
        Ym = _conj(S, Yw, Sinv, field)
        Xm_want = [[field.one if (i + 1) % self.L == j % self.L else
                    field.zero for j in range(self.L)]
                   for i in range(self.L)]
        Ym_want = [[self.eps_power(4 * (j + 1)) if i == j else field.zero
                    for j in range(self.L)] for i in range(self.L)]
        dual_ok = _mat_eq(Xm, Xm_want) and _mat_eq(Ym, Ym_want)

        return {"relation": relation_ok, "x_spectrum": xs_ok and ann_x,
                "y_spectrum": ys_ok and ann_y, "dual_basis": dual_ok,
                "passed": relation_ok and xs_ok and ys_ok and ann_x
                and ann_y and dual_ok}

    def _is_eigenvalue(self, op, lam, field):
        from .linalg import determinant, op_matrix
        mat = op_matrix(op, self.basis, field.zero)
        shifted = [[mat[r][c] - (lam if r == c else field.zero)
                    for c in range(self.L)] for r in range(self.L)]
        return field.is_zero(determinant(shifted, field))

    def _annihilates(self, op, spectrum, field):
        from .linalg import op_matrix
        n = self.L
        acc = [[field.one if r == c else field.zero for c in range(n)]
               for r in range(n)]
        mat = op_matrix(op, self.basis, field.zero)
        for lam in spectrum:
            shifted = [[mat[r][c] - (lam if r == c else field.zero)
                        for c in range(n)] for r in range(n)]
            acc = _mat_mul(acc, shifted, field)
        return all(field.is_zero(acc[r][c]) for r in range(n)
                   for c in range(n))


def _mat_mul(A, B, field):
    n = len(A)
    return [[_dot(A[r], [B[k][c] for k in range(n)], field)
             for c in range(n)] for r in range(n)]


def _dot(row, col, field):
    acc = field.zero
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


def _conj(Sinv, M, S, field):
    return _mat_mul(_mat_mul(Sinv, M, field), S, field)


def _mat_eq(A, B):
    return all(is_zero_elem(a - b) for ra, rb in zip(A, B)
               for a, b in zip(ra, rb))


def hecke_companion(L):
    return HeckeCompanion(L)
