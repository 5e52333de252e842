"""Exact scalar arithmetic.

Three scalar rings are used throughout the library, all built on
arbitrary-precision rationals:

* ``QScalar``     -- Laurent polynomials in the quantum parameter q,
* ``CycScalar``   -- elements of the cyclotomic field Q(e) with e a primitive
                     N-th root of unity, represented modulo the N-th
                     cyclotomic polynomial,
* ``QRat``        -- the fraction field of ``QScalar`` (rational functions
                     in q), needed where exact linear algebra requires
                     division.

``TruncSeries`` provides window-carrying truncated Laurent series whose
coefficients may live in any of these rings, or be operators; reading a
coefficient outside the window is an error, never a silent zero.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (DomainError, ExactDivisionError, InputError,
                     MixedOrderError, WindowError)


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


class QScalar:
    """Laurent polynomial in q with rational coefficients, sparsely stored."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _frac(v)
                if v:
                    c[int(e)] = v
        self._c = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def q_power(cls, n, coeff=1):
        return cls({n: coeff})

    @classmethod
    def from_const(cls, v):
        return cls({0: v})

    # -- structure ----------------------------------------------------

    def items(self):
        return self._c.items()

    def coeff(self, e):
        return self._c.get(e, Fraction(0))

    def is_zero(self):
        return not self._c

    def is_one(self):
        return self._c == {0: Fraction(1)}

    def as_q_power(self):
        """Return n if self == q^n, else None."""
        if len(self._c) == 1:
            (e, v), = self._c.items()
            if v == 1:
                return e
        return None

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QScalar.from_const(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return QScalar.from_const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in o._c.items():
            nv = c.get(e, Fraction(0)) + v
            if nv:
                c[e] = nv
            else:
                c.pop(e, None)
        r = QScalar.__new__(QScalar)
        r._c = c
        return r

    __radd__ = __add__

    def __neg__(self):
        r = QScalar.__new__(QScalar)
        r._c = {e: -v for e, v in self._c.items()}
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in o._c.items():
                e = e1 + e2
                nv = c.get(e, Fraction(0)) + v1 * v2
                if nv:
                    c[e] = nv
                else:
                    c.pop(e, None)
        r = QScalar.__new__(QScalar)
        r._c = c
        return r

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        acc = QScalar.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self):
        if len(self._c) != 1:
            raise DomainError("QScalar is invertible only when it has a "
                              "single term")
        (e, v), = self._c.items()
        return QScalar({-e: Fraction(1, 1) / v})

    def exact_div(self, other):
        """Exact division; raises ExactDivisionError on a remainder."""
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ExactDivisionError("division by zero or non-scalar")
        if self.is_zero():
            return QScalar.zero()
        # shift both operands to honest polynomials
        lo_n, lo_d = min(self._c), min(o._c)
        num = _dense(self._c, lo_n)
        den = _dense(o._c, lo_d)
        quo, rem = _poly_divmod(num, den)
        if any(rem):
            raise ExactDivisionError("inexact Laurent division")
        return QScalar({i + lo_n - lo_d: v for i, v in enumerate(quo) if v})

    # -- display ------------------------------------------------------

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else "q^%d" % e
                body = var if mag == 1 else "%s*%s" % (mag, var)
            if not parts:
                parts.append(body if v > 0 else "-" + body)
            else:
                parts.append((" + " if v > 0 else " - ") + body)
        return "".join(parts)


def _dense(cmap, lo):
    hi = max(cmap)
    out = [Fraction(0)] * (hi - lo + 1)
    for e, v in cmap.items():
        out[e - lo] = v
    return out


def _poly_divmod(num, den):
    """Long division of dense Fraction coefficient lists (low to high)."""
    num = list(num)
    dd = len(den) - 1
    while dd > 0 and den[dd] == 0:
        dd -= 1
    lead = den[dd]
    if lead == 0:
        raise ExactDivisionError("division by zero polynomial")
    quo = [Fraction(0)] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = c / lead
        quo[i - dd] = f
        for j in range(dd + 1):
            num[i - dd + j] -= f * den[j]
    while num and num[-1] == 0:
        num.pop()
    return quo, num


def q_int(l):
    """The quantum integer [l]_q = (q^l - q^-l)/(q - q^-1)."""
    if l == 0:
        return QScalar.zero()
    if l < 0:
        return -q_int(-l)
    return QScalar({e: 1 for e in range(l - 1, -l - 1, -2)})


def q_factorial(s):
    acc = QScalar.one()
    for j in range(1, s + 1):
        acc = acc * q_int(j)
    return acc


def q_binom(s, k):
    """Quantum binomial [s choose k]_q, computed by exact division."""
    if not (0 <= k <= s):
        raise InputError("q_binom requires 0 <= k <= s, got s=%r k=%r"
                         % (s, k))
    num = q_factorial(s)
    return num.exact_div(q_factorial(s - k)).exact_div(q_factorial(k))


# ---------------------------------------------------------------------------
# cyclotomic fields
# ---------------------------------------------------------------------------

_CYCLO_CACHE = {}


def cyclotomic_polynomial(n):
    """Dense integer coefficient list of Phi_n, low degree first."""
    if n < 1:
        raise InputError("cyclotomic index must be >= 1")
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            quo, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
            poly = quo
    _CYCLO_CACHE[n] = poly
    return poly


class CycScalar:
    """Element of Q(e), e a primitive N-th root of unity, mod Phi_N.

    The order N travels with the element; arithmetic between different
    orders is refused rather than silently embedded.
    """

    __slots__ = ("order", "_c")

    def __init__(self, order, coeffs=()):
        self.order = int(order)
        phi = cyclotomic_polynomial(self.order)
        deg = len(phi) - 1
        dense = [_frac(v) for v in coeffs]
        if len(dense) > deg:
            _, dense = _poly_divmod(dense, phi)
        dense += [Fraction(0)] * (deg - len(dense))
        self._c = tuple(dense[:deg])

    @classmethod
    def _raw(cls, order, coeffs):
        r = cls.__new__(cls)
        r.order = order
        r._c = tuple(coeffs)
        return r

    @classmethod
    def zero(cls, order):
        return cls(order)

    @classmethod
    def one(cls, order):
        return cls(order, (1,))

    @classmethod
    def from_const(cls, order, v):
        return cls(order, (v,))

    @classmethod
    def root_power(cls, order, k):
        """e^k reduced modulo Phi_N."""
        k %= order
        phi = cyclotomic_polynomial(order)
        deg = len(phi) - 1
        dense = [Fraction(0)] * (k + 1)
        dense[k] = Fraction(1)
        _, rem = _poly_divmod(dense, phi)
        rem += [Fraction(0)] * (deg - len(rem))
        return cls._raw(order, rem[:deg])

    def _check(self, other):
        if other.order != self.order:
            raise MixedOrderError(
                "cyclotomic orders differ: %d vs %d" % (self.order,
                                                        other.order))

    def is_zero(self):
        return all(v == 0 for v in self._c)

    def is_one(self):
        return self._c[0] == 1 and all(v == 0 for v in self._c[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.from_const(self.order, other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        self._check(other)
        return self._c == other._c

    def __hash__(self):
        return hash((self.order, self._c))

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar.from_const(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycScalar._raw(self.order,
                              [a + b for a, b in zip(self._c, o._c)])

    __radd__ = __add__

    def __neg__(self):
        return CycScalar._raw(self.order, [-a for a in self._c])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        deg = len(self._c)
        prod = [Fraction(0)] * (2 * deg - 1 if deg else 1)
        for i, a in enumerate(self._c):
            if a == 0:
                continue
            for j, b in enumerate(o._c):
                if b:
                    prod[i + j] += a * b
        _, rem = _poly_divmod(prod, cyclotomic_polynomial(self.order))
        rem += [Fraction(0)] * (deg - len(rem))
        return CycScalar._raw(self.order, rem[:deg])

    __rmul__ = __mul__

    def inverse(self):
        """Inverse in Q(e) via the extended Euclidean algorithm."""
        if self.is_zero():
            raise DomainError("zero has no inverse")
        phi = cyclotomic_polynomial(self.order)
        deg = len(phi) - 1
        # extended Euclid on (self, phi) over Q[x]
        r0, r1 = list(self._c), list(phi)
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while any(r1):
            quo, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s2 = _poly_sub(s0, _poly_mul(quo, s1))
            s0, s1 = s1, s2
        while r0 and r0[-1] == 0:
            r0.pop()
        if len(r0) != 1:
            raise DomainError("element not invertible mod Phi_N")
        inv_lead = Fraction(1) / r0[0]
        s0 = [v * inv_lead for v in s0]
        _, rem = _poly_divmod(s0, phi)
        rem += [Fraction(0)] * (deg - len(rem))
        return CycScalar._raw(self.order, rem[:deg])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def exact_div(self, other):
        return self.__truediv__(other)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = CycScalar.one(self.order)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __repr__(self):
        parts = []
        for i, v in enumerate(self._c):
            if v == 0:
                continue
            body = str(v) if i == 0 else ("e" if i == 1 else "e^%d" % i) \
                if abs(v) == 1 else "%s*e^%d" % (v, i)
            if i > 0 and abs(v) == 1 and v < 0:
                body = "-" + body
            parts.append(body)
        return "Cyc%d(%s)" % (self.order, " + ".join(parts) or "0")


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyclotomic_specialize(x, n):
    """Image of a QScalar under q -> e, a primitive n-th root of unity."""
    if n < 1:
        raise InputError("cyclotomic order must be >= 1")
    acc = CycScalar.zero(n)
    for e, v in x.items():
        acc = acc + CycScalar.root_power(n, e) * v
    return acc


# ---------------------------------------------------------------------------
# rational functions in q
# ---------------------------------------------------------------------------

def _laurent_to_poly(x):
    """Strip the q-power content: returns (dense coeffs, valuation)."""
    lo = min(e for e, _ in x.items())
    return _dense(dict(x.items()), lo), lo


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        _, a = _poly_divmod(a, b)
        a, b = b, a
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
    if not a:
        return [Fraction(1)]
    lead = a[-1]
    return [v / lead for v in a]


class QRat:
    """Rational function in q: a reduced fraction of two QScalars.

    Canonical form: the denominator is a polynomial with nonzero constant
    term and leading coefficient one; the gcd of numerator and denominator
    is trivial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = QScalar.from_const(num)
        if den is None:
            den = QScalar.one()
        elif isinstance(den, (int, Fraction)):
            den = QScalar.from_const(den)
        if den.is_zero():
            raise DomainError("zero denominator")
        self.num, self.den = self._reduce(num, den)

    @staticmethod
    def _reduce(num, den):
        if num.is_zero():
            return QScalar.zero(), QScalar.one()
        npoly, nval = _laurent_to_poly(num)
        dpoly, dval = _laurent_to_poly(den)
        g = _poly_gcd(npoly, dpoly)
        if len(g) > 1:
            npoly, _ = _poly_divmod(npoly, g)
            dpoly, _ = _poly_divmod(dpoly, g)
        # normalize: denominator monic with constant term at q^0
        lead = dpoly[-1]
        num = QScalar({i + nval - dval: v / lead
                       for i, v in enumerate(npoly) if v})
        den = QScalar({i: v / lead for i, v in enumerate(dpoly) if v})
        return num, den

    @classmethod
    def zero(cls):
        return cls(QScalar.zero())

    @classmethod
    def one(cls):
        return cls(QScalar.one())

    @classmethod
    def q_power(cls, n):
        return cls(QScalar.q_power(n))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, QRat):
            return other
        if isinstance(other, (QScalar, int, Fraction)):
            return QRat(other if isinstance(other, QScalar)
                        else QScalar.from_const(other))
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den) == (o.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = QRat.__new__(QRat)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DomainError("division by zero")
        return QRat(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def exact_div(self, other):
        return self / other

    def inverse(self):
        return QRat.one() / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = QRat.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

def is_zero_elem(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


class TruncSeries:
    """Laurent series known exactly on a window [lo, hi].

    Coefficients below ``lo`` are exactly zero (lo is the true lower edge);
    coefficients above ``hi`` are unknown.  Products narrow the window by
    the intersection rule; reading outside the window raises WindowError.
    Coefficients may be scalars or any objects supporting +, * and a zero
    test, so operator-valued series reuse the same machinery.
    """

    __slots__ = ("var", "coeffs", "lo", "hi")

    def __init__(self, var, coeffs, lo, hi):
        if lo > hi:
            raise WindowError("empty window [%d, %d]" % (lo, hi))
        self.var = var
        self.lo = lo
        self.hi = hi
        self.coeffs = {}
        for e, v in coeffs.items():
            if e < lo or e > hi:
                raise WindowError("coefficient at %d outside window "
                                  "[%d, %d]" % (e, lo, hi))
            if not is_zero_elem(v):
                self.coeffs[e] = v

    def at(self, e):
        if e < self.lo or e > self.hi:
            raise WindowError("exponent %d outside window [%d, %d]"
                              % (e, self.lo, self.hi))
        return self.coeffs.get(e)

    def _check(self, other):
        if self.var != other.var:
            raise DomainError("series in different variables: %s vs %s"
                              % (self.var, other.var))

    def __add__(self, other):
        self._check(other)
        lo = min(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        c = {}
        for e in set(self.coeffs) | set(other.coeffs):
            if e > hi:
                continue
            a, b = self.coeffs.get(e), other.coeffs.get(e)
            v = a if b is None else (b if a is None else a + b)
            if not is_zero_elem(v):
                c[e] = v
        return TruncSeries(self.var, c, lo, hi)

    def __neg__(self):
        return TruncSeries(self.var, {e: -v for e, v in self.coeffs.items()},
                           self.lo, self.hi)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        self._check(other)
        lo = self.lo + other.lo
        hi = min(self.hi + other.lo, other.hi + self.lo)
        c = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                if e > hi:
                    continue
                prev = c.get(e)
                c[e] = v1 * v2 if prev is None else prev + v1 * v2
        return TruncSeries(self.var, {e: v for e, v in c.items()
                                      if not is_zero_elem(v)}, lo, hi)

    def inverse(self):
        """Truncated multiplicative inverse; the edge coefficient must be
        invertible and commute with the other coefficients."""
        c0 = self.at(self.lo)
        if c0 is None or is_zero_elem(c0):
            raise DomainError("edge coefficient is not invertible")
        inv0 = invert_elem(c0)
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

    def scale(self, s):
        return TruncSeries(self.var,
                           {e: v * s for e, v in self.coeffs.items()},
                           self.lo, self.hi)

    def shift(self, d):
        return TruncSeries(self.var,
                           {e + d: v for e, v in self.coeffs.items()},
                           self.lo + d, self.hi + d)

    def eq_on_common_window(self, other):
        self._check(other)
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise WindowError("windows do not overlap")
        for e in range(lo, hi + 1):
            a, b = self.coeffs.get(e), other.coeffs.get(e)
            if a is None and b is None:
                continue
            if a is None or b is None:
                if not is_zero_elem(a if b is None else b):
                    return False
            elif not is_zero_elem(a - b):
                return False
        return True

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.var == other.var and self.lo == other.lo
                and self.hi == other.hi
                and self.eq_on_common_window(other))

    def __repr__(self):
        terms = ", ".join("%s^%d: %r" % (self.var, e, self.coeffs[e])
                          for e in sorted(self.coeffs))
        return "Series[%d..%d]{%s}" % (self.lo, self.hi, terms)


class PolyScalar:
    """Sparse multivariate Laurent polynomial over the rationals.

    Exponent vectors are tuples aligned with ``variables``; this is a
    plain ring (no division), used for symbolic parameters.
    """

    __slots__ = ("variables", "_c")

    def __init__(self, variables, coeffs=None):
        self.variables = tuple(variables)
        c = {}
        if coeffs:
            for exps, v in coeffs.items():
                v = _frac(v)
                if v:
                    c[tuple(exps)] = v
        self._c = c

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def one(cls, variables):
        return cls(variables, {tuple([0] * len(variables)): 1})

    @classmethod
    def var(cls, variables, name, power=1):
        exps = [0] * len(variables)
        exps[tuple(variables).index(name)] = power
        return cls(variables, {tuple(exps): 1})

    @classmethod
    def from_qscalar(cls, variables, x, qname="q"):
        k = tuple(variables).index(qname)
        out = {}
        for e, v in x.items():
            exps = [0] * len(variables)
            exps[k] = e
            out[tuple(exps)] = v
        return cls(variables, out)

    def is_zero(self):
        return not self._c

    def _check(self, other):
        if self.variables != other.variables:
            raise DomainError("mixed variable sets")

    def _coerce(self, other):
        if isinstance(other, PolyScalar):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return PolyScalar(self.variables,
                              {tuple([0] * len(self.variables)): other})
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash((self.variables, frozenset(self._c.items())))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in o._c.items():
            nv = c.get(e, Fraction(0)) + v
            if nv:
                c[e] = nv
            else:
                c.pop(e, None)
        r = PolyScalar.__new__(PolyScalar)
        r.variables = self.variables
        r._c = c
        return r

    __radd__ = __add__

    def __neg__(self):
        r = PolyScalar.__new__(PolyScalar)
        r.variables = self.variables
        r._c = {e: -v for e, v in self._c.items()}
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in o._c.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                nv = c.get(e, Fraction(0)) + v1 * v2
                if nv:
                    c[e] = nv
                else:
                    c.pop(e, None)
        r = PolyScalar.__new__(PolyScalar)
        r.variables = self.variables
        r._c = c
        return r

    __rmul__ = __mul__

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            body = "*".join("%s^%d" % (n, p) if p != 1 else n
                            for n, p in zip(self.variables, e) if p)
            v = self._c[e]
            parts.append("%s%s" % (v, "*" + body if body else ""))
        return " + ".join(parts)


def invert_elem(x):
    if hasattr(x, "inverse"):
        return x.inverse()
    if isinstance(x, Fraction) or isinstance(x, int):
        if x == 0:
            raise DomainError("zero constant term")
        return Fraction(1) / Fraction(x)
    raise DomainError("cannot invert %r" % (x,))


def series_log_coeffs(f, order):
    """Coefficients c_1..c_order with f = f(0) exp(sum c_m t^m).

    Requires an invertible constant term and order within the window.
    Returned entries may be None, meaning an exact zero.
    """
    if f.lo != 0:
        raise DomainError("series must start at order 0 for log extraction")
    f0 = f.at(0)
    if f0 is None or is_zero_elem(f0):
        raise DomainError("constant term is not invertible")
    if order > f.hi:
        raise WindowError("log order %d exceeds window top %d"
                          % (order, f.hi))
    inv0 = invert_elem(f0)
    g = f.scale(inv0)
    one = g.at(0)
    u = g - TruncSeries(f.var, {0: one}, 0, f.hi)   # valuation >= 1
    out = {}
    power = None
    sign = 1
    for k in range(1, order + 1):
        power = u if power is None else power * u
        if power.lo > order and k > 1:
            break
        for e, v in power.coeffs.items():
            if 1 <= e <= order:
                term = v * Fraction(sign, k)
                out[e] = out.get(e) + term if e in out else term
        sign = -sign
    return [out.get(m) for m in range(1, order + 1)]


def series_exp(var, coeffs, order, one):
    """exp(sum_{m>=1} c_m t^m) truncated at ``order``; c given as a list.

    ``one`` is the multiplicative identity of the coefficient ring.  List
    entries may be None, read as exact zeros.
    """
    body_coeffs = {m + 1: c for m, c in enumerate(coeffs)
                   if c is not None and not is_zero_elem(c)}
    acc = TruncSeries(var, {0: one}, 0, order)
    if not body_coeffs or order < 1:
        return acc
    body = TruncSeries(var, body_coeffs, 1, order)
    term = TruncSeries(var, {0: one}, 0, order)
    for k in range(1, order + 1):
        term = term * body
        term = term.scale(Fraction(1, k))
        term = TruncSeries(var, term.coeffs, 0, order)
        if term.is_zero():
            break
        acc = acc + term
    return acc
