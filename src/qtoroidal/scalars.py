"""Exact scalar arithmetic.

Three scalar rings are used throughout the library, all exact, and all
computing on one core: integer polynomials held as ``int`` lists, low
degree first (``_iadd``, ``_imul``, ``_iexquo``, ``_igcd``):

* ``QScalar``     -- Laurent polynomials in the quantum parameter q with
                     rational coefficients, held as a power of q times an
                     integer polynomial over one positive integer
                     denominator,
* ``CycScalar``   -- elements of the cyclotomic field Q(e) with e a primitive
                     N-th root of unity, represented modulo the N-th
                     cyclotomic polynomial as an integer polynomial over
                     one positive integer denominator,
* ``QRat``        -- the fraction field of ``QScalar`` (rational functions
                     in q), needed where exact linear algebra requires
                     division; it holds a power of q times a quotient of
                     two polynomials with ``int`` coefficients, reduced
                     by an integer-only gcd.

``Fraction`` appears only at the edges: the constructors and operators of
the three rings accept ``int`` and ``Fraction`` coefficients, and
``QScalar.items``/``coeff`` hand them out as ``Fraction``.  Every element
type here and ``linalg.LinOp`` is falsy exactly when it is zero, which is
the zero test the library uses.

A product with a unit, on either side, is a sign and a shift: +-q^k (over
the denominator 1) in ``QScalar`` and ``QRat`` negates the other factor's
numerator or not and adds k to its q-power, and +-1 in ``CycScalar``
negates the other factor or not.  No polynomial product, reduction mod
Phi_N, gcd or cancellation is made, and a product by 1 hands back the
other factor itself.  ``as_unit`` reads such a unit back as an exponent
and a sign: (e, s) for s q^e in ``QScalar`` and (k, 1) for e^k in
``CycScalar``, else None.  A constant element hashes as the ``int`` or
``Fraction`` it equals.

``TruncSeries`` provides window-carrying truncated Laurent series whose
coefficients may live in any of these rings, or be operators; reading a
coefficient outside the window is an error, never a silent zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (DomainError, ExactDivisionError, InputError,
                     MixedOrderError, WindowError)


# ---------------------------------------------------------------------------
# the integer polynomial core
# ---------------------------------------------------------------------------

# The rings compute on integer polynomials: lists of ints, low degree first,
# with a nonzero top coefficient; the zero polynomial is empty.  The helpers
# never mutate their arguments, so values may share lists.  Lists, not
# tuples: the interpreter keeps freed small tuples on per-size free lists,
# and on repeated l = 3 invariant-subspace runs those kept blocks raised
# the peak resident set by about 1.2 MiB.

def _iadd(a, b, s):
    """a + q^s b for s >= 0."""
    out = list(a)
    if len(out) < len(b) + s:
        out.extend([0] * (len(b) + s - len(out)))
    for i, y in enumerate(b, s):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _imul(a, b):
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else [c * x for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _primitive(a):
    """a over its content, with a positive top coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [x // c for x in a]


def _prem(a, b):
    """A nonzero integer multiple of the remainder of a by b."""
    r = list(a)
    nb = len(b) - 1
    lb = b[-1]
    while len(r) > nb:
        c = r.pop()
        g = gcd(c, lb)
        m, c = lb // g, c // g
        if m != 1:
            r = [x * m for x in r]
        k = len(r) - nb
        for j in range(nb):
            r[k + j] -= c * b[j]
        while r and not r[-1]:
            r.pop()
    return r


def _igcd(a, b):
    """Primitive gcd of two nonzero integer polynomials, by the primitive
    pseudo-remainder sequence (Brown, J. ACM 18(4), 1971)."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    a, b = _primitive(a), _primitive(b)
    while True:
        r = _prem(a, b)
        if not r:
            return b
        if len(r) == 1:
            return [1]
        a, b = b, _primitive(r)


def _iexquo(a, b):
    """The integer polynomial a / b; raises ExactDivisionError when b does
    not divide a in Z[q]."""
    r = list(a)
    nb = len(b) - 1
    lb = b[-1]
    quo = [0] * max(0, len(r) - nb)
    for k in range(len(quo) - 1, -1, -1):
        c, m = divmod(r[k + nb], lb)
        if m:
            raise ExactDivisionError("inexact integer polynomial division")
        if c:
            quo[k] = c
            for j in range(nb):
                r[k + j] -= c * b[j]
    if any(r[:nb]):
        raise ExactDivisionError("inexact integer polynomial division")
    return quo


def _cancel(a, b):
    """a and b divided by their gcd."""
    if len(a) > 1 and len(b) > 1:
        g = _igcd(a, b)
        if len(g) > 1:
            return _iexquo(a, g), _iexquo(b, g)
    return a, b


def _over_lcm(values):
    """(ints, m): the int or Fraction values as ints over their least
    common denominator m."""
    values = list(values)
    m = 1
    for v in values:
        if isinstance(v, Fraction):
            m = lcm(m, v.denominator)
        elif not isinstance(v, int):
            raise TypeError("expected int or Fraction, got %r" % (v,))
    return [v.numerator * (m // v.denominator) for v in values], m


# Subtraction and powers, shared by the scalar rings: each ring brings
# ``_coerce`` (None for a foreign operand), ``+``, ``-x``, ``*`` and, for
# negative powers, ``inverse``.

def _sub(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return self + (-o)


def _rsub(self, other):
    return (-self) + other


def _pow(self, n):
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    if n < 0:
        return self.inverse() ** (-n)
    acc = self._coerce(1)
    base = self
    while n:
        if n & 1:
            acc = acc * base
        base = base * base
        n >>= 1
    return acc


def _times_unit(x, c, k):
    """The nonzero QScalar or QRat x times the unit c q^k, c = +-1: a sign
    on the numerator and a shift of the valuation, already canonical."""
    if c == 1:
        if not k:
            return x
        n = x._n
    else:
        n = [-y for y in x._n]
    r = x.__new__(type(x))
    r._n, r._d, r._v = n, x._d, x._v + k
    return r


# ---------------------------------------------------------------------------
# Laurent polynomials in q
# ---------------------------------------------------------------------------

def _qs(n, d, v):
    """The QScalar q^v n(q)/d, for an int list n with nonzero end
    coefficients (empty, with v = 0, for zero) and a positive int d."""
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = [x // g for x in n]
            d //= g
    r = QScalar.__new__(QScalar)
    r._n, r._d, r._v = n, d, v
    return r


def _qconst(c):
    """The constant QScalar c for an int or Fraction c."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("expected int or Fraction, got %r" % (c,))
    return _qs([c.numerator], c.denominator, 0) if c else _qs([], 1, 0)


class QScalar:
    """Laurent polynomial in q with rational coefficients.

    Stored as q^v n(q)/d: ``_n`` holds int coefficients, low degree first,
    with nonzero end coefficients, and ``_d`` is a positive int coprime to
    their content, so the form is unique and equality compares it.  Zero
    is [] over 1 with v = 0.  Stored lists are shared between values and
    never mutated.
    """

    __slots__ = ("_n", "_d", "_v")

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        ints, d = _over_lcm(coeffs.values())
        terms = {int(e): c for e, c in zip(coeffs, ints) if c}
        n, v = [], 0
        if terms:
            v = min(terms)
            n = [0] * (max(terms) - v + 1)
            for e, c in terms.items():
                n[e - v] = c
        r = _qs(n, d, v)
        self._n, self._d, self._v = r._n, r._d, r._v

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return _qs([], 1, 0)

    @classmethod
    def one(cls):
        return _qs([1], 1, 0)

    @classmethod
    def q_power(cls, n):
        return _qs([1], 1, int(n))

    @classmethod
    def from_const(cls, v):
        return _qconst(v)

    # -- structure ----------------------------------------------------

    def items(self):
        """(exponent, Fraction coefficient) pairs of the nonzero terms."""
        d, v = self._d, self._v
        return [(v + i, Fraction(c, d)) for i, c in enumerate(self._n) if c]

    def coeff(self, e):
        i = e - self._v
        n = self._n
        return Fraction(n[i] if 0 <= i < len(n) else 0, self._d)

    def is_zero(self):
        return not self._n

    def is_one(self):
        return self._n == [1] and self._d == 1 and not self._v

    def as_q_power(self):
        """Return n if self == q^n, else None."""
        return self._v if self._n == [1] and self._d == 1 else None

    def as_unit(self):
        """(e, s) when self == s q^e with s = +-1, else None."""
        n = self._n
        if self._d == 1 and len(n) == 1 and n[0] in (1, -1):
            return self._v, n[0]
        return None

    def __bool__(self):
        return bool(self._n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._v == o._v and self._d == o._d and self._n == o._n

    def __hash__(self):
        # a constant hashes as the int or Fraction it equals
        n = self._n
        if len(n) < 2 and not self._v:
            return hash(Fraction(n[0], self._d)) if n else 0
        return hash((tuple(n), self._d, self._v))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return _qconst(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            return self
        if not self._n:
            return o
        na, da, va = self._n, self._d, self._v
        nb, db, vb = o._n, o._d, o._v
        if va > vb:
            na, da, va, nb, db, vb = nb, db, vb, na, da, va
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            na = [x * fa for x in na]
            nb = [y * fb for y in nb]
            da *= fa
        t = _iadd(na, nb, vb - va)
        if not t:
            return QScalar.zero()
        k = 0
        while not t[k]:
            k += 1
        return _qs(t[k:] if k else t, da, va + k)

    __radd__ = __add__

    def __neg__(self):
        return _qs([-x for x in self._n], self._d, self._v)

    __sub__ = _sub
    __rsub__ = _rsub

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n:
            return self
        if not o._n:
            return o
        for x, u in ((self, o), (o, self)):
            if u._d == 1 and len(u._n) == 1 and u._n[0] in (1, -1):
                return _times_unit(x, u._n[0], u._v)
        return _qs(_imul(self._n, o._n), self._d * o._d, self._v + o._v)

    __rmul__ = __mul__
    __pow__ = _pow

    def inverse(self):
        if len(self._n) != 1:
            raise DomainError("QScalar is invertible only when it has a "
                              "single term")
        c = self._n[0]
        return _qs([self._d if c > 0 else -self._d], abs(c), -self._v)

    def exact_div(self, other):
        """Exact division; raises ExactDivisionError on a remainder.

        By Gauss's lemma a primitive divisor divides over Q exactly when
        it divides over Z, so the primitive parts divide as integer
        polynomials and the contents as rationals.
        """
        o = self._coerce(other)
        if o is None or not o._n:
            raise ExactDivisionError("division by zero or non-scalar")
        if not self._n:
            return self
        ca, cb = gcd(*self._n), gcd(*o._n)
        quo = _iexquo([x // ca for x in self._n], [x // cb for x in o._n])
        f = ca * o._d
        return _qs([x * f for x in quo], self._d * cb, self._v - o._v)

    # -- display ------------------------------------------------------

    def __repr__(self):
        n, d = self._n, self._d
        if not n:
            return "0"
        parts = []
        for i in range(len(n) - 1, -1, -1):
            c = n[i]
            if not c:
                continue
            g = gcd(c, d)
            num, den = abs(c) // g, d // g
            mag = str(num) if den == 1 else "%d/%d" % (num, den)
            e = self._v + i
            if e == 0:
                body = mag
            else:
                var = "q" if e == 1 else "q^%d" % e
                body = var if mag == "1" else "%s*%s" % (mag, var)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)


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

# Per order N: (Phi_N low to high, its nonzero (index, coefficient) pairs
# below the monic top, the N residues of x^k mod Phi_N).
_CYC_TABLES = {}


def _cyc_table(n):
    t = _CYC_TABLES.get(n)
    if t is None:
        if n < 1:
            raise InputError("cyclotomic index must be >= 1")
        # x^n - 1 divided by Phi_d for every proper divisor d of n
        phi = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                phi = _iexquo(phi, _cyc_table(d)[0])
        deg = len(phi) - 1
        tail = [(j, c) for j, c in enumerate(phi[:deg]) if c]
        powers = [[0] * deg]
        powers[0][0] = 1
        for _ in range(n - 1):
            prev = powers[-1]
            top = prev[-1]
            nxt = [0] + prev[:-1]
            for j, c in tail:
                nxt[j] -= top * c
            powers.append(nxt)
        t = _CYC_TABLES[n] = (phi, tail, powers)
    return t


# Per order N: the residue of each root of unity e^k, 0 <= k < N, as a
# tuple, mapped to k; built on the first ``as_unit`` at that order.
_CYC_UNITS = {}


def _cyc_units(n):
    u = _CYC_UNITS.get(n)
    if u is None:
        u = _CYC_UNITS[n] = {tuple(p): k
                             for k, p in enumerate(_cyc_table(n)[2])}
    return u


def _cyc_reduce(p, order):
    """The integer polynomial p reduced mod the monic Phi_order and padded
    to its degree; p is consumed, except that a list of exactly that
    length, such as a reduced factor that ``_imul`` hands back when the
    other factor is [1], comes back untouched."""
    phi, tail, _ = _cyc_table(order)
    deg = len(phi) - 1
    for k in range(len(p) - 1, deg - 1, -1):
        c = p[k]
        if c:
            base = k - deg
            for j, f in tail:
                p[base + j] -= c * f
    del p[deg:]
    p.extend([0] * (deg - len(p)))
    return p


def _cyc_eval(terms, k, order):
    """sum c e^(k i) over the (i, c) pairs of terms, e a primitive
    order-th root of unity, reduced mod Phi_order."""
    powers = _cyc_table(order)[2]
    acc = [0] * len(powers[0])
    for i, c in terms:
        if c:
            for j, p in enumerate(powers[k * i % order]):
                if p:
                    acc[j] += c * p
    return acc


def _cyc(order, n, d):
    """The CycScalar n(e)/d for d > 0, brought to canonical form."""
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = [x // g for x in n]
            d //= g
    r = CycScalar.__new__(CycScalar)
    r.order, r._n, r._d = order, n, d
    return r


class CycScalar:
    """Element of Q(e), e a primitive N-th root of unity, mod Phi_N.

    Stored as n(e)/d: ``_n`` holds deg Phi_N int coefficients, low degree
    first, and ``_d`` is a positive int coprime to their content, so the
    form is unique and equality compares it.  Zero is all zeros over 1.
    Stored lists are shared between values and never mutated.

    The order N travels with the element; arithmetic between different
    orders is refused rather than silently embedded.
    """

    __slots__ = ("order", "_n", "_d")

    def __init__(self, order, coeffs=()):
        order = int(order)
        n, m = _over_lcm(coeffs)
        r = _cyc(order, _cyc_reduce(n, order), m)
        self.order, self._n, self._d = order, r._n, r._d

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
        return _cyc(order, _cyc_table(order)[2][k % order], 1)

    def _check(self, other):
        if other.order != self.order:
            raise MixedOrderError(
                "cyclotomic orders differ: %d vs %d" % (self.order,
                                                        other.order))

    def is_zero(self):
        return not any(self._n)

    def is_one(self):
        n = self._n
        return self._d == 1 and n[0] == 1 and not any(n[1:])

    def as_unit(self):
        """(k, 1) when self == e^k with 0 <= k < N, else None.  For even N,
        -e^k is e^(k + N/2) and reads as such."""
        if self._d != 1:
            return None
        k = _cyc_units(self.order).get(tuple(self._n))
        return None if k is None else (k, 1)

    def __bool__(self):
        return any(self._n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._n == o._n

    def __hash__(self):
        # a constant hashes as the int or Fraction it equals
        n = self._n
        if not any(n[1:]):
            return hash(Fraction(n[0], self._d))
        return hash((self.order, tuple(n), self._d))

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
        da, db = self._d, o._d
        if da == db:
            return _cyc(self.order, [x + y for x, y in zip(self._n, o._n)],
                        da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _cyc(self.order,
                    [x * fa + y * fb for x, y in zip(self._n, o._n)],
                    da * fa)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, [-x for x in self._n], self._d)

    __sub__ = _sub
    __rsub__ = _rsub

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a unit +-1, the residue +-[1, 0, ..., 0]: the other factor or its
        # negation, already canonical
        for x, u in ((self, o), (o, self)):
            n = u._n
            if u._d == 1 and n[0] in (1, -1) and n.count(0) == len(n) - 1:
                if n[0] == 1:
                    return x
                r = CycScalar.__new__(CycScalar)
                r.order, r._n, r._d = x.order, [-c for c in x._n], x._d
                return r
        prod = _cyc_reduce(_imul(self._n, o._n), self.order)
        return _cyc(self.order, prod, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self):
        """Inverse in Q(e) by the norm: with s_k the conjugation e -> e^k,
        k prime to N, the norm x * prod_{k != 1} s_k(x) is rational, so
        x^-1 is that product of the other conjugates over the norm
        (H. Cohen, A Course in Computational Algebraic Number Theory,
        GTM 138, section 4.3)."""
        if not self:
            raise DomainError("zero has no inverse")
        order, a = self.order, self._n
        co = [1]
        for k in range(2, order):
            if gcd(k, order) == 1:
                co = _cyc_reduce(_imul(co, _cyc_eval(enumerate(a), k, order)),
                                 order)
        norm = _cyc_reduce(_imul(a, co), order)[0]
        f = self._d if norm > 0 else -self._d
        return _cyc(order, [x * f for x in co], abs(norm))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def exact_div(self, other):
        return self.__truediv__(other)

    __pow__ = _pow

    def __repr__(self):
        parts = []
        d = self._d
        for i, c in enumerate(self._n):
            if not c:
                continue
            g = gcd(c, d)
            num, den = c // g, d // g
            v = str(num) if den == 1 else "%d/%d" % (num, den)
            if i == 0:
                body = v
            elif den == 1 and abs(num) == 1:
                body = ("e" if i == 1 else "e^%d" % i)
                if num < 0:
                    body = "-" + body
            else:
                body = "%s*e^%d" % (v, i)
            parts.append(body)
        return "Cyc%d(%s)" % (self.order, " + ".join(parts) or "0")


def cyclotomic_specialize(x, n):
    """Image of a QScalar under q -> e, a primitive n-th root of unity."""
    return _cyc(n, _cyc_eval(enumerate(x._n, x._v), 1, n), x._d)


# ---------------------------------------------------------------------------
# rational functions in q
# ---------------------------------------------------------------------------

def _int_laurent(x):
    """(p, v, m) with x = q^v p(q) / m, p an integer polynomial with a
    nonzero constant term and m a positive int."""
    if isinstance(x, (int, Fraction)):
        return ([x.numerator] if x else []), 0, x.denominator
    if not isinstance(x, QScalar):
        raise TypeError("expected QScalar, int or Fraction, got %r" % (x,))
    return x._n, x._v, x._d


def _qrat(n, d, v):
    """The QRat with parts already in canonical form."""
    r = QRat.__new__(QRat)
    r._n, r._d, r._v = n, d, v
    return r


def _rat_mul(na, da, va, nb, db, vb):
    """q^va na/da times q^vb nb/db, both in canonical form; a common
    factor can only sit across, in (na, db) or (nb, da)."""
    na, db = _cancel(na, db)
    nb, da = _cancel(nb, da)
    return _qrat(*QRat._reduce(_imul(na, nb), _imul(da, db), va + vb))


class QRat:
    """Rational function in q, stored as q^v n(q)/d(q) with n and d
    polynomials with integer coefficients.

    Canonical form: n and d have nonzero constant terms, so the q-adic
    valuation is v; gcd(n, d) = 1 in Q[q]; the integer content of n and d
    together is 1; the top coefficient of d is positive.  Zero is n = [],
    d = [1], v = 0.  The form is unique, so equality compares it.
    """

    __slots__ = ("_n", "_d", "_v")

    def __init__(self, num, den=None):
        n, vn, mn = _int_laurent(num)
        d, vd, md = ([1], 0, 1) if den is None else _int_laurent(den)
        if not d:
            raise DomainError("zero denominator")
        if not n:
            self._n, self._d, self._v = [], [1], 0
            return
        n, d = _cancel(_imul(n, [md]), _imul(d, [mn]))
        self._n, self._d, self._v = self._reduce(n, d, vn - vd)

    @staticmethod
    def _reduce(n, d, v):
        """Canonical (n, d, v) for q^v n/d; n and d are coprime, nonzero
        and have nonzero constant terms."""
        c = gcd(*n, *d)
        if d[-1] < 0:
            c = -c
        if c != 1:
            n = [x // c for x in n]
            d = [x // c for x in d]
        return n, d, v

    @classmethod
    def zero(cls):
        return _qrat([], [1], 0)

    @classmethod
    def one(cls):
        return _qrat([1], [1], 0)

    @classmethod
    def q_power(cls, n):
        return _qrat([1], [1], n)

    @property
    def num(self):
        """The numerator over the monic denominator ``den``, a QScalar."""
        return _qs(self._n, self._d[-1], self._v)

    @property
    def den(self):
        """The monic denominator, a QScalar with a nonzero constant term."""
        return _qs(self._d, self._d[-1], 0)

    def is_zero(self):
        return not self._n

    def __bool__(self):
        return bool(self._n)

    def _coerce(self, other):
        if isinstance(other, QRat):
            return other
        if isinstance(other, (QScalar, int, Fraction)):
            return QRat(other)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._v == o._v and self._d == o._d

    def __hash__(self):
        # over a constant denominator [d] the canonical form is the
        # QScalar n/d's, so hash as it does: a constant as the int or
        # Fraction it equals, otherwise (tuple(n), d, v)
        n, d = self._n, self._d
        if len(d) == 1:
            if len(n) < 2 and not self._v:
                return hash(Fraction(n[0], d[0])) if n else 0
            return hash((tuple(n), d[0], self._v))
        return hash((tuple(n), tuple(d), self._v))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            return self
        if not self._n:
            return o
        na, da, va = self._n, self._d, self._v
        nb, db, vb = o._n, o._d, o._v
        if va > vb:
            na, da, va, nb, db, vb = nb, db, vb, na, da, va
        if da == db:
            g = d = da
            t = _iadd(na, nb, vb - va)
        else:
            # Henrici: with g = gcd(da, db), the sum is
            # (na db/g + q^s nb da/g) / (da db/g), and a factor common to
            # that numerator and denominator divides g
            g = _igcd(da, db)
            ea, eb = ((_iexquo(da, g), _iexquo(db, g)) if len(g) > 1
                      else (da, db))
            t = _iadd(_imul(na, eb), _imul(nb, ea), vb - va)
            d = _imul(da, eb)
        if not t:
            return QRat.zero()
        k = 0
        while not t[k]:
            k += 1
        if k:
            t = t[k:]
        if len(g) > 1 and len(t) > 1:
            g = _igcd(t, g)
            if len(g) > 1:
                t, d = _iexquo(t, g), _iexquo(d, g)
        return _qrat(*QRat._reduce(t, d, va + k))

    __radd__ = __add__

    def __neg__(self):
        return _qrat([-x for x in self._n], self._d, self._v)

    __sub__ = _sub
    __rsub__ = _rsub

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n:
            return self
        if not o._n:
            return o
        for x, u in ((self, o), (o, self)):
            if u._d == [1] and len(u._n) == 1 and u._n[0] in (1, -1):
                return _times_unit(x, u._n[0], u._v)
        return _rat_mul(self._n, self._d, self._v, o._n, o._d, o._v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            raise DomainError("division by zero")
        if not self._n:
            return self
        return _rat_mul(self._n, self._d, self._v, o._d, o._n, -o._v)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def exact_div(self, other):
        return self / other

    def inverse(self):
        return QRat.one() / self

    __pow__ = _pow

    def __repr__(self):
        if len(self._d) == 1:
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

class TruncSeries:
    """Laurent series known exactly on a window [lo, hi].

    Coefficients below ``lo`` are exactly zero (lo is the true lower edge);
    coefficients above ``hi`` are unknown.  Products narrow the window by
    the intersection rule; reading outside the window raises WindowError.
    Coefficients may be scalars or any objects supporting +, *, a zero
    test and equality of canonical forms, so operator-valued series reuse
    the same machinery.
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
            if v:
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
            if v:
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
        return TruncSeries(self.var, c, lo, hi)

    def scale(self, s):
        return TruncSeries(self.var,
                           {e: v * s for e, v in self.coeffs.items()},
                           self.lo, self.hi)

    def shift(self, d):
        return TruncSeries(self.var,
                           {e + d: v for e, v in self.coeffs.items()},
                           self.lo + d, self.hi + d)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        # stored coefficients are nonzero canonical values
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.var == other.var and self.lo == other.lo
                and self.hi == other.hi and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = ", ".join("%s^%d: %r" % (self.var, e, self.coeffs[e])
                          for e in sorted(self.coeffs))
        return "Series[%d..%d]{%s}" % (self.lo, self.hi, terms)
