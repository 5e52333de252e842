import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoroidal.errors import (DomainError, ExactDivisionError, InputError,
                              MixedOrderError, WindowError)
from qtoroidal.fusion import _series_product
from qtoroidal.linalg import LinOp, add_into, op_matrix
from qtoroidal.scalars import (CycScalar, QRat, QScalar, TruncSeries,
                               _cyc_table, _iexquo, cyclotomic_specialize,
                               q_binom, q_factorial, q_int)
from series_oracles import series_log_coeffs


def test_q_int_two():
    assert q_int(2) == QScalar({1: 1, -1: 1})


def test_q_int_minus_one():
    assert q_int(-1) == QScalar({0: -1})


def test_q_int_antisymmetry():
    for l in range(-6, 7):
        assert q_int(-l) == -q_int(l)


def test_q_binom_4_2_against_division_oracle():
    # independent oracle: multiplying back must reproduce [4]!
    b = q_binom(4, 2)
    assert b * q_factorial(2) * q_factorial(2) == q_factorial(4)
    assert all(v > 0 and v.denominator == 1 for _, v in b.items())
    # the classical expansion of [4 2]_q
    assert b == QScalar({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


@pytest.mark.parametrize("s", range(0, 7))
def test_q_binom_symmetry_and_positivity(s):
    for k in range(0, s + 1):
        b = q_binom(s, k)
        assert b == q_binom(s, s - k)
        assert all(v.denominator == 1 and v > 0 for _, v in b.items())


def test_q_binom_range_error():
    with pytest.raises(InputError):
        q_binom(3, 4)
    with pytest.raises(InputError):
        q_binom(3, -1)


def test_exact_division_error():
    with pytest.raises(ExactDivisionError):
        (QScalar({1: 1, 0: 1})).exact_div(QScalar({2: 1, 0: 1}))


def test_laurent_inverse():
    x = QScalar({3: Fraction(2, 5)})
    assert x * x.inverse() == QScalar.one()
    with pytest.raises(DomainError):
        QScalar({1: 1, 0: 1}).inverse()


def test_cyclotomic_poly_small():
    # the integer coefficients of Phi_n, low degree first
    assert list(_cyc_table(1)[0]) == [-1, 1]
    assert list(_cyc_table(4)[0]) == [1, 0, 1]
    assert list(_cyc_table(6)[0]) == [1, -1, 1]


def test_specialize_q_plus_qinv_at_4():
    assert cyclotomic_specialize(q_int(2), 4).is_zero()


def test_specialize_q4_at_4():
    assert cyclotomic_specialize(QScalar.q_power(4), 4).is_one()


def test_specialize_q_int2_at_6():
    # x + x^5 mod Phi_6 = x^2 - x + 1 reduces to 1 (x^5 = 1 - x there)
    assert cyclotomic_specialize(q_int(2), 6) == CycScalar.one(6)


def test_mixed_order_error():
    with pytest.raises(MixedOrderError):
        CycScalar.root_power(4, 1) + CycScalar.root_power(8, 1)


def test_cyclotomic_inverse():
    for n in (3, 4, 5, 8, 12):
        x = CycScalar.root_power(n, 1) + 2
        assert (x * x.inverse()).is_one()


def test_qscalar_as_unit_reads_signed_q_powers():
    for e in range(-6, 7):
        assert QScalar.q_power(e).as_unit() == (e, 1)
        assert (-QScalar.q_power(e)).as_unit() == (e, -1)
    for x in (QScalar.zero(), QScalar.from_const(2),
              QScalar.from_const(Fraction(1, 2)), QScalar({1: 1, -1: -1}),
              q_int(2)):
        assert x.as_unit() is None, x


@pytest.mark.parametrize("order", [4, 8, 12, 16])
def test_cycscalar_as_unit_reads_roots_of_unity(order):
    # -1 is e^(N/2), so a negated root reads as a shifted one
    for k in range(order):
        x = CycScalar.root_power(order, k)
        assert x.as_unit() == (k, 1)
        assert (-x).as_unit() == ((k + order // 2) % order, 1)
    for x in (CycScalar.zero(order), CycScalar.from_const(order, 2)):
        assert x.as_unit() is None, x
    # q - q^-1 goes to e - e^-1 = 2i sin(2 pi / N), a unit only at N = 12,
    # where it is i = e^3
    qq_inv = cyclotomic_specialize(QScalar({1: 1, -1: -1}), order)
    assert qq_inv.as_unit() == ((3, 1) if order == 12 else None)


qscalars = st.builds(
    QScalar,
    st.dictionaries(st.integers(-5, 5),
                    st.fractions(min_value=-9, max_value=9), max_size=5))


@settings(max_examples=60, deadline=None)
@given(qscalars, qscalars, st.sampled_from([3, 4, 6, 8]))
def test_specialize_is_ring_morphism(x, y, n):
    assert (cyclotomic_specialize(x * y, n)
            == cyclotomic_specialize(x, n) * cyclotomic_specialize(y, n))
    assert (cyclotomic_specialize(x + y, n)
            == cyclotomic_specialize(x, n) + cyclotomic_specialize(y, n))


def _frac_divmod(num, den):
    """Long division of dense Fraction lists, low degree first."""
    num = list(num)
    dd = len(den) - 1
    while dd > 0 and den[dd] == 0:
        dd -= 1
    lead = den[dd]
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


def _frac_gcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        _, a = _frac_divmod(a, b)
        a, b = b, a
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
    if not a:
        return [Fraction(1)]
    lead = a[-1]
    return [v / lead for v in a]


def _frac_laurent(x):
    """(dense Fraction coefficients from the lowest power, that power)."""
    c = dict(x.items())
    lo = min(c)
    out = [Fraction(0)] * (max(c) - lo + 1)
    for e, v in c.items():
        out[e - lo] = v
    return out, lo


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


class FractionQScalar:
    """Laurent polynomial in q as a sparse dict of Fraction coefficients,
    divided by Fraction long division.  Kept as the oracle for the
    integer ``QScalar``."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _frac(v)
                if v:
                    c[int(e)] = v
        self._c = c

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def from_const(cls, v):
        return cls({0: v})

    def items(self):
        return self._c.items()

    def coeff(self, e):
        return self._c.get(e, Fraction(0))

    def is_zero(self):
        return not self._c

    def is_one(self):
        return self._c == {0: Fraction(1)}

    def as_q_power(self):
        if len(self._c) == 1:
            (e, v), = self._c.items()
            if v == 1:
                return e
        return None

    def __bool__(self):
        return bool(self._c)

    def _coerce(self, other):
        if isinstance(other, FractionQScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQScalar.from_const(other)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in o._c.items():
            c[e] = c.get(e, Fraction(0)) + v
        return FractionQScalar(c)

    __radd__ = __add__

    def __neg__(self):
        return FractionQScalar({e: -v for e, v in self._c.items()})

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
                c[e1 + e2] = c.get(e1 + e2, Fraction(0)) + v1 * v2
        return FractionQScalar(c)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = FractionQScalar.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def inverse(self):
        if len(self._c) != 1:
            raise DomainError("QScalar is invertible only when it has a "
                              "single term")
        (e, v), = self._c.items()
        return FractionQScalar({-e: 1 / v})

    def exact_div(self, other):
        o = self._coerce(other)
        if o is None or o.is_zero():
            raise ExactDivisionError("division by zero or non-scalar")
        if self.is_zero():
            return FractionQScalar()
        num, lo_n = _frac_laurent(self)
        den, lo_d = _frac_laurent(o)
        quo, rem = _frac_divmod(num, den)
        if any(rem):
            raise ExactDivisionError("inexact Laurent division")
        return FractionQScalar({i + lo_n - lo_d: v
                                for i, v in enumerate(quo) if v})

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


def to_oracle(x):
    """The FractionQScalar of an int, a Fraction or a QScalar, read
    through ``items()`` so that no oracle computes with ``QScalar``."""
    if isinstance(x, (int, Fraction)):
        return FractionQScalar.from_const(x)
    return FractionQScalar(dict(x.items()))


class FractionQRat:
    """Rational function in q as a reduced fraction of two Fraction
    QScalars, with a Euclidean gcd over Q[q] after every operation.  Kept
    as the oracle for the integer-polynomial ``QRat``."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = to_oracle(num)
        den = FractionQScalar.one() if den is None else to_oracle(den)
        if den.is_zero():
            raise DomainError("zero denominator")
        self.num, self.den = self._reduce(num, den)

    @staticmethod
    def _reduce(num, den):
        if num.is_zero():
            return FractionQScalar(), FractionQScalar.one()
        npoly, nval = _frac_laurent(num)
        dpoly, dval = _frac_laurent(den)
        g = _frac_gcd(npoly, dpoly)
        if len(g) > 1:
            npoly, _ = _frac_divmod(npoly, g)
            dpoly, _ = _frac_divmod(dpoly, g)
        lead = dpoly[-1]
        num = FractionQScalar({i + nval - dval: v / lead
                               for i, v in enumerate(npoly) if v})
        den = FractionQScalar({i: v / lead for i, v in enumerate(dpoly)
                               if v})
        return num, den

    @classmethod
    def one(cls):
        return cls(1)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, FractionQRat):
            return other
        if isinstance(other, (QScalar, int, Fraction)):
            return FractionQRat(other)
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
        return FractionQRat(self.num * o.den + o.num * self.den,
                            self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = FractionQRat.__new__(FractionQRat)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionQRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DomainError("division by zero")
        return FractionQRat(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return FractionQRat.one() / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = FractionQRat.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


def _frac_cyclotomic(n, _cache={}):
    """Phi_n as a dense Fraction list, low degree first."""
    if n not in _cache:
        poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                poly, rem = _frac_divmod(poly, _frac_cyclotomic(d))
                assert not any(rem)
        _cache[n] = poly
    return _cache[n]


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


class FractionCycScalar:
    """Element of Q(e) mod Phi_N with one Fraction per coefficient, reduced
    by Fraction long division.  Kept as the oracle for the integer
    ``CycScalar``."""

    __slots__ = ("order", "_c")

    def __init__(self, order, coeffs=()):
        self.order = order
        phi = _frac_cyclotomic(order)
        deg = len(phi) - 1
        dense = [Fraction(v) for v in coeffs]
        if len(dense) > deg:
            _, dense = _frac_divmod(dense, phi)
        self._c = tuple(dense + [Fraction(0)] * (deg - len(dense)))

    @classmethod
    def root_power(cls, order, k):
        k %= order
        return cls(order, [0] * k + [1])

    def is_zero(self):
        return not any(self._c)

    def is_one(self):
        return self._c[0] == 1 and not any(self._c[1:])

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, FractionCycScalar):
            if other.order != self.order:
                raise MixedOrderError("cyclotomic orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return FractionCycScalar(self.order, (other,))
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash((self.order, self._c))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionCycScalar(self.order,
                                 [a + b for a, b in zip(self._c, o._c)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCycScalar(self.order, [-a for a in self._c])

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
        return FractionCycScalar(self.order, _frac_poly_mul(self._c, o._c))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DomainError("zero has no inverse")
        r0, r1 = list(self._c), list(_frac_cyclotomic(self.order))
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while any(r1):
            quo, rem = _frac_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(quo, s1))
        while r0 and r0[-1] == 0:
            r0.pop()
        return FractionCycScalar(self.order, [v / r0[0] for v in s0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = FractionCycScalar(self.order, (1,))
        for _ in range(n):
            acc = acc * self
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


def frac_specialize(x, n):
    acc = FractionCycScalar(n)
    for e, v in to_oracle(x).items():
        acc = acc + FractionCycScalar.root_power(n, e) * v
    return acc


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
laurent = st.builds(QScalar, st.dictionaries(st.integers(-3, 3),
                                             small_fractions, max_size=4))
nonzero_laurent = laurent.filter(lambda x: not x.is_zero())


@st.composite
def rat_args(draw):
    """(num, den) of a rational function; half the time both carry a
    forced common factor."""
    num, den = draw(laurent), draw(nonzero_laurent)
    if draw(st.booleans()):
        c = draw(nonzero_laurent)
        num, den = num * c, den * c
    return num, den


# Units c q^k with c = +-1, and near-units with c = 3, 5 or 1/5: a product
# with a unit is a shift and a sign, and the near-units must not pass for
# units.  A list of (exponent, coefficient) pairs builds either ring.
unit_coeffs = st.sampled_from([1, -1, 1, -1, 3, 5, Fraction(1, 5),
                               Fraction(-1, 5)])
unit_terms = st.tuples(st.sampled_from([0, 0, -2, -1, 1, 3]), unit_coeffs)


@st.composite
def operands(draw):
    """(QRat operand, oracle operand): a rational function, a unit or
    near-unit over 1, 5 or -1, or the same int, Fraction or QScalar handed
    to both."""
    kind = draw(st.sampled_from(["rat", "rat", "int", "fraction",
                                 "laurent", "unit", "unit"]))
    if kind == "rat":
        num, den = draw(rat_args())
        return QRat(num, den), FractionQRat(num, den)
    if kind == "unit":
        k, c = draw(unit_terms)
        num, den = QScalar({k: c}), draw(st.sampled_from([1, 1, 5, -1]))
        return QRat(num, den), FractionQRat(num, den)
    x = draw({"int": st.integers(-5, 5), "fraction": small_fractions,
              "laurent": laurent | st.builds(lambda t: QScalar(dict([t])),
                                             unit_terms)}[kind])
    return x, x


def assert_int_parts(x):
    """A QRat stores int coefficients and an int valuation: no float and
    no Fraction."""
    for c in (*x._n, *x._d, x._v):
        assert type(c) is int, (x, c)


def agree(got, want):
    assert_int_parts(got)
    assert repr(got) == repr(want)
    assert got.is_zero() == want.is_zero()
    assert bool(got) == bool(want)


def same_outcome(got, want):
    """Both calls raise DomainError, or their results agree."""
    try:
        w = want()
    except DomainError:
        with pytest.raises(DomainError):
            got()
        return
    agree(got(), w)


@settings(max_examples=150, deadline=None)
@given(rat_args(), operands(), st.integers(-3, 3))
def test_qrat_matches_fraction_oracle(args, pair, n):
    x, ox = QRat(*args), FractionQRat(*args)
    y, oy = pair
    agree(x, ox)
    agree(-x, -ox)
    for op in (operator.add, operator.sub, operator.mul):
        agree(op(x, y), op(ox, oy))
        agree(op(y, x), op(oy, ox))
    same_outcome(lambda: x / y, lambda: ox / oy)
    same_outcome(lambda: y / x, lambda: oy / ox)
    same_outcome(x.inverse, ox.inverse)
    same_outcome(lambda: x ** n, lambda: ox ** n)
    assert (x == y) == (ox == oy)
    assert (y == x) == (oy == ox)


@settings(max_examples=60, deadline=None)
@given(rat_args(), nonzero_laurent, operands())
def test_qrat_equal_values_hash_equally(args, c, pair):
    num, den = args
    x = QRat(num, den)
    same = QRat(num * c, den * c)
    assert same == x and hash(same) == hash(x)
    y, _ = pair
    back = (x + y) - y
    assert back == x and hash(back) == hash(x)


@settings(max_examples=80, deadline=None)
@given(laurent | st.builds(lambda t: QScalar(dict([t])), unit_terms),
       rat_args())
def test_qrat_hashes_as_the_qscalar_it_equals(x, args):
    # a QRat over a constant denominator equals a QScalar, so it hashes
    # as one, also when reached through a non-constant denominator
    y = QRat(*args)
    for got in (QRat(x), (QRat(x) + y) - y):
        assert got == x and hash(got) == hash(x), got
        assert len({got, x}) == 1



laurent_coeffs = st.dictionaries(st.integers(-3, 3), small_fractions,
                                 max_size=4)


@st.composite
def qscalar_operands(draw):
    """(QScalar operand, oracle operand): a Laurent polynomial, a unit or
    a near-unit, and its oracle copy, or the same int or Fraction handed
    to both."""
    kind = draw(st.sampled_from(["laurent", "laurent", "int", "fraction",
                                 "unit", "unit"]))
    if kind != "int" and kind != "fraction":
        x = draw(laurent if kind == "laurent"
                 else st.builds(lambda t: QScalar(dict([t])), unit_terms))
        return x, to_oracle(x)
    x = draw(st.integers(-5, 5) if kind == "int" else small_fractions)
    return x, x


def assert_canonical_qscalar(x):
    """A QScalar stores int coefficients with nonzero ends over a positive
    int denominator coprime to their content: no float and no Fraction."""
    for c in (*x._n, x._d, x._v):
        assert type(c) is int, (x, c)
    if x._n:
        assert x._n[0] and x._n[-1], x._n
        assert x._d > 0 and gcd(x._d, *x._n) == 1, (x._n, x._d)
    else:
        assert (x._d, x._v) == (1, 0)


def qs_agree(got, want):
    assert_canonical_qscalar(got)
    assert repr(got) == repr(want)
    assert dict(got.items()) == dict(want.items())
    assert all(type(v) is Fraction for _, v in got.items())
    for e in range(-10, 11):
        c = got.coeff(e)
        assert type(c) is Fraction and c == want.coeff(e)
    assert got.as_q_power() == want.as_q_power()
    assert got.is_zero() == want.is_zero()
    assert got.is_one() == want.is_one()
    assert bool(got) == bool(want)


def qs_same_outcome(got, want):
    """Both calls raise the same library error, or their results agree."""
    try:
        w = want()
    except (DomainError, ExactDivisionError) as exc:
        with pytest.raises(type(exc)):
            got()
        return
    qs_agree(got(), w)


@settings(max_examples=200, deadline=None)
@given(laurent_coeffs, qscalar_operands(), nonzero_laurent,
       st.integers(-3, 3))
def test_qscalar_matches_fraction_oracle(cs, pair, z, n):
    x, ox = QScalar(cs), FractionQScalar(cs)
    y, oy = pair
    oz = to_oracle(z)
    qs_agree(x, ox)
    qs_agree(-x, -ox)
    for op in (operator.add, operator.sub, operator.mul):
        qs_agree(op(x, y), op(ox, oy))
        qs_agree(op(y, x), op(oy, ox))
    qs_same_outcome(lambda: x ** n, lambda: ox ** n)
    qs_same_outcome(x.inverse, ox.inverse)
    qs_same_outcome(lambda: x.exact_div(y), lambda: ox.exact_div(oy))
    if isinstance(y, QScalar):
        qs_same_outcome(lambda: y.exact_div(x), lambda: oy.exact_div(ox))
    qs_agree((x * z).exact_div(z), (ox * oz).exact_div(oz))
    qs_same_outcome(lambda: (x * z + 1).exact_div(z),
                    lambda: (ox * oz + 1).exact_div(oz))
    for zero in (0, Fraction(0), QScalar.zero()):
        with pytest.raises(ExactDivisionError):
            x.exact_div(zero)
    assert (x == y) == (ox == oy)
    assert (y == x) == (oy == ox)
    back = (x + y) - y
    assert back == x and hash(back) == hash(x)
    assert x * z == z * x and hash(x * z) == hash(z * x)


cyc_orders = st.integers(1, 12)
cyc_coeffs = st.lists(small_fractions, max_size=8)


@st.composite
def cyc_operands(draw, order):
    """(CycScalar operand, oracle operand) of one order: an element, a
    unit +-e^j or a near-unit 3 e^j, 5 e^j or e^j/5, or the same int or
    Fraction handed to both."""
    kind = draw(st.sampled_from(["cyc", "cyc", "int", "fraction", "unit",
                                 "unit"]))
    if kind == "cyc" or kind == "unit":
        if kind == "cyc":
            cs = draw(cyc_coeffs)
        else:
            j = draw(st.sampled_from([0, 0, 0, 1, 2, order - 1, order]))
            cs = [0] * j + [draw(unit_coeffs)]
        return CycScalar(order, cs), FractionCycScalar(order, cs)
    x = draw(st.integers(-5, 5) if kind == "int" else small_fractions)
    return x, x


def assert_canonical_cyc(x):
    """A CycScalar stores deg Phi_N int coefficients over a positive int
    denominator coprime to their content: no float and no Fraction."""
    for c in (*x._n, x._d):
        assert type(c) is int, (x, c)
    assert len(x._n) == len(_cyc_table(x.order)[0]) - 1
    assert x._d > 0 and gcd(x._d, *x._n) == 1, (x._n, x._d)


def cyc_agree(got, want):
    assert_canonical_cyc(got)
    assert repr(got) == repr(want)
    assert got.is_zero() == want.is_zero()
    assert got.is_one() == want.is_one()
    assert bool(got) == bool(want)


def cyc_same_outcome(got, want):
    """Both calls raise DomainError, or their results agree."""
    try:
        w = want()
    except DomainError:
        with pytest.raises(DomainError):
            got()
        return
    cyc_agree(got(), w)


@settings(max_examples=200, deadline=None)
@given(st.data(), cyc_orders, cyc_coeffs, st.integers(-3, 3))
def test_cycscalar_matches_fraction_oracle(data, order, cs, n):
    x, ox = CycScalar(order, cs), FractionCycScalar(order, cs)
    y, oy = data.draw(cyc_operands(order))
    cyc_agree(x, ox)
    cyc_agree(-x, -ox)
    for op in (operator.add, operator.sub, operator.mul):
        cyc_agree(op(x, y), op(ox, oy))
        cyc_agree(op(y, x), op(oy, ox))
    cyc_same_outcome(lambda: x / y, lambda: ox / oy)
    cyc_same_outcome(lambda: x.exact_div(y), lambda: ox / oy)
    cyc_same_outcome(x.inverse, ox.inverse)
    cyc_same_outcome(lambda: x ** n, lambda: ox ** n)
    assert (x == y) == (ox == oy)
    assert (y == x) == (oy == ox)
    if isinstance(y, CycScalar):
        back = (x + y) - y
        assert back == x and hash(back) == hash(x)
        assert (x * y == y * x) and hash(x * y) == hash(y * x)


@settings(max_examples=60, deadline=None)
@given(cyc_orders, cyc_coeffs, st.integers(-30, 30))
def test_cycscalar_root_power_mixed_orders_and_zero(order, cs, k):
    cyc_agree(CycScalar.root_power(order, k),
              FractionCycScalar.root_power(order, k))
    x = CycScalar(order, cs)
    zero = CycScalar.zero(order)
    for divide in (zero.inverse, lambda: zero ** -1, lambda: x / 0,
                   lambda: x / zero, lambda: x.exact_div(Fraction(0))):
        with pytest.raises(DomainError):
            divide()
    other = CycScalar.root_power(order + 1, k)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.eq):
        with pytest.raises(MixedOrderError):
            op(x, other)


@settings(max_examples=60, deadline=None)
@given(st.data(), cyc_orders, cyc_coeffs)
def test_cycscalar_unit_of_another_order_is_refused(data, order, cs):
    x = CycScalar(order, cs)
    with pytest.raises(MixedOrderError):
        CycScalar.one(order + 1) * x
    with pytest.raises(MixedOrderError):
        x * -CycScalar.one(order + 1)


def _stored(x):
    """Copies of the stored lists and ints of a QScalar, CycScalar or
    QRat."""
    return [list(v) if isinstance(v, list) else v
            for v in (x._n, x._d, getattr(x, "_v", None))]


@settings(max_examples=50, deadline=None)
@given(st.data(), cyc_orders, laurent_coeffs, cyc_coeffs, rat_args(),
       unit_terms)
def test_products_with_units_leave_operands_unchanged(data, order, qcs, ccs,
                                                      args, term):
    # values share stored lists, so no product, and nothing computed from
    # a product, may write into an operand's lists
    k, c = term
    j = data.draw(st.sampled_from([0, 1, order - 1]))
    pairs = [(QScalar(qcs), QScalar({k: c})),
             (CycScalar(order, ccs), CycScalar(order, [0] * j + [c])),
             (QRat(*args), QRat(QScalar({k: c})))]
    for x, u in pairs:
        before = _stored(x), _stored(u)
        w = -u
        # checked after every step: two negations written in place would
        # cancel out
        for a, b in ((x, u), (u, x), (x, w), (w, x)):
            r = a * b
            for step in (lambda: r, lambda: r + x, lambda: r * u,
                         lambda: r * w, lambda: w * r, lambda: -r):
                step()
                assert (_stored(x), _stored(u)) == before


@settings(max_examples=100, deadline=None)
@given(laurent, cyc_orders)
def test_specialize_matches_fraction_oracle(x, n):
    cyc_agree(cyclotomic_specialize(x, n), frac_specialize(x, n))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(13, 28))
def test_cycscalar_division_matches_fraction_oracle_at_higher_orders(data,
                                                                      order):
    """The library builds orders past those drawn above, up to 28
    (``HeckeCompanion(7)``, ``rou_irreducible`` at L = 4)."""
    coeffs = st.lists(small_fractions, max_size=order)
    cs, ds = data.draw(coeffs), data.draw(coeffs)
    x, ox = CycScalar(order, cs), FractionCycScalar(order, cs)
    y, oy = CycScalar(order, ds), FractionCycScalar(order, ds)
    cyc_same_outcome(x.inverse, ox.inverse)
    cyc_same_outcome(lambda: x / y, lambda: ox / oy)
    cyc_same_outcome(lambda: y ** -2, lambda: oy ** -2)
    u = CycScalar.root_power(order, 1) + x
    cyc_same_outcome(u.inverse, (FractionCycScalar.root_power(order, 1)
                                 + ox).inverse)


def test_integer_exact_quotient():
    assert _iexquo([-1, 0, 1], [1, 1]) == [-1, 1]
    assert _iexquo([4, 6], [2]) == [2, 3]
    with pytest.raises(ExactDivisionError):
        _iexquo([1, 0, 1], [1, 1])      # q^2 + 1 by q + 1
    with pytest.raises(ExactDivisionError):
        _iexquo([1, 3], [2])            # a content that does not divide
    with pytest.raises(ExactDivisionError):
        _iexquo([1], [1, 1])            # lower degree, nonzero


def test_qrat_zero_denominator_and_division_by_zero():
    x = QRat(q_int(2), q_int(3))
    for den in (0, Fraction(0), QScalar.zero()):
        with pytest.raises(DomainError):
            QRat(q_int(2), den)
    for zero in (QRat.zero(), 0, QScalar.zero()):
        with pytest.raises(DomainError):
            x / zero
    with pytest.raises(DomainError):
        QRat.zero().inverse()
    with pytest.raises(DomainError):
        QRat.zero() ** -1


def test_qrat_field_ops():
    a = QRat(q_int(3), q_int(1))
    b = QRat(QScalar.q_power(2) - 1)
    assert (a * b / b) == a
    assert (a - a).is_zero()
    assert QRat(q_int(2) * q_int(3), q_int(2)) == QRat(q_int(3))


@pytest.mark.parametrize("x", [
    QScalar({2: Fraction(1, 3), -1: 2}),
    CycScalar(6, (1, Fraction(2, 5))),
    QRat(q_int(2), q_int(3)),
    LinOp({"a": {"a": QScalar.one(), "b": QScalar.q_power(-2)}}),
    TruncSeries("z", {0: QScalar.one(), 2: q_int(2)}, 0, 3),
], ids=["QScalar", "CycScalar", "QRat", "LinOp", "TruncSeries"])
def test_elements_are_falsy_exactly_when_zero(x):
    zero = x - x
    assert x and not x.is_zero()
    assert not zero and zero.is_zero()
    assert bool(-x) and not (-x + x)


def _linops(entries):
    labels = ("a", "b", "c")
    return st.builds(
        LinOp, st.dictionaries(st.sampled_from(labels),
                                st.dictionaries(st.sampled_from(labels),
                                                entries, max_size=3),
                                max_size=3))


# entries that cancel often: 0, +-1 and +-q
small_qscalars = st.builds(
    lambda c, e: QScalar({e: c}), st.sampled_from([0, 1, -1]),
    st.sampled_from([0, 1]))


@settings(max_examples=80, deadline=None)
@given(_linops(small_qscalars), _linops(small_qscalars),
       _linops(small_qscalars), st.booleans())
def test_linop_equality_agrees_with_subtraction(a, c, d, via_cancel):
    # b equals a through cancelling sums, or differs from it by c - d
    b = (a + c) - c if via_cancel else a + (c - d)
    assert (a.cols == b.cols) is (a - b).is_zero()
    assert (a == b) is (a - b).is_zero()
    assert (a != b) is not (a - b).is_zero()
    if via_cancel:
        assert a == b


@settings(max_examples=60, deadline=None)
@given(_linops(small_qscalars), _linops(small_qscalars))
def test_linop_tensor_is_clean(a, b):
    t = a.tensor(b)
    assert all(col for col in t.cols.values())
    assert all(v for col in t.cols.values() for v in col.values())
    assert t == LinOp(t.cols)
    for (s1, s2), col in t.cols.items():
        for (d1, d2), v in col.items():
            assert v == a.entry(d1, s1) * b.entry(d2, s2)


def test_series_window_rules():
    f = TruncSeries("z", {0: QScalar.one(), 2: q_int(2)}, 0, 4)
    g = TruncSeries("z", {1: QScalar.one()}, 1, 3)
    h = f * g
    # hi = min(f.hi + g.lo, g.hi + f.lo): g is unknown past 3 and f has a
    # constant term, so the product is only trustworthy up to order 3
    assert h.lo == 1 and h.hi == 3
    with pytest.raises(WindowError):
        h.at(4)
    s = f + g
    assert s.lo == 0 and s.hi == 3


def _op_series(coeffs, width):
    lo = min(coeffs, default=0)
    return TruncSeries("u", coeffs, lo, max(coeffs, default=0) + width)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-3, 3), _linops(small_qscalars),
                       max_size=5),
       st.dictionaries(st.integers(-2, 4), _linops(small_qscalars),
                       max_size=5),
       st.integers(0, 4), st.integers(0, 4), st.integers(-8, 10))
def test_series_capped_product(fc, gc, fw, gw, top):
    f, g = _op_series(fc, fw), _op_series(gc, gw)
    full = f * g
    top = max(top, full.lo)
    capped = _series_product(f, g, top)
    # never claims a degree above the true window, nor above the cap
    assert capped.lo == full.lo
    assert capped.hi == min(full.hi, top)
    for e in range(capped.lo, capped.hi + 1):
        assert capped.at(e) == full.at(e)
    with pytest.raises(WindowError):
        capped.at(capped.hi + 1)


def _dense(op, zero):
    return op_matrix(op, ("a", "b", "c"), zero)


@settings(max_examples=80, deadline=None)
@given(_linops(small_qscalars), _linops(small_qscalars),
       _linops(small_qscalars), st.booleans(),
       st.sampled_from([None, -1, 2, QScalar({1: 1}), QScalar({0: -1})]))
def test_add_into_matches_dense_arithmetic(a, b, d, compose, c):
    # cols gains d, then c (a o b), or c a, twice, in place; the second
    # addition would mutate any column it had taken over from an input
    zero = QScalar({})
    before = [(x, _dense(x, zero)) for x in (a, b, d)]
    cols = {}
    add_into(cols, d)
    for _ in range(2):
        add_into(cols, a, b if compose else None, c)
    got = LinOp.of_cols(cols)
    A, B, D = (m for _, m in before)
    term = ([[sum((A[i][k] * B[k][j] for k in range(3)), zero)
              for j in range(3)] for i in range(3)] if compose else A)
    scale = QScalar({0: 2}) if c is None else c * 2
    assert _dense(got, zero) == [[D[i][j] + term[i][j] * scale
                                  for j in range(3)] for i in range(3)]
    # clean: no zero entry, no empty column; the inputs are untouched
    assert all(got.cols.values())
    assert all(v for col in got.cols.values() for v in col.values())
    for x, m in before:
        assert _dense(x, zero) == m


def test_series_log_of_one():
    f = TruncSeries("z", {0: QScalar.one()}, 0, 5)
    assert all(c is None for c in series_log_coeffs(f, 5))


def test_series_log_geometric():
    # f = 1/(1 - a z) has log coefficients a^m / m
    a = QScalar.q_power(3)
    order = 5
    f = TruncSeries("z", {m: a ** m for m in range(order + 1)}, 0, order)
    cs = series_log_coeffs(f, order)
    for m, c in enumerate(cs, start=1):
        assert c == (a ** m) * Fraction(1, m)


def series_exp(var, coeffs, order, one):
    """exp(sum_{m>=1} c_m t^m) truncated at ``order``; c given as a list.

    ``one`` is the multiplicative identity of the coefficient ring.  List
    entries may be None, read as exact zeros.
    """
    body_coeffs = {m + 1: c for m, c in enumerate(coeffs) if c}
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


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(1, 4),
                       st.fractions(min_value=-4, max_value=4), max_size=3))
def test_series_exp_log_round_trip(body):
    order = 5
    coeffs = {e: QScalar.from_const(v) for e, v in body.items() if v}
    f = series_exp("z", [coeffs.get(m) for m in range(1, order + 1)],
                   order, QScalar.one())
    cs = series_log_coeffs(f, order)
    for m in range(1, order + 1):
        want = coeffs.get(m)
        got = cs[m - 1]
        if want is None:
            assert got is None or got.is_zero()
        else:
            assert got == want


def test_log_rejects_noninvertible_constant():
    f = TruncSeries("z", {1: QScalar.one()}, 0, 3)
    with pytest.raises(DomainError):
        series_log_coeffs(f, 3)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-5, 5), small_fractions), cyc_orders, laurent,
       cyc_coeffs)
def test_constants_hash_as_the_values_they_equal(c, order, x, cs):
    # equal values hash equally, so a set holds one copy of each value
    y = CycScalar(order, cs)
    consts = [QScalar.from_const(c), (x + c) - x,
              CycScalar.from_const(order, c), (y + c) - y,
              QRat(c), (QRat(x) + c) - x]
    for got in consts:
        assert got == c and hash(got) == hash(c), got
        assert len({got, c}) == 1
    for one in (QScalar.one(), CycScalar.one(order), QRat.one()):
        assert len({one, 1}) == 1 and hash(one) == hash(Fraction(1))
