import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoroidal.errors import (DomainError, ExactDivisionError, InputError,
                              MixedOrderError, WindowError)
from qtoroidal.scalars import (CycScalar, QRat, QScalar, TruncSeries,
                               _iexquo, cyclotomic_polynomial,
                               cyclotomic_specialize, q_binom, q_factorial,
                               q_int, series_exp, series_log_coeffs)


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
    assert cyclotomic_polynomial(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic_polynomial(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic_polynomial(6) == [Fraction(1), Fraction(-1),
                                        Fraction(1)]


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


class FractionQRat:
    """Rational function in q as a reduced fraction of two Fraction
    QScalars, with a Euclidean gcd over Q[q] after every operation.  Kept
    as the oracle for the integer-polynomial ``QRat``."""

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
        npoly, nval = _frac_laurent(num)
        dpoly, dval = _frac_laurent(den)
        g = _frac_gcd(npoly, dpoly)
        if len(g) > 1:
            npoly, _ = _frac_divmod(npoly, g)
            dpoly, _ = _frac_divmod(dpoly, g)
        lead = dpoly[-1]
        num = QScalar({i + nval - dval: v / lead
                       for i, v in enumerate(npoly) if v})
        den = QScalar({i: v / lead for i, v in enumerate(dpoly) if v})
        return num, den

    @classmethod
    def one(cls):
        return cls(QScalar.one())

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, FractionQRat):
            return other
        if isinstance(other, (QScalar, int, Fraction)):
            return FractionQRat(other if isinstance(other, QScalar)
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


@st.composite
def operands(draw):
    """(QRat operand, oracle operand): a rational function, or the same
    int, Fraction or QScalar handed to both."""
    kind = draw(st.sampled_from(["rat", "rat", "int", "fraction",
                                 "laurent"]))
    if kind == "rat":
        num, den = draw(rat_args())
        return QRat(num, den), FractionQRat(num, den)
    x = draw({"int": st.integers(-5, 5), "fraction": small_fractions,
              "laurent": laurent}[kind])
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
