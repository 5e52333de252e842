"""Reference implementations kept as oracles for the series rules of the
library.

``series_log_coeffs`` is the general truncated logarithm by the power
series of log(1 + u); it also works on series whose coefficients are
operators or u-series, which the fusion oracle feeds it.
``linear_factor_series`` builds (1 - z q^a)^n by repeated series
products, and ``expected_phi_series_by_products`` assembles the predicted
phi series from those factors.
"""

from fractions import Fraction

from qtoroidal.errors import DomainError, WindowError
from qtoroidal.scalars import TruncSeries


def series_log_coeffs(f, order):
    """Coefficients c_1..c_order with f = f(0) exp(sum c_m t^m).

    Requires an invertible constant term and order within the window.
    Returned entries may be None, meaning an exact zero.
    """
    if f.lo != 0:
        raise DomainError("series must start at order 0 for log extraction")
    f0 = f.at(0)
    if not f0:
        raise DomainError("constant term is not invertible")
    if order > f.hi:
        raise WindowError("log order %d exceeds window top %d"
                          % (order, f.hi))
    inv0 = f0.inverse()
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


def linear_factor_series(var, exp_a, power, order, module):
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


def expected_phi_series_by_products(module, part, sign, order):
    """``modrep.expected_phi_series`` with every factor built by
    ``linear_factor_series``."""
    var = "z" if sign > 0 else "w"
    delta = sum(part.values())
    acc = TruncSeries(var, {0: module.q_power(sign * delta)}, 0, order)
    for l, n in part.items():
        acc = acc * linear_factor_series(var, sign * (l - 1), n, order,
                                         module)
        acc = acc * linear_factor_series(var, sign * (l + 1), -n, order,
                                         module)
    return acc


def log_h_eigenvalue(M, g, m, label):
    """The eigenvalue of h_{g,m} on a basis vector through the general
    logarithm of its phi series: the first |m| log coefficients, the last
    divided by q - q^-1 and negated for m < 0."""
    sign = 1 if m > 0 else -1
    mag = abs(m)
    c = series_log_coeffs(M.phi_series(g, sign, label, mag), mag)[mag - 1]
    if c is None:
        return M.one() - M.one()
    val = c.exact_div(M.qq_inv())
    return -val if sign < 0 else val
