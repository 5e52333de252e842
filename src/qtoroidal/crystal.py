"""Monomial crystal operators and orbit walks.

The operator conventions (spectral offsets +-r_i, the smallest-position
tie rule for lowering and the largest-position rule for ravising) are
pinned so that the displayed rank-one chain over the 4-node cycle is
reproduced exactly; they are the single normative convention of this
module.

The crystal domain consists of monomials whose node-i spectral support
lies in a single class modulo 2 r_i, with classes alternating along
edges (a bipartite pattern; this is why diagrams with odd cycles fall
outside the construction).  On that domain raising and lowering are
mutually inverse wherever defined; outside it the operators still
compute but the crystal axioms are not promised.
"""

from __future__ import annotations

import math

from .errors import DomainError, InputError
from .monomials import a_monomial, mono_format


def phi_eps(m, i):
    """(phi_i, eps_i) from running partial sums of the node-i exponents.

    phi_i is the largest prefix sum S_{<=L}, eps_i the largest negated
    suffix sum -T_{>=L}, both clamped at zero; their difference is always
    the total node-i exponent sum.
    """
    part = m.node_part(i)
    ls = sorted(part)
    phi = 0
    acc = 0
    for l in ls:
        acc += part[l]
        if acc > phi:
            phi = acc
    eps = 0
    acc = 0
    for l in reversed(ls):
        acc += part[l]
        if -acc > eps:
            eps = -acc
    return phi, eps


def _f_position(part):
    """Smallest L attaining the maximal prefix sum."""
    ls = sorted(part)
    best, best_l, acc = 0, None, 0
    for l in ls:
        acc += part[l]
        if acc > best:
            best, best_l = acc, l
    return best_l


def _e_position(part):
    """Largest L attaining the maximal negated suffix sum."""
    ls = sorted(part)
    best, best_l, acc = 0, None, 0
    for l in reversed(ls):
        acc += part[l]
        if -acc > best:
            best, best_l = -acc, l
    return best_l


def kashiwara_apply(C, m, i, direction):
    """One lowering (f) or raising (e) step at node i; None when undefined.

    f multiplies by the A-inverse at the acting position plus r_i, e by the
    A-monomial at the acting position minus r_i.
    """
    if direction not in ("f", "e"):
        raise InputError("direction must be 'f' or 'e'")
    part = m.node_part(i)
    phi, eps = phi_eps(m, i)
    if direction == "f":
        if phi == 0:
            return None
        l = _f_position(part)
        return m.mul_power(a_monomial(C, i, l + C.r(i)), -1)
    if eps == 0:
        return None
    l = _e_position(part)
    return m * a_monomial(C, i, l - C.r(i))


def orbit_walk(C, seed, op_cycle, steps):
    """Successive f-steps following op_cycle cyclically.

    Returns the list [seed, m_1, ..., m_steps]; a dead end raises with the
    failing position recorded.
    """
    if steps < 0:
        raise InputError("steps must be >= 0")
    if not op_cycle and steps:
        raise InputError("empty operator cycle")
    out = [seed]
    m = seed
    for t in range(steps):
        i = op_cycle[t % len(op_cycle)]
        nxt = kashiwara_apply(C, m, i, "f")
        if nxt is None:
            raise DomainError("walk dead-ends at step %d (node %r, %s)"
                              % (t, i, mono_format(m)))
        m = nxt
        out.append(m)
    return out


def root_of_unity_period(C, seed, op_cycle, n):
    """Least period of the walk once spectral exponents live modulo n.

    The generic walk is eventually shift-periodic: after some T steps the
    monomial recurs up to a constant spectral shift.  Reduced modulo n,
    the sequence becomes genuinely periodic; the least period is found by
    scanning divisors of the structural period.
    """
    if n < 1:
        raise InputError("cyclotomic order must be >= 1")
    cyc = len(op_cycle)
    limit = 16 * cyc * (n + 2) + 64
    walk = [seed]
    m = seed
    shift_period = None
    delta = None
    for t in range(1, limit + 1):
        i = op_cycle[(t - 1) % cyc]
        nxt = kashiwara_apply(C, m, i, "f")
        if nxt is None:
            raise DomainError("walk dead-ends at step %d" % (t - 1))
        m = nxt
        walk.append(m)
        if t % cyc == 0:
            d = _uniform_spectral_shift(seed, m)
            if d is not None:
                shift_period, delta = t, d
                break
    if shift_period is None:
        raise DomainError("no structural recurrence within %d steps"
                          % limit)
    # after shift_period steps everything repeats shifted by delta, so the
    # reduced sequence is purely periodic with period P
    if n == 1:
        P = shift_period
    else:
        P = shift_period * (n // math.gcd(delta % n or n, n))
    # materialize one full reduced period plus one more for the scan
    while len(walk) <= 2 * P:
        t = len(walk)
        i = op_cycle[(t - 1) % cyc]
        nxt = kashiwara_apply(C, walk[-1], i, "f")
        if nxt is None:
            raise DomainError("walk dead-ends at step %d" % (t - 1))
        walk.append(nxt)
    reduced = [w.reduce_spectral_mod(n) for w in walk]
    for p in sorted(_divisors(P)):
        if all(reduced[t] == reduced[t + p] for t in range(P)):
            return p
    return P


def _uniform_spectral_shift(a, b):
    """d with b = a shifted by q^d on every variable, else None."""
    ka, kb = a.key, b.key
    if len(ka) != len(kb):
        return None
    d = None
    for (i1, l1, e1), (i2, l2, e2) in zip(ka, kb):
        if i1 != i2 or e1 != e2:
            return None
        if d is None:
            d = l2 - l1
        elif l2 - l1 != d:
            return None
    return 0 if d is None else d


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out
