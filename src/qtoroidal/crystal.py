"""Monomial crystal operators and orbit walks.

The operator conventions (spectral offsets +-r_i, the smallest-position
tie rule for lowering and the largest-position rule for raising) are
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
from itertools import cycle, islice

from .errors import DomainError, InputError
from .monomials import a_monomial, mono_format


def _scan(part):
    """(phi, f position, eps, e position) of a node part {L: exponent}.

    phi is the largest prefix sum S_{<=L} and the f position the smallest
    L attaining it; eps is the largest negated suffix sum -T_{>=L} and the
    e position the largest L attaining it.  Both are clamped at zero, where
    the position is None.  One pass suffices: -T_{>=L} = S_{<L} - S.
    """
    total = sum(part.values())
    phi = eps = acc = 0
    f_pos = e_pos = None
    for l in sorted(part):
        if 0 < acc - total >= eps:
            eps, e_pos = acc - total, l
        acc += part[l]
        if acc > phi:
            phi, f_pos = acc, l
    return phi, f_pos, eps, e_pos


def phi_eps(m, i):
    """(phi_i, eps_i) from running partial sums of the node-i exponents;
    their difference is always the total node-i exponent sum."""
    phi, _, eps, _ = _scan(m.node_part(i))
    return phi, eps


def kashiwara_apply(C, m, i, direction):
    """One lowering (f) or raising (e) step at node i; None when undefined.

    f multiplies by the A-inverse at the acting position plus r_i, e by the
    A-monomial at the acting position minus r_i.  A node not in C raises
    InputError, whether or not the step is defined.
    """
    if direction not in ("f", "e"):
        raise InputError("direction must be 'f' or 'e'")
    r = C.r(i)      # an unknown node is an InputError, defined step or not
    _, f_pos, _, e_pos = _scan(m.node_part(i))
    if direction == "f":
        if f_pos is None:
            return None
        return m.mul_power(a_monomial(C, i, f_pos + r), -1)
    if e_pos is None:
        return None
    return m * a_monomial(C, i, e_pos - r)


def _f_walk(C, seed, op_cycle):
    """The seed, then its successive f-steps following op_cycle
    cyclically, without end; a dead end raises with the failing position
    recorded.  An empty cycle or a node not in C raises InputError before
    the seed is yielded."""
    op_cycle = tuple(op_cycle)      # read twice: checked, then cycled
    if not op_cycle:
        raise InputError("empty operator cycle")
    for i in op_cycle:
        C.r(i)      # an unknown node is an InputError at every step count
    yield seed
    m = seed
    for t, i in enumerate(cycle(op_cycle)):
        nxt = kashiwara_apply(C, m, i, "f")
        if nxt is None:
            raise DomainError("walk dead-ends at step %d (node %r, %s)"
                              % (t, i, mono_format(m)))
        m = nxt
        yield m


def orbit_walk(C, seed, op_cycle, steps):
    """Successive f-steps following op_cycle cyclically.

    Returns the list [seed, m_1, ..., m_steps]; a dead end raises with the
    failing position recorded.
    """
    if steps < 0:
        raise InputError("steps must be >= 0")
    return list(islice(_f_walk(C, seed, op_cycle), steps + 1))


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
    walker = _f_walk(C, seed, op_cycle)
    walk = [next(walker)]
    for t in range(1, limit + 1):
        walk.append(next(walker))
        if t % cyc == 0:
            delta = _uniform_spectral_shift(seed, walk[-1])
            if delta is not None:
                break
    else:
        raise DomainError("no structural recurrence within %d steps"
                          % limit)
    # after t steps everything repeats shifted by delta, so the reduced
    # sequence is purely periodic with period P
    P = t if n == 1 else t * (n // math.gcd(delta % n or n, n))
    # materialize one full reduced period plus one more for the scan
    walk.extend(islice(walker, 2 * P + 1 - len(walk)))
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
