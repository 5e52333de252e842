import math
import random

import pytest

from qtoroidal.cartan import cartan_preset
from qtoroidal.crystal import (_divisors, _uniform_spectral_shift,
                               kashiwara_apply, orbit_walk, phi_eps,
                               root_of_unity_period)
from qtoroidal.errors import DomainError, InputError
from qtoroidal.monomials import YMonomial, a_monomial, mono_parse

A3TOR = cartan_preset("A3tor")
SEED = mono_parse("Y[1,0]Y[0,1]^-1")

# the displayed rank-one chain over the 4-node cycle, lowering along
# nodes 1, 2, 3, 0 in turn
CHAIN = [
    "Y[1,0] Y[0,1]^-1",
    "Y[2,1] Y[1,2]^-1",
    "Y[3,2] Y[2,3]^-1",
    "Y[0,3] Y[3,4]^-1",
    "Y[1,4] Y[0,5]^-1",
    "Y[2,5] Y[1,6]^-1",
    "Y[3,6] Y[2,7]^-1",
    "Y[0,7] Y[3,8]^-1",
    "Y[1,8] Y[0,9]^-1",
]


def test_phi_eps_examples():
    assert phi_eps(mono_parse("Y[1,0]Y[0,1]^-1"), 1) == (1, 0)
    assert phi_eps(mono_parse("Y[2,1]Y[1,2]^-1"), 1) == (0, 1)
    assert phi_eps(YMonomial.one(), 2) == (0, 0)


def test_phi_eps_mixed_string():
    # prefix maximum 2 at L=2, suffix dip of 1 past the inverses
    m = mono_parse("Y[1,0] Y[1,2] Y[1,4]^-1 Y[1,6]^-1 Y[1,8]")
    phi, eps = phi_eps(m, 1)
    assert phi - eps == 1
    assert phi == 2 and eps == 1


def test_f_step_matches_chain():
    out = kashiwara_apply(A3TOR, SEED, 1, "f")
    assert out == mono_parse("Y[2,1]Y[1,2]^-1")


def test_e_inverts_f():
    m2 = mono_parse("Y[2,1]Y[1,2]^-1")
    assert kashiwara_apply(A3TOR, m2, 1, "e") == SEED


def test_f_none_when_phi_zero():
    assert kashiwara_apply(A3TOR, mono_parse("Y[1,2]^-1"), 1, "f") is None
    assert kashiwara_apply(A3TOR, SEED, 2, "f") is None


def test_orbit_walk_reproduces_chain():
    walk = orbit_walk(A3TOR, SEED, (1, 2, 3, 0), 8)
    assert [m for m in walk] == [mono_parse(s) for s in CHAIN]


def test_orbit_walk_takes_an_iterator():
    walk = orbit_walk(A3TOR, SEED, iter((1, 2, 3, 0)), 8)
    assert walk == [mono_parse(s) for s in CHAIN]


def test_orbit_walk_zero_steps():
    assert orbit_walk(A3TOR, SEED, (1, 2, 3, 0), 0) == [SEED]


@pytest.mark.parametrize("steps", [0, 1, 3])
def test_orbit_walk_rejects_an_empty_or_unknown_cycle(steps):
    with pytest.raises(InputError, match="empty operator cycle"):
        orbit_walk(A3TOR, SEED, [], steps)
    with pytest.raises(InputError) as exc:
        orbit_walk(A3TOR, SEED, [1, 9], steps)
    assert str(exc.value) == "node 9 is not one of the nodes 0, 1, 2, 3"


def test_kashiwara_apply_rejects_an_unknown_node():
    for m, direction in ((SEED, "f"), (SEED, "e"), (YMonomial.one(), "f")):
        with pytest.raises(InputError) as exc:
            kashiwara_apply(A3TOR, m, 9, direction)
        assert str(exc.value) == "node 9 is not one of the nodes 0, 1, 2, 3"


def test_full_cycle_shifts_spectral_by_four():
    walk = orbit_walk(A3TOR, SEED, (1, 2, 3, 0), 4)
    assert walk[4] == SEED.shift_spectral(4)


def test_dead_end_reports_position():
    with pytest.raises(DomainError) as e:
        orbit_walk(A3TOR, SEED, (2,), 1)
    assert "step 0" in str(e.value)


def test_period_at_order_four():
    assert root_of_unity_period(A3TOR, SEED, (1, 2, 3, 0), 4) == 4


@pytest.mark.parametrize("L", [1, 2, 3])
def test_period_at_order_4l(L):
    assert root_of_unity_period(A3TOR, SEED, (1, 2, 3, 0), 4 * L) == 4 * L


def test_period_node_pattern_only():
    assert root_of_unity_period(A3TOR, SEED, (1, 2, 3, 0), 1) == 4


def _random_monomial(rng):
    # stay on the crystal's bipartite lattice: node-i spectral exponents
    # in a single parity class, alternating along edges of the 4-cycle
    acc = {}
    for _ in range(rng.randrange(0, 6)):
        i = rng.randrange(0, 4)
        l = 2 * rng.randrange(-3, 4) + (i + 1) % 2
        e = rng.choice([-2, -1, 1, 2])
        acc[(i, l)] = acc.get((i, l), 0) + e
    return YMonomial({k: v for k, v in acc.items() if v})


def test_phi_eps_identity_and_inversion_random():
    rng = random.Random(20240817)
    for _ in range(1000):
        m = _random_monomial(rng)
        i = rng.randrange(0, 4)
        phi, eps = phi_eps(m, i)
        total = sum(m.node_part(i).values())
        assert phi - eps == total
        f = kashiwara_apply(A3TOR, m, i, "f")
        if phi == 0:
            assert f is None
        else:
            assert kashiwara_apply(A3TOR, f, i, "e") == m
        e = kashiwara_apply(A3TOR, m, i, "e")
        if eps == 0:
            assert e is None
        else:
            assert kashiwara_apply(A3TOR, e, i, "f") == m


def test_f_changes_weight_by_simple_root():
    rng = random.Random(11)
    for _ in range(200):
        m = _random_monomial(rng)
        i = rng.randrange(0, 4)
        f = kashiwara_apply(A3TOR, m, i, "f")
        if f is None:
            continue
        before, after = m.weight(), f.weight()
        for j in A3TOR.nodes:
            assert after.pairing(j) - before.pairing(j) == -A3TOR.C(j, i)


# -- the scan, step and period as they were before one scan and one walk
# generator replaced them; kept as oracles for the rewrite

def oracle_phi_eps(m, i):
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


def oracle_f_position(part):
    ls = sorted(part)
    best, best_l, acc = 0, None, 0
    for l in ls:
        acc += part[l]
        if acc > best:
            best, best_l = acc, l
    return best_l


def oracle_e_position(part):
    ls = sorted(part)
    best, best_l, acc = 0, None, 0
    for l in reversed(ls):
        acc += part[l]
        if -acc > best:
            best, best_l = -acc, l
    return best_l


def oracle_kashiwara_apply(C, m, i, direction):
    part = m.node_part(i)
    phi, eps = oracle_phi_eps(m, i)
    if direction == "f":
        if phi == 0:
            return None
        l = oracle_f_position(part)
        return m.mul_power(a_monomial(C, i, l + C.r(i)), -1)
    if eps == 0:
        return None
    l = oracle_e_position(part)
    return m * a_monomial(C, i, l - C.r(i))


def oracle_root_of_unity_period(C, seed, op_cycle, n):
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
        nxt = oracle_kashiwara_apply(C, m, i, "f")
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
    if n == 1:
        P = shift_period
    else:
        P = shift_period * (n // math.gcd(delta % n or n, n))
    while len(walk) <= 2 * P:
        t = len(walk)
        i = op_cycle[(t - 1) % cyc]
        nxt = oracle_kashiwara_apply(C, walk[-1], i, "f")
        if nxt is None:
            raise DomainError("walk dead-ends at step %d" % (t - 1))
        walk.append(nxt)
    reduced = [w.reduce_spectral_mod(n) for w in walk]
    for p in sorted(_divisors(P)):
        if all(reduced[t] == reduced[t + p] for t in range(P)):
            return p
    return P


def outcome(fn, *args):
    """A value, or the error class and the message up to any detail in
    parentheses."""
    try:
        return fn(*args)
    except DomainError as e:
        return type(e).__name__, str(e).split(" (")[0]


def test_scan_and_steps_match_oracle_random():
    rng = random.Random(20261018)
    for _ in range(1000):
        m = _random_monomial(rng)
        i = rng.randrange(0, 4)
        assert phi_eps(m, i) == oracle_phi_eps(m, i), (m, i)
        for direction in ("f", "e"):
            want = oracle_kashiwara_apply(A3TOR, m, i, direction)
            assert kashiwara_apply(A3TOR, m, i, direction) == want, \
                (m, i, direction)


def test_walks_match_oracle_random():
    rng = random.Random(7)
    for _ in range(300):
        m = _random_monomial(rng)
        ops = tuple(rng.randrange(0, 4) for _ in range(rng.randrange(1, 5)))
        steps = rng.randrange(0, 12)
        want = [m]
        for t in range(steps):
            nxt = oracle_kashiwara_apply(A3TOR, want[-1], ops[t % len(ops)],
                                         "f")
            if nxt is None:
                want = ("DomainError", "walk dead-ends at step %d" % t)
                break
            want.append(nxt)
        assert outcome(orbit_walk, A3TOR, m, ops, steps) == want, (m, ops)


@pytest.mark.parametrize("n", range(1, 13))
def test_period_matches_oracle(n):
    cases = [(SEED, (1, 2, 3, 0)), (SEED, (1, 2, 3, 0, 1, 2, 3, 0)),
             (mono_parse(CHAIN[1]), (2, 3, 0, 1)),
             (SEED.shift_spectral(3), (1, 2, 3, 0)), (SEED, (2,)),
             (mono_parse("Y[1,0]^2 Y[0,1]^-2"), (1, 2, 3, 0))]
    rng = random.Random(n)
    for _ in range(10):
        # a chain seed at a random node, power and spectral base, lowered
        # along the cycle from its node (the squares dead-end)
        a = rng.randrange(0, 4)
        l = 2 * rng.randrange(-3, 4) + (a + 1) % 2
        k = rng.choice([1, 2])
        cases.append((YMonomial({(a, l): k, ((a - 1) % 4, l + 1): -k}),
                      tuple((a + j) % 4 for j in range(4))
                      * rng.choice([1, 2])))
    for _ in range(5):
        cases.append((_random_monomial(rng),
                      tuple(rng.randrange(0, 4)
                            for _ in range(rng.randrange(1, 5)))))
    for seed, ops in cases:
        want = outcome(oracle_root_of_unity_period, A3TOR, seed, ops, n)
        assert outcome(root_of_unity_period, A3TOR, seed, ops, n) == want, \
            (seed, ops)
