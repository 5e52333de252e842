from hypothesis import given, settings
from hypothesis import strategies as st

from qtoroidal.monomials import kmerge, kmerge_scaled, kscale

BIG = 2 ** 70

pairs = st.lists(st.tuples(st.integers(-4, 4), st.integers(-8, 8)),
                 unique=True, max_size=8)
exps = st.integers(-BIG, BIG).filter(bool)

# a canonical key: (node, spectral) pairs sorted, no zero exponent; the
# exponents reach 2**70, so products like 2**40 * 2**40 are drawn too
monomial_keys = pairs.flatmap(
    lambda ps: st.lists(exps, min_size=len(ps), max_size=len(ps)).map(
        lambda es: tuple((i, l, e) for (i, l), e in zip(sorted(ps), es))))
scales = st.one_of(st.integers(-4, 4), st.integers(-BIG, BIG))


def as_dict(key):
    return {(i, l): e for (i, l, e) in key}


def reference(a, b, c):
    """a + c*b through a plain dict, returned as a canonical key."""
    acc = as_dict(a)
    for (i, l), e in as_dict(b).items():
        acc[i, l] = acc.get((i, l), 0) + c * e
    return tuple(sorted((i, l, e) for (i, l), e in acc.items() if e))


def assert_canonical(key):
    assert all(len(t) == 3 for t in key)
    assert all(e != 0 for (_, _, e) in key)
    spots = [(i, l) for (i, l, _) in key]
    assert spots == sorted(set(spots))


def test_pure_merge_basics():
    a = ((0, 0, 1),)
    b = ((0, 0, -1),)
    assert kmerge(a, b) == ()
    assert kmerge(a, ()) == a
    assert kscale(a, -2) == ((0, 0, -2),)
    assert kscale(a, 0) == ()


def test_no_silent_overflow():
    a = ((0, 0, 2 ** 40),)
    assert kscale(a, 2 ** 40) == ((0, 0, 2 ** 80),)
    assert kmerge_scaled(a, a, 2 ** 40) == ((0, 0, 2 ** 40 + 2 ** 80),)


@settings(max_examples=400, deadline=None)
@given(monomial_keys, monomial_keys, scales)
def test_kernel_matches_dict_reference(a, b, c):
    merged = kmerge(a, b)
    assert merged == reference(a, b, 1)
    assert_canonical(merged)
    scaled = kmerge_scaled(a, b, c)
    assert scaled == reference(a, b, c)
    assert_canonical(scaled)
    alone = kscale(a, c)
    assert alone == reference((), a, c)
    assert_canonical(alone)
