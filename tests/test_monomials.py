import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoroidal.cartan import build_cartan, cartan_preset, infinite_a
from qtoroidal.errors import ParseError
from qtoroidal.monomials import (YMonomial, a_monomial, dominance_height,
                                 dominance_leq, drinfeld_fraction,
                                 from_drinfeld_fraction, mono_format,
                                 mono_from_json, mono_parse, mono_to_json)

A3TOR = cartan_preset("A3tor")


def test_mul_cancellation():
    m = YMonomial.var(0, 0) * YMonomial.var(0, 0, -1)
    assert m.is_identity()


def test_parse_chain_seed():
    m = mono_parse("Y[1,0]Y[0,1]^-1")
    assert m.exponents() == {(1, 0): 1, (0, 1): -1}


def test_format_sorts_factors():
    m = YMonomial({(1, 0): 1, (0, 1): -1})
    assert mono_format(m) == "Y[0,1]^-1 Y[1,0]"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        mono_parse("Y[1,0]^0")
    with pytest.raises(ParseError) as e:
        mono_parse("Y[1,0] nonsense")
    assert e.value.position is not None


monomials = st.builds(
    YMonomial,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-6, 6)),
                    st.integers(-3, 3).filter(bool), max_size=6))


@settings(max_examples=80, deadline=None)
@given(monomials)
def test_print_parse_round_trip(m):
    assert mono_parse(mono_format(m)) == m
    assert mono_from_json(mono_to_json(m)) == m


def test_a_monomial_a3tor():
    a = a_monomial(A3TOR, 0, 1)
    assert a == mono_parse("Y[0,0]Y[0,2]Y[1,1]^-1Y[3,1]^-1")


def test_a_monomial_rank_one():
    C = build_cartan([[2]], labels=[1])
    assert a_monomial(C, 1, 0) == mono_parse("Y[1,-1]Y[1,1]")


def test_a_monomial_double_edge():
    # C_{j,i} = -2 contributes Y_j inverses at offsets -1 and +1
    C = build_cartan([[2, -1], [-2, 2]], labels=[1, 2])
    a = a_monomial(C, 1, 0)
    part = a.node_part(2)
    assert part == {-1: -1, 1: -1}


def test_a_monomial_weight_pairing():
    # node-i exponent sum is 2 and the pairing against alpha_j is C_ji
    for C in (A3TOR, cartan_preset("A1tor"), infinite_a()):
        nodes = (0, 1) if not C.infinite else (-1, 0, 2)
        for i in nodes:
            a = a_monomial(C, i, 0)
            w = a.weight()
            assert w.pairing(i) == 2
            for j in C.neighbors(i):
                assert w.pairing(j) == C.C(j, i)


def test_dominance_reflexive():
    m = mono_parse("Y[0,0]")
    assert dominance_leq(A3TOR, m, m, 5) == []


def test_dominance_single_step():
    top = mono_parse("Y[0,0]")
    m = mono_parse("Y[0,2]^-1 Y[1,1] Y[3,1]")
    assert dominance_leq(A3TOR, m, top, 4) == [(0, 1)]


def test_dominance_two_steps():
    top = mono_parse("Y[0,0]")
    m = mono_parse("Y[3,3]^-1 Y[1,1] Y[2,2]")
    assert dominance_leq(A3TOR, m, top, 4) == [(0, 1), (3, 2)]


def test_dominance_not_below():
    top = mono_parse("Y[0,0]")
    assert dominance_leq(A3TOR, mono_parse("Y[1,0]"), top, 6) is None


def test_dominance_depth_cap():
    top = mono_parse("Y[0,0]")
    m = mono_parse("Y[3,3]^-1 Y[1,1] Y[2,2]")
    assert dominance_leq(A3TOR, m, top, 1) is None
    assert dominance_height(A3TOR, m, top, 4) == 2


def test_dominance_weight_additivity():
    top = mono_parse("Y[0,0]")
    m = mono_parse("Y[3,3]^-1 Y[1,1] Y[2,2]")
    fs = dominance_leq(A3TOR, m, top, 4)
    diff = top.weight() - m.weight()
    acc = {}
    for (i, _) in fs:
        w = a_monomial(A3TOR, i, 0).weight()
        for k, v in w.coords.items():
            acc[k] = acc.get(k, 0) + v
    assert diff.coords == {k: v for k, v in acc.items() if v}


@settings(max_examples=60, deadline=None)
@given(monomials)
def test_drinfeld_fraction_round_trip(m):
    assert from_drinfeld_fraction(drinfeld_fraction(m)) == m


def test_drinfeld_fraction_single_factor():
    data = drinfeld_fraction(mono_parse("Y[1,0]"))
    assert data == {1: ([0], [])}


def test_drinfeld_fraction_kr_string():
    # the top monomial of a length-k string has Q_i equal to the
    # q_i^2-string and all R empty
    C = A3TOR
    k, i, l = 3, 0, 0
    m = YMonomial.one()
    for s in range(k):
        m = m * YMonomial.var(i, l + 2 * C.r(i) * s)
    data = drinfeld_fraction(m)
    assert data == {0: ([0, 2, 4], [])}
    assert m.is_dominant()


def test_infinite_a_dominance():
    C = infinite_a()
    top = mono_parse("Y[0,0]")
    m = top.mul_power(a_monomial(C, 0, 1), -1)
    assert dominance_leq(C, m, top, 3) == [(0, 1)]


# ---------------------------------------------------------------------------
# YMonomial arithmetic: *, mul_power, ** and inverse against a dict reference
# ---------------------------------------------------------------------------

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
    a = YMonomial(((0, 0, 1),))
    b = YMonomial(((0, 0, -1),))
    assert (a * b).key == ()
    assert (a * YMonomial.one()).key == a.key
    assert (a ** -2).key == ((0, 0, -2),)
    assert (a ** 0).key == ()
    assert a.inverse().key == b.key


def test_no_silent_overflow():
    a = YMonomial(((0, 0, 2 ** 40),))
    assert (a ** 2 ** 40).key == ((0, 0, 2 ** 80),)
    assert a.mul_power(a, 2 ** 40).key == ((0, 0, 2 ** 40 + 2 ** 80),)


@settings(max_examples=400, deadline=None)
@given(monomial_keys, monomial_keys, scales)
def test_kernel_matches_dict_reference(a, b, c):
    ma, mb = YMonomial(a), YMonomial(b)
    for got, want in [(ma * mb, reference(a, b, 1)),
                      (ma.mul_power(mb, c), reference(a, b, c)),
                      (ma ** c, reference((), a, c)),
                      (ma.inverse(), reference((), a, -1))]:
        assert got.key == want
        assert_canonical(got.key)
        assert got == YMonomial(as_dict(want))
        assert hash(got) == hash(YMonomial(as_dict(want)))
