import random

from qtoroidal.cartan import b_np, cartan_preset
from qtoroidal.monomials import a_monomial, dominance_leq, mono_parse
from qtoroidal.qchar import fm_expand, kr_qchar
from oracles import r_shift

A3TOR = cartan_preset("A3tor")


def test_dominance_antisymmetry_random():
    rng = random.Random(5)
    top = mono_parse("Y[0,0] Y[1,1]")
    for _ in range(40):
        m = top
        steps = rng.randrange(1, 4)
        for _ in range(steps):
            i = rng.randrange(0, 4)
            l = rng.randrange(0, 5)
            m = m.mul_power(a_monomial(A3TOR, i, l), -1)
        down = dominance_leq(A3TOR, m, top, 8)
        if down is None:
            continue
        assert len(down) >= 1
        assert dominance_leq(A3TOR, top, m, 8) is None


def test_fm_commutes_with_rotation():
    for (i, k) in ((0, 1), (2, 2)):
        ch = kr_qchar(A3TOR, i, k, 0, 4)
        rotated = r_shift(ch, 1)
        direct = kr_qchar(A3TOR, (i + 1) % 4, k, 0, 4)
        assert rotated.terms == direct.terms


def test_fm_on_doubled_edge_types():
    # the r = 2 convention and the chain with a -3 entry both satisfy the
    # gate condition; expansions must stay dominance-consistent
    for C, top in ((cartan_preset("A1tor"), "Y[0,0]"),
                   (b_np(2, 3), "Y[1,0]")):
        ch = fm_expand(C, mono_parse(top), 3)
        assert ch.coeff(mono_parse(top)) == 1
        assert len(ch.terms) > 1
        for m in ch.terms:
            fs = dominance_leq(C, m, ch.top, ch.depth)
            assert fs is not None and len(fs) == ch.heights[m]


def test_kr_special_across_nodes():
    from qtoroidal.qchar import is_special
    for i in range(4):
        assert is_special(kr_qchar(A3TOR, i, 1, 0, 4))
