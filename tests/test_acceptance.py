"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison is exact (integer/rational arithmetic throughout); the
stated runtime ceilings are asserted with a monotonic clock.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import random
import time

from qtoroidal.cartan import cartan_preset, infinite_a
from qtoroidal.crystal import (kashiwara_apply, orbit_walk, phi_eps,
                               root_of_unity_period)
from qtoroidal.cli import dispatch
from qtoroidal.fusion import coproduct_relation_check, twisted_coassoc_check
from qtoroidal.hecke import build_MA, invariant_subspaces
from qtoroidal.modrep import (HeckeCompanion, build_extremal_loop,
                              build_root_of_unity, l_character_offset,
                              verify_relations)
from qtoroidal.monomials import YMonomial, dominance_leq, mono_format, \
    mono_parse
from qtoroidal.qchar import (char_to_json, fm_expand, kr_qchar,
                             octahedron_verify, verify_tsystem)
from qtoroidal.scalars import QRat, QScalar, q_binom
from qtoroidal.tableaux import enumerate_tableaux, tableau_monomial, \
    tableau_qchar_compare
from oracles import char_from_json

A3TOR = cartan_preset("A3tor")
AINF = infinite_a()

FIGURE_ROWS = [
    {"Y[0,0]": 1},
    {"Y[0,2]^-1 Y[1,1] Y[3,1]": 1},
    {"Y[1,1] Y[2,2] Y[3,3]^-1": 1, "Y[1,3]^-1 Y[2,2] Y[3,1]": 1},
    {"Y[1,1] Y[1,3] Y[2,4]^-1": 1,
     "Y[0,2] Y[1,3]^-1 Y[2,2]^2 Y[3,3]^-1": 1,
     "Y[2,4]^-1 Y[3,1] Y[3,3]": 1},
    {"Y[0,4] Y[1,1] Y[1,5]^-1": 1, "Y[0,4]^-1 Y[2,2]^2": 1,
     "Y[0,2] Y[2,2] Y[2,4]^-1": 2, "Y[0,4] Y[3,1] Y[3,5]^-1": 1},
]

CHAIN = ["Y[1,0] Y[0,1]^-1", "Y[2,1] Y[1,2]^-1", "Y[3,2] Y[2,3]^-1",
         "Y[0,3] Y[3,4]^-1", "Y[1,4] Y[0,5]^-1", "Y[2,5] Y[1,6]^-1",
         "Y[3,6] Y[2,7]^-1", "Y[0,7] Y[3,8]^-1", "Y[1,8] Y[0,9]^-1"]


def verdict(n, ok, text):
    print("ACCEPTANCE %2d: %s  %s" % (n, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (n, text)


def test_criterion_01_figure_reproduction():
    t0 = time.monotonic()
    ch = fm_expand(A3TOR, mono_parse("Y[0,0]"), 4)
    elapsed = time.monotonic() - t0
    ok = True
    for h in range(4):
        got = {m: c for m, c in ch.terms.items() if ch.heights[m] == h}
        want = {mono_parse(k): v for k, v in FIGURE_ROWS[h].items()}
        ok = ok and got == want
    for text, mult in FIGURE_ROWS[4].items():
        ok = ok and ch.coeff(mono_parse(text)) == mult
    ok = ok and ch.coeff(mono_parse("Y[0,2] Y[2,2] Y[2,4]^-1")) == 2
    ok = ok and elapsed < 1.0
    verdict(1, ok, "displayed graph reproduced exactly through height 4 "
                   "(%.2fs)" % elapsed)


def test_criterion_02_tsystem():
    t0 = time.monotonic()
    ok = True
    for k in (1, 2):
        rep = verify_tsystem(A3TOR, 0, k, 0, 4)
        ok = ok and rep["holds"]
    for k in (1, 2):
        rep = verify_tsystem(AINF, 0, k, 0, 3)
        ok = ok and rep["holds"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    verdict(2, ok, "three-term recurrences exact on the cycle (depth 4) "
                   "and the line (depth 3) (%.2fs)" % elapsed)


def test_criterion_03_tableau_oracle():
    t0 = time.monotonic()
    ok = True
    witnesses = []
    for k in (1, 2):
        for shift in (0, 1):
            rep = tableau_qchar_compare(3, k, shift, -1, 4)
            if not rep["holds"]:
                witnesses.append(rep["first_mismatch"])
            ok = ok and rep["holds"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    if witnesses:
        print("  witnesses:", witnesses)
    verdict(3, ok, "tableau multiset equals the expansion character for "
                   "k in {1,2}, shifts {0,1}, depth 4 (%.2fs)" % elapsed)


def test_criterion_04_crystal_chain_and_periods():
    seed = mono_parse("Y[1,0]Y[0,1]^-1")
    walk = orbit_walk(A3TOR, seed, (1, 2, 3, 0), 8)
    ok = [mono_format(m) for m in walk] == \
        [mono_format(mono_parse(s)) for s in CHAIN]
    ok = ok and root_of_unity_period(A3TOR, seed, (1, 2, 3, 0), 4) == 4
    for L in (1, 2, 3):
        ok = ok and root_of_unity_period(A3TOR, seed, (1, 2, 3, 0),
                                         4 * L) == 4 * L
    verdict(4, ok, "rank-one chain reproduced; reduced periods 4 and 4L "
                   "for L in {1,2,3}")


def test_criterion_05_module_relations():
    t0 = time.monotonic()
    rep = verify_relations(build_extremal_loop((-3, 3)), 3, 3)
    ok = rep.passed
    interior_checked = all(f["checked_vectors"] > 0 for f in rep.families)
    for L in (1, 2):
        rl = verify_relations(build_root_of_unity(L), 4, 4)
        ok = ok and rl.passed
        ok = ok and all(f["skipped_vectors"] == 0 for f in rl.families)
    elapsed = time.monotonic() - t0
    ok = ok and interior_checked and elapsed < 120.0
    verdict(5, ok, "all relation families exactly zero on interior "
                   "vectors; quotients fully checked (%.2fs)" % elapsed)


def test_criterion_06_l_character_shift():
    off = l_character_offset(build_extremal_loop((-3, 3)))
    ok = off["c"] == -1 and abs(off["c"]) <= 1      # frozen golden value
    quo = l_character_offset(build_root_of_unity(1))
    ok = ok and quo["c"] == -1 and -1 in quo["candidates"]
    verdict(6, ok, "l-weights match the displayed character up to the "
                   "constant spectral shift c = -1, loop and quotient")


def test_criterion_07_hecke():
    ok = True
    for l, params in ((1, [0]), (2, [0, 3]), (3, [0, 3, 7])):
        M = build_MA(l, [QRat(QScalar.q_power(n)) for n in params])
        ok = ok and M.dim == [1, 1, 2, 6][l]
    rng = random.Random(20240808)
    reducibles = irreducibles = 0
    for _ in range(22):
        n1 = rng.randrange(-8, 9)
        off = rng.choice([-4, -3, -2, -1, 0, 1, 2, 3, 4, 5])
        M = build_MA(2, [QRat(QScalar.q_power(n1)),
                         QRat(QScalar.q_power(n1 + off))])
        rep = invariant_subspaces(M)
        want = off in (2, -2)
        ok = ok and (not rep["irreducible"]) == want
        reducibles += want
        irreducibles += not want
    ok = ok and reducibles >= 2 and irreducibles >= 2
    for order in ((0, 2), (2, 0)):
        M = build_MA(2, [QRat(QScalar.q_power(order[0])),
                         QRat(QScalar.q_power(order[1]))])
        rep = invariant_subspaces(M)
        ok = ok and rep["socle_lines"] == 1 and rep["proper_count"] == 1
        ok = ok and rep["composition"]["factor_dims"] == [1, 1]
    for L in (1, 2, 3):
        ok = ok and HeckeCompanion(L).verify()["passed"]
    verdict(7, ok, "dimensions l!, reducibility exactly at ratio q^{+-2} "
                   "over 22 draws, both non-split chains, companion "
                   "relations and spectra")


def test_criterion_08_fusion():
    M = build_root_of_unity(1)
    rep = coproduct_relation_check(M, M, (-4, 4), 2, 2)
    ok = rep["passed"]
    gens = [("xp", 1, 0), ("xm", 2, 1), ("k", 0, 1), ("phip", 1, 2),
            ("phim", 3, -1)]
    for twists in ((1, 1), (1, 2)):
        rep = twisted_coassoc_check(M, M, M, twists[0], twists[1],
                                    (-3, 3), gens)
        ok = ok and rep["passed"]
    verdict(8, ok, "coproduct preserves every relation family to u-order "
                   "4; twisted coassociativity holds for (1,1) and (1,2)")


def test_criterion_09_octahedron():
    rep = octahedron_verify(AINF, 3, range(-2, 3), (1, 2), range(0, 3))
    verdict(9, rep["holds"], "cube recurrence exact on i in [-2,2], "
                             "k in {1,2}, t in [0,2] at depth 3")


def test_criterion_10_property_suites():
    ok = True
    # dominance / highest-weight on computed characters
    for (C, i, k, depth) in ((A3TOR, 0, 1, 4), (A3TOR, 1, 2, 4),
                             (AINF, 0, 2, 3)):
        ch = kr_qchar(C, i, k, 0, depth)
        for m in ch.terms:
            fs = dominance_leq(C, m, ch.top, depth)
            ok = ok and fs is not None and len(fs) == ch.heights[m]
    # expansion determinism under randomized scheduling
    base = fm_expand(A3TOR, mono_parse("Y[0,0]"), 4)
    for seed in range(5):
        other = fm_expand(A3TOR, mono_parse("Y[0,0]"), 4,
                          order_rng=random.Random(seed))
        ok = ok and other.terms == base.terms
    # excess equals dominance height through excess 4
    for k in (1, 2):
        top = tableau_monomial(enumerate_tableaux(k, 0)[0], 3, 0)
        for T in enumerate_tableaux(k, 4):
            m = tableau_monomial(T, 3, 0)
            fs = dominance_leq(A3TOR, m, top, 8)
            ok = ok and fs is not None and len(fs) == T.excess
    # operator arithmetic identity and inversion on 1000 lattice monomials
    rng = random.Random(424242)
    for _ in range(1000):
        acc = {}
        for _ in range(rng.randrange(0, 6)):
            i = rng.randrange(0, 4)
            l = 2 * rng.randrange(-3, 4) + (i + 1) % 2
            acc[(i, l)] = acc.get((i, l), 0) + rng.choice([-2, -1, 1, 2])
        m = YMonomial({kk: v for kk, v in acc.items() if v})
        i = rng.randrange(0, 4)
        phi, eps = phi_eps(m, i)
        ok = ok and phi - eps == sum(m.node_part(i).values())
        f = kashiwara_apply(A3TOR, m, i, "f")
        ok = ok and ((f is None) == (phi == 0))
        if f is not None:
            ok = ok and kashiwara_apply(A3TOR, f, i, "e") == m
        e = kashiwara_apply(A3TOR, m, i, "e")
        ok = ok and ((e is None) == (eps == 0))
        if e is not None:
            ok = ok and kashiwara_apply(A3TOR, e, i, "f") == m
    # quantum binomial positivity
    for s in range(0, 9):
        for kk in range(0, s + 1):
            b = q_binom(s, kk)
            ok = ok and all(v > 0 and v.denominator == 1
                            for _, v in b.items())
    # serialization round-trips, library and command line
    ch = kr_qchar(A3TOR, 0, 2, 0, 3)
    back = char_from_json(char_to_json(ch), A3TOR)
    ok = ok and back.terms == ch.terms
    code1, text1 = dispatch(["qchar", "--type", "A3tor", "--node", "0",
                             "--k", "1", "--spectral", "0", "--depth",
                             "3"])
    code2, text2 = dispatch(["qchar", "--type", "A3tor", "--node", "0",
                             "--k", "1", "--spectral", "0", "--depth",
                             "3"])
    o1, o2 = json.loads(text1), json.loads(text2)
    o1["elapsed_ms"] = o2["elapsed_ms"] = 0
    ok = ok and code1 == code2 == 0 and o1 == o2
    verdict(10, ok, "property suites: dominance, determinism, "
                    "excess=height, operator inversion x1000, binomial "
                    "positivity, round-trips")
