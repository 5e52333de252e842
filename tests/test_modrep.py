import gc
import re
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from qtoroidal.errors import (ConstructionError, DomainError, EscapeError,
                              ExactDivisionError, InputError, QtorError)
from qtoroidal import modrep
from qtoroidal.linalg import LinOp
from qtoroidal.modrep import (L_SERIES_ORDER, ModuleRealization,
                              RelationReport, _b_matrix, _first_witness_walk,
                              _relation_instances,
                              build_extremal_loop,
                              build_root_of_unity,
                              display_monomial, expected_phi_series,
                              hecke_companion, l_character,
                              l_character_offset, rou_irreducible,
                              verify_relations)
from qtoroidal.monomials import YMonomial, mono_format, mono_parse
from qtoroidal.scalars import (CycScalar, QScalar, cyclotomic_specialize,
                               q_binom, q_int)
from series_oracles import (expected_phi_series_by_products, log_h_eigenvalue,
                            series_log_coeffs)


def one_vec(M, label):
    return {label: M.one()}


def test_xplus_node0_crosses_sites():
    M = build_extremal_loop((-2, 2))
    out = M.apply(("xp", 0, 3), one_vec(M, (1, 1)))
    # x+_{0,r} v_{1,p} = q^(r(4p-1)) v_{4,p-1}
    assert out == {(4, 0): QScalar.q_power(3 * (4 * 1 - 1))}


def test_k2_eigenvalues():
    M = build_extremal_loop((-2, 2))
    assert M.apply(("k", 2, 1), one_vec(M, (2, 0))) == \
        {(2, 0): QScalar.q_power(1)}
    assert M.apply(("k", 2, 1), one_vec(M, (3, 0))) == \
        {(3, 0): QScalar.q_power(-1)}
    assert M.apply(("k", 2, 1), one_vec(M, (1, 0))) == \
        {(1, 0): QScalar.one()}


def test_commutator_matches_phi_difference():
    M = build_extremal_loop((-2, 2))
    v = (1, 0)
    plus = M.apply(("xp", 1, 0), M.apply(("xm", 1, 0), one_vec(M, v)))
    minus = M.apply(("xm", 1, 0), M.apply(("xp", 1, 0), one_vec(M, v)))
    assert minus == {}
    assert plus == {v: QScalar.one()}
    qq = M.qq_inv()
    phi_diff = (M.apply(("phip", 1, 0), one_vec(M, v))[v]
                - M.apply(("phim", 1, 0), one_vec(M, v))[v])
    assert phi_diff.exact_div(qq) == QScalar.one()


def per_label_apply(M, gen, vec):
    """The per-label apply loop: each source label's table row is read
    from ``image()`` and merged into the result one entry at a time.
    Kept as the oracle for the cached-operator ``apply``."""
    out = {}
    for label, c in vec.items():
        if not M.in_basis(label):
            raise EscapeError("label %r is outside the window" % (label,))
        img = M.image(gen, label)
        if img is None:
            continue
        tgt, scal = img
        if tgt == "diag":
            tgt = label
        v = scal * c
        if tgt in out:
            v = out[tgt] + v
        if not v:
            out.pop(tgt, None)
        else:
            out[tgt] = v
    return out


def relation_generators(M):
    gens = []
    for _, _, terms in _relation_instances(M, 1, 1):
        for _, seq in terms:
            for gen in seq:
                if gen not in gens:
                    gens.append(gen)
    return gens


def outcome(fn, *args):
    try:
        return list(fn(*args).items())
    except EscapeError:
        return "escape"


@pytest.mark.parametrize("make", [
    lambda: build_extremal_loop((-1, 1)),
    lambda: build_extremal_loop((-1, 1), corrupt_xp=(1, 1)),
    lambda: build_root_of_unity(1),
    lambda: build_root_of_unity(2),
], ids=["loop", "corrupt", "rou1", "rou2"])
def test_apply_matches_per_label_loop(make):
    M = make()
    gens = relation_generators(M)
    assert {g[0] for g in gens} == {"k", "h", "xp", "xm", "phip", "phim"}
    # basis vectors, a mixed vector and every one-step image (for the loop
    # module these include boundary targets, whose images must escape)
    mixed = {v: M.q_power(k) + M.one() for k, v in enumerate(M.basis)}
    vecs = [{v: M.one()} for v in M.basis] + [mixed]
    vecs += [per_label_apply(M, g, {v: M.one()}) for g in gens
             for v in M.basis]
    escaped = 0
    for gen in gens:
        for vec in vecs:
            want = outcome(per_label_apply, M, gen, vec)
            escaped += want == "escape"
            assert outcome(M.apply, gen, vec) == want, (gen, vec)
    assert (escaped > 0) == (M.kind == "loop")


def test_apply_escapes_outside_window():
    M = build_extremal_loop((0, 1))
    for gen in (("k", 1, 1), ("xp", 0, 0), ("h", 2, 1)):
        with pytest.raises(EscapeError):
            M.apply(gen, {(1, 2): M.one()})
        with pytest.raises(EscapeError):
            M.apply(gen, {(1, 0): M.one(), (4, -1): M.one()})


def test_generator_operators_are_cached():
    for M in (build_extremal_loop((-1, 1)), build_root_of_unity(2)):
        assert M.op(("xp", 1, 0)) is M.op(("xp", 1, 0))
        assert M.op(("one",)) == LinOp.identity(M.basis, M.one())


@pytest.mark.parametrize("L", [1, 2, 3])
def test_q_power_shares_exponents_equal_mod_the_order(L):
    # on a quotient q is the root e^1, so q^e and q^(e + N) are one scalar
    M = build_root_of_unity(L)
    N = M.cyc_order
    for e in range(-2 * N, 2 * N):
        x = M.q_power(e)
        assert M.q_power(e + N) is x
        assert x == CycScalar.root_power(N, e)
    loop = build_extremal_loop((-1, 1))
    assert loop.q_power(5) is loop.q_power(5)
    assert loop.q_power(5) == QScalar.q_power(5) != loop.q_power(1)


def test_escape_on_window_edge():
    M = build_extremal_loop((0, 1))
    with pytest.raises(EscapeError):
        # v_{4,-1} is a boundary ghost; acting on it must escape
        M.apply(("xp", 3, 0), M.apply(("xp", 0, 0), one_vec(M, (1, 0))))


def test_h_eigenvalue_from_log():
    from fractions import Fraction

    from qtoroidal.scalars import q_int
    M = build_extremal_loop((-2, 2))
    # v_{a,p} carries the fundamental-type l-weight Y[a, t] with
    # t = 4p+a-2, whose h eigenvalues are q^(t m) [m]_q / m
    v = (2, 1)
    t = 4 * 1 + 2 - 2
    for m in (1, 2, 3):
        got = M.h_eigenvalue(2, m, v)
        want = QScalar.q_power(t * m) * q_int(m) * Fraction(1, m)
        assert got == want
        # and the negative side mirrors it with t -> -t under q -> q
        got_neg = M.h_eigenvalue(2, -m, v)
        assert got_neg == QScalar.q_power(-t * m) * q_int(m) * Fraction(1, m)


H_ORACLE_MODULES = [
    *(lambda w=w, x=x: build_extremal_loop(w, corrupt_xp=x)
      for w in ((-2, 2), (-3, 3), (0, 4)) for x in (None, (1, 0))),
    *(lambda L=L: build_root_of_unity(L) for L in (1, 2, 3, 4, 5)),
]
H_ORACLE_IDS = ["loop%d:%d-%s" % (w[0], w[1], x)
                for w in ((-2, 2), (-3, 3), (0, 4)) for x in ("ok", "x10")] \
    + ["rou%d" % L for L in (1, 2, 3, 4, 5)]


@pytest.mark.parametrize("make", H_ORACLE_MODULES, ids=H_ORACLE_IDS)
def test_h_eigenvalue_matches_the_log_oracle(make):
    # every node, every |m| <= 5 and every basis vector: the value and its
    # printed form equal those read through the general logarithm
    M = make()
    modes = [m for m in range(-5, 6) if m]
    for label in M.basis:
        for g in M.nodes:
            for m in modes:
                got = M.h_eigenvalue(g, m, label)
                want = log_h_eigenvalue(M, g, m, label)
                assert (got, repr(got)) == (want, repr(want)), (g, m, label)


def assert_int_qscalar(x):
    """The stored parts of a QScalar are ints: no float, no Fraction."""
    for c in (*x._n, x._d, x._v):
        assert type(c) is int, (x, c)


def test_loop_module_scalars_keep_int_parts():
    M = build_extremal_loop((-2, 2))
    gens = relation_generators(M)
    entries = 0
    for gen in gens:
        for col in M.op(gen).cols.values():
            for v in col.values():
                assert isinstance(v, QScalar)
                assert_int_qscalar(v)
                entries += 1
    assert entries > 0
    assert any(gen[0] == "h" for gen in gens)
    # every h eigenvalue up to |m| = 3, past the relations' |m| = 1: the
    # eigenvalues q^(t m) [m]_q / m carry the denominators 2 and 3
    denominators = set()
    for g in M.nodes:
        for m in (1, -1, 2, -2, 3, -3):
            for label in M.basis:
                val = M.h_eigenvalue(g, m, label)
                assert_int_qscalar(val)
                denominators.add(val._d)
    assert denominators == {1, 2, 3}


def test_phi_series_rejects_a_ladder_phi_image():
    class LadderPhi(ModuleRealization):
        def image(self, gen, label):
            if gen[0] == "phip" and gen[2] == 1:
                return (label[0] % 4 + 1, label[1]), self.one()
            return super().image(gen, label)

    M = LadderPhi("rou", period=1)
    assert M.phi_series(1, 1, (1, 0), 0).at(0) == M.q_power(1)
    with pytest.raises(ConstructionError):
        M.phi_series(1, 1, (1, 0), 1)


def test_relations_loop_smoke():
    M = build_extremal_loop((-2, 2))
    rep = verify_relations(M, 1, 1)
    assert rep.passed, rep.to_json()
    assert rep.family("serre")["checked_vectors"] > 0


def test_relations_rou_smoke():
    M = build_root_of_unity(1)
    rep = verify_relations(M, 2, 2)
    assert rep.passed, rep.to_json()
    assert all(f["skipped_vectors"] == 0 for f in rep.families)


def test_corrupted_table_fails_with_witness():
    # flipping the sign of the single table x+_{1,1} breaks the relations
    # tying different spectral indices together
    M = build_extremal_loop((-2, 2), corrupt_xp=(1, 1))
    rep = verify_relations(M, 1, 1)
    assert not rep.passed
    offenders = [f for f in rep.families if not f["passed"]]
    assert any(f["family"] == "h-x" for f in offenders)
    for f in offenders:
        assert f["witness"] is not None
        assert "relation" in f["witness"] and "vector" in f["witness"]


def replay_verify_relations(M, r_bound, m_bound):
    """The per-vector replay verifier: every term's word is applied to
    ``{v: one}`` one generator at a time through ``M.apply``.  Kept as
    the oracle for the walk over generator columns in
    ``verify_relations``."""
    report = RelationReport()
    state = {}
    for family, desc, terms in _relation_instances(M, r_bound, m_bound):
        fam = state.setdefault(family,
                               {"instances": 0, "checked": 0, "skipped": 0,
                                "witness": None})
        fam["instances"] += 1
        if fam["witness"] is not None:
            continue
        for v in M.basis:
            try:
                acc = {}
                for coef, seq in terms:
                    vec = {v: M.one()}
                    for gen in reversed(seq):
                        vec = M.apply(gen, vec)
                    for lab, val in vec.items():
                        w = val * coef
                        if lab in acc:
                            w = acc[lab] + w
                        if not w:
                            acc.pop(lab, None)
                        else:
                            acc[lab] = w
            except EscapeError:
                fam["skipped"] += 1
                continue
            fam["checked"] += 1
            if acc:
                lab, val = next(iter(acc.items()))
                fam["witness"] = {"relation": desc, "vector": list(v),
                                  "entry": list(lab), "value": repr(val)}
                break
    for family, fam in state.items():
        report.add(family, fam["instances"], fam["checked"], fam["skipped"],
                   fam["witness"])
    return report


# the relations benchmark's modules: loop windows (a - w, a + w) checked
# to bounds (r, m) as (w, r, m, a), and its corrupted x+ tables (1, r) on
# the windows (a - 2, a + 2) as (a, r)
BENCH_LOOPS = [(w, r, m, a) for w, r, m in ((2, 1, 0), (3, 0, 1), (2, 0, 1))
               for a in (-1, 0, 1)]
BENCH_CORRUPTIONS = [(a, r) for a in (-1, 0, 1) for r in (-1, 0, 1)]


@pytest.mark.parametrize("make, r_bound, m_bound", [
    (lambda: build_extremal_loop((-2, 2)), 1, 1),
    (lambda: build_extremal_loop((-2, 2)), 1, 0),
    (lambda: build_extremal_loop((-3, 3)), 0, 1),
    (lambda: build_extremal_loop((-2, 2), corrupt_xp=(1, 1)), 1, 1),
    (lambda: build_extremal_loop((-2, 2), corrupt_xp=(1, 0)), 1, 1),
    (lambda: build_root_of_unity(1), 1, 1),
    (lambda: build_root_of_unity(2), 1, 1),
    (lambda: build_root_of_unity(3), 1, 1),
    # witnesses carrying CycScalar values: h-x, xpxm and quadratic fail
    (lambda: ModuleRealization("rou", period=2, corrupt_xp=(1, 0)), 1, 1),
    # h eigenvalues read from the second log coefficient
    (lambda: build_extremal_loop((-2, 2)), 1, 2),
    (lambda: build_root_of_unity(3), 0, 1),
    # order 16, where Phi has degree 8
    (lambda: build_root_of_unity(4), 1, 1),
    (lambda: build_root_of_unity(4), 0, 1),
] + [(lambda w=w, a=a: build_extremal_loop((a - w, a + w)), r, m)
     for w, r, m, a in BENCH_LOOPS
] + [(lambda a=a, rr=rr: build_extremal_loop((a - 2, a + 2),
                                            corrupt_xp=(1, rr)), 0, 1)
     for a, rr in BENCH_CORRUPTIONS
], ids=["loop-r1m1", "loop-r1m0", "loop3-r0m1", "corrupt-r1", "corrupt-r0",
        "rou1", "rou2", "rou3", "rou2-corrupt-r0", "loop-r1m2", "rou3-r0m1",
        "rou4", "rou4-r0m1"]
    + ["loop%d@%d-r%dm%d" % (w, a, r, m) for w, r, m, a in BENCH_LOOPS]
    + ["corrupt@%d-xp(1,%d)" % c for c in BENCH_CORRUPTIONS])
def test_verify_relations_matches_replay(make, r_bound, m_bound):
    M = make()
    want = replay_verify_relations(M, r_bound, m_bound).to_json()
    got = verify_relations(M, r_bound, m_bound).to_json()
    assert got == want
    if M.corrupt_xp is not None:
        assert not want["passed"]
    if M.kind == "loop":
        assert any(f["skipped_vectors"] for f in want["families"])


def test_verify_relations_skips_a_serre_word_escaping_mid_word():
    # some serre word maps a window vector off the window with its first
    # letter, so its middle letter has no column to act through
    M = build_extremal_loop((0, 1))
    escapes = []
    for family, desc, terms in _relation_instances(M, 1, 0):
        if family != "serre":
            continue
        for _, seq in terms:
            first, middle = seq[-1], seq[-2]
            for v in M.basis:
                img = M.apply(first, one_vec(M, v))
                if img and not M.in_basis(next(iter(img))):
                    with pytest.raises(EscapeError):
                        M.apply(middle, img)
                    escapes.append((desc, v))
    assert escapes
    want = replay_verify_relations(M, 1, 0).to_json()
    assert verify_relations(M, 1, 0).to_json() == want
    assert want["passed"] and want["families"][-1]["family"] == "serre"
    assert want["families"][-1]["skipped_vectors"]


def test_verify_relations_witness_entry_off_the_window():
    # the quadratic witness's entry is the image of a word whose last
    # letter leaves the window
    M = build_extremal_loop((0, 1), corrupt_xp=(1, 0))
    want = replay_verify_relations(M, 0, 1).to_json()
    assert verify_relations(M, 0, 1).to_json() == want
    witness = [f for f in want["families"]
               if f["family"] == "quadratic"][0]["witness"]
    assert witness["entry"] == [4, -1]
    assert M.in_basis(tuple(witness["vector"]))
    assert not M.in_basis(tuple(witness["entry"]))


def rebuilt_relation_instances(M, r_bound, m_bound):
    """The relation generator as it was before its coefficients were
    hoisted out of the inner loops: every instance builds its own.  Kept
    as the oracle for ``_relation_instances``."""
    nodes = M.nodes
    one = QScalar.one()
    rng_r = range(-r_bound, r_bound + 1)
    rng_m = [m for m in range(-m_bound, m_bound + 1) if m]

    for a in nodes:
        for b in nodes:
            yield ("k-cartan", "k_%d k_%d = k_%d k_%d" % (a, b, b, a),
                   [(one, [("k", a, 1), ("k", b, 1)]),
                    (-one, [("k", b, 1), ("k", a, 1)])])
        yield ("k-cartan", "k_%d k_%d^-1 = 1" % (a, a),
               [(one, [("k", a, 1), ("k", a, -1)]), (-one, [])])
        for b in nodes:
            for m in rng_m:
                yield ("k-cartan", "[k_%d, h_{%d,%d}] = 0" % (a, b, m),
                       [(one, [("k", a, 1), ("h", b, m)]),
                        (-one, [("h", b, m), ("k", a, 1)])])

    for a in nodes:
        for b in nodes:
            for m in rng_m:
                for mp in rng_m:
                    yield ("h-h", "[h_{%d,%d}, h_{%d,%d}] = 0"
                           % (a, m, b, mp),
                           [(one, [("h", a, m), ("h", b, mp)]),
                            (-one, [("h", b, mp), ("h", a, m)])])

    for a in nodes:
        for b in nodes:
            B = _b_matrix(a, b)
            for r in rng_r:
                for sgn, tag in ((1, "xp"), (-1, "xm")):
                    yield ("k-x",
                           "k_%d x%s_{%d,%d} k_%d^-1 = q^%d x%s_{%d,%d}"
                           % (a, tag, b, r, a, sgn * B, tag, b, r),
                           [(one, [("k", a, 1), (tag, b, r), ("k", a, -1)]),
                            (-QScalar.q_power(sgn * B), [(tag, b, r)])])

    for a in nodes:
        for b in nodes:
            B = _b_matrix(a, b)
            for m in rng_m:
                coef = q_int(m * B) * Fraction(1, m)
                for sgn, tag in ((1, "xp"), (-1, "xm")):
                    for r in rng_r:
                        yield ("h-x",
                               "[h_{%d,%d}, x%s_{%d,%d}]" % (a, m, tag, b, r),
                               [(one, [("h", a, m), (tag, b, r)]),
                                (-one, [(tag, b, r), ("h", a, m)]),
                                (-QScalar.from_const(sgn) * coef,
                                 [(tag, b, m + r)])])

    qdiff = QScalar({1: 1, -1: -1})
    for a in nodes:
        for b in nodes:
            for r in rng_r:
                for rp in rng_r:
                    terms = [(qdiff, [("xp", a, r), ("xm", b, rp)]),
                             (-qdiff, [("xm", b, rp), ("xp", a, r)])]
                    if a == b:
                        s = r + rp
                        if s >= 0:
                            terms.append((-one, [("phip", a, s)]))
                        if s <= 0:
                            terms.append((one, [("phim", a, s)]))
                    yield ("xpxm",
                           "[x+_{%d,%d}, x-_{%d,%d}] vs phi" % (a, r, b, rp),
                           terms)

    for a in nodes:
        for b in nodes:
            B = _b_matrix(a, b)
            for sgn, tag in ((1, "xp"), (-1, "xm")):
                qB = QScalar.q_power(sgn * B)
                for r in rng_r:
                    for rp in rng_r:
                        yield ("quadratic",
                               "x%s_{%d,%d+1} x%s_{%d,%d} exchange"
                               % (tag, a, r, tag, b, rp),
                               [(one, [(tag, a, r + 1), (tag, b, rp)]),
                                (-qB, [(tag, b, rp), (tag, a, r + 1)]),
                                (-qB, [(tag, a, r), (tag, b, rp + 1)]),
                                (one, [(tag, b, rp + 1), (tag, a, r)])])

    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            c_ab = -1 if (a - b) % 4 in (1, 3) else 0
            s = 1 - c_ab
            binoms = [q_binom(s, k) for k in range(s + 1)]
            for sgn, tag in ((1, "xp"), (-1, "xm")):
                for r1 in rng_r:
                    for r2 in rng_r:
                        if s == 2 and r2 < r1:
                            continue
                        for rp in rng_r:
                            rs = (r1, r2)[:s]
                            terms = []
                            perms = {rs, rs[::-1]} if s == 2 else {rs}
                            for perm in sorted(perms):
                                weight = 2 if (s == 2 and len(perms) == 1) \
                                    else 1
                                for k in range(s + 1):
                                    seq = [(tag, a, rr) for rr in perm[:k]]
                                    seq.append((tag, b, rp))
                                    seq += [(tag, a, rr) for rr in perm[k:]]
                                    coef = binoms[k] * Fraction(
                                        (-1) ** k * weight)
                                    terms.append((coef, seq))
                            yield ("serre",
                                   "serre %s (%d,%d) r=%r r'=%d"
                                   % (tag, a, b, rs, rp), terms)


def _instance_listing(gen):
    return [(family, desc, [(repr(coef), seq) for coef, seq in terms])
            for family, desc, terms in gen]


@pytest.mark.parametrize("make, r_bound, m_bound", [
    (lambda: build_extremal_loop((-2, 2)), 1, 1),
    (lambda: build_extremal_loop((-2, 2)), 2, 2),
    (lambda: build_root_of_unity(1), 1, 1),
    (lambda: build_root_of_unity(1), 2, 2),
    (lambda: build_root_of_unity(2), 1, 1),
    (lambda: build_root_of_unity(2), 2, 2),
], ids=["loop-r1m1", "loop-r2m2", "rou1-r1m1", "rou1-r2m2", "rou2-r1m1",
        "rou2-r2m2"])
def test_relation_instances_match_rebuilt_coefficients(make, r_bound,
                                                       m_bound):
    # the oracle builds QScalar coefficients; the library builds them in
    # the module's ring, so a quotient module's must be CycScalars
    M = make()
    want = _instance_listing(
        (family, desc, [(M.from_qscalar(coef), seq) for coef, seq in terms])
        for family, desc, terms in rebuilt_relation_instances(M, r_bound,
                                                              m_bound))
    got = _instance_listing(_relation_instances(M, r_bound, m_bound))
    assert got == want
    assert {family for family, _, _ in want} == {
        "k-cartan", "h-h", "k-x", "h-x", "xpxm", "quadratic", "serre"}


def rotated(gen, k):
    """gen with its node moved k steps round the 4-cycle."""
    return gen if gen[0] == "one" else (gen[0], (gen[1] + k) % 4, gen[2])


def degree(gen):
    """The spectral degree: r for x+-_{i,r}, m for phi+-_{i,m} and
    h_{i,m}, 0 for k and the unit."""
    return 0 if gen[0] in ("k", "one") else gen[2]


def outer_node(desc):
    """The node of an instance's outermost loop: the first number its
    description names."""
    return int(re.search(r"\d+", desc).group())


@pytest.mark.parametrize("make, r_bound, m_bound", [
    (lambda: build_root_of_unity(1), 1, 1),
    (lambda: build_root_of_unity(1), 2, 2),
    (lambda: build_root_of_unity(2), 1, 1),
    (lambda: build_root_of_unity(1), 0, 0),
    (lambda: build_extremal_loop((-2, 2)), 1, 1),
], ids=["rou1-r1m1", "rou1-r2m2", "rou2-r1m1", "rou1-r0m0", "loop-r1m1"])
def test_relation_instances_close_under_rotation(make, r_bound, m_bound):
    # the instances whose outermost node is 0, rotated round the cycle by
    # k = 0..3, are the whole instance list as a multiset, coefficients
    # included; and the words of every instance share one total degree
    M = make()
    full = list(_relation_instances(M, r_bound, m_bound))
    reps = [inst for inst in full if outer_node(inst[1]) == 0]
    assert 4 * len(reps) == len(full)
    # the orbit walk's representatives
    assert (_instance_listing(_relation_instances(M, r_bound, m_bound, (0,)))
            == _instance_listing(reps))

    def key(family, terms, k):
        return (family, tuple((repr(coef), tuple(rotated(g, k) for g in seq))
                              for coef, seq in terms))

    assert (Counter(key(family, terms, k) for family, _, terms in reps
                    for k in range(4))
            == Counter(key(family, terms, 0) for family, _, terms in full))
    for family, desc, terms in full:
        degrees = {sum(degree(g) for g in seq) for _, seq in terms}
        assert len(degrees) == 1, desc


def doubled_xp(L):
    """The period-L quotient with every x+ table doubled: the rotation
    still intertwines each generator up to q^deg, but [x+, x-] is off by
    a factor 2."""
    class DoubledXp(ModuleRealization):
        def image(self, gen, label):
            img = super().image(gen, label)
            if gen[0] == "xp" and img is not None:
                img = img[0], img[1] * 2
            return img
    return DoubledXp("rou", period=L)


@pytest.mark.parametrize("L, r_bound, m_bound",
                         [(1, 1, 1), (2, 1, 1), (1, 0, 0)])
def test_symmetric_but_wrong_quotient_fails_as_the_replay(L, r_bound,
                                                          m_bound):
    M = doubled_xp(L)
    want = replay_verify_relations(M, r_bound, m_bound).to_json()
    assert not want["passed"]
    assert verify_relations(M, r_bound, m_bound).to_json() == want


def walk_trace(M, rotates, fail=None):
    """The descriptions ``_first_witness_walk`` checks on M at bounds
    (1, 1), with ``fail(desc)`` giving a witness or raising, and the
    records it returns."""
    seen = []

    def check(desc, terms, fam):
        seen.append(desc)
        fam["checked"] += 1
        return None if fail is None else fail(desc)
    return seen, _first_witness_walk(M, 1, 1, check, rotates)


def test_orbit_walk_checks_one_instance_per_orbit():
    M = build_root_of_unity(1)
    reps = [desc for _, desc, _ in _relation_instances(M, 1, 1, (0,))]
    full = [desc for _, desc, _ in _relation_instances(M, 1, 1)]
    full_seen, full_fams = walk_trace(M, None)
    assert full_seen == full
    # every generator rotates: the representatives alone, counted 4 times
    asked = []
    seen, fams = walk_trace(M, lambda gen: asked.append(gen) or True)
    assert seen == reps and fams == full_fams
    # asked of every generator the full walk reads, each once
    read = {gen for _, _, terms in _relation_instances(M, 1, 1)
            for _, seq in terms for gen in seq}
    assert sorted(asked) == sorted(read)
    # a loop module, a generator that does not rotate, a witness or a
    # library error: the full walk from the start
    assert walk_trace(build_extremal_loop((-2, 2)), lambda gen: True)[0] \
        == [desc for _, desc, _ in
            _relation_instances(build_extremal_loop((-2, 2)), 1, 1)]
    assert walk_trace(M, lambda gen: gen != ("xm", 2, 1))[0] == full
    witness = reps[5]

    def fail(desc):
        return desc if desc == witness else None
    want_seen, want_fams = walk_trace(M, None, fail)
    assert walk_trace(M, lambda gen: True, fail) == (reps[:6] + want_seen,
                                                      want_fams)
    assert want_fams["k-cartan"]["witness"] == witness
    assert want_fams["k-cartan"]["checked"] == full.index(witness) + 1

    seen = []

    def escape(desc, terms, fam):
        seen.append(desc)
        if desc == reps[-1]:
            raise EscapeError("off the window")
    with pytest.raises(EscapeError):
        _first_witness_walk(M, 1, 1, escape, lambda gen: True)
    assert seen == reps + full[:full.index(reps[-1]) + 1]


def test_verify_relations_rotates_generator_columns(monkeypatch):
    # the rotation test verify_relations hands to the walk holds for every
    # generator of a clean quotient, and of the doubled one, and fails
    # where a flipped x+_{1,0} table meets its rotation
    handed = []
    walk = modrep._first_witness_walk

    def spy(M, r_bound, m_bound, check, rotates=None):
        handed.append(rotates)
        return walk(M, r_bound, m_bound, check, rotates)
    monkeypatch.setattr(modrep, "_first_witness_walk", spy)
    for M in (build_root_of_unity(2), doubled_xp(2)):
        verify_relations(M, 1, 1)
        assert all(handed[-1](g) for g in relation_generators(M))
    verify_relations(ModuleRealization("rou", period=2, corrupt_xp=(1, 0)),
                     1, 1)
    assert [handed[-1](("xp", i, 0)) for i in range(4)] == [
        False, False, True, True]


@pytest.mark.parametrize("r_bound, m_bound", [(-1, -1), (-1, 1), (1, -1)])
def test_negative_relation_bound_is_an_input_error(r_bound, m_bound):
    # a negative bound empties whole families of instances, so the
    # report would pass on fewer relations than it names
    for M in (build_root_of_unity(1), build_extremal_loop((-2, 2))):
        with pytest.raises(InputError, match="bounds must be >= 0"):
            verify_relations(M, r_bound, m_bound)


@pytest.mark.parametrize("make", [
    lambda: build_extremal_loop((-2, 2)),
    lambda: build_root_of_unity(2),
], ids=["loop", "rou2"])
def test_shared_scalar_constants_stay_intact(make):
    # every table entry and relation coefficient shares the module's
    # constants, so a mutation or an alias would show here after use
    M = make()
    verify_relations(M, 1, 1)
    l_character_offset(M)
    if M.kind == "loop":
        fresh_one, fresh_power = QScalar.one(), QScalar.q_power
    else:
        fresh_one = CycScalar.one(M.cyc_order)
        fresh_power = partial(CycScalar.root_power, M.cyc_order)
    assert M.one() == fresh_one
    assert M.qq_inv() == fresh_power(1) - fresh_power(-1)
    for e in range(-12, 13):
        assert M.q_power(e) == fresh_power(e)
        assert M.q_power(e) is M.q_power(e)


def test_verify_relations_leaves_no_reference_cycles():
    # whatever the verifier allocates is freed by reference counting on
    # return, not left to the cyclic collector
    M = build_extremal_loop((-2, 2))
    gc.collect()
    gc.disable()
    try:
        verify_relations(M, 1, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rou_specializes_loop():
    L = 2
    M = build_extremal_loop((-1, 2 * L))
    R = build_root_of_unity(L)
    order = 4 * L
    gens = [("xp", 0, 1), ("xp", 2, -1), ("xm", 3, 2), ("k", 1, 1),
            ("phip", 2, 2), ("phim", 0, -1)]
    for gen in gens:
        for label in M.basis:
            img = M.image(gen, label)
            rimg = R.image(gen, (label[0], label[1] % L))
            if img is None:
                assert rimg is None
                continue
            tgt, scal = img
            rtgt, rscal = rimg
            spec = cyclotomic_specialize(scal, order)
            if tgt == "diag":
                assert rtgt == "diag"
            else:
                assert rtgt == (tgt[0], tgt[1] % L)
            assert rscal == spec


def test_rou_k_orders():
    R = build_root_of_unity(2)
    v = (1, 0)
    k = R.apply(("k", 0, 1), one_vec(R, v))[v]
    # k eigenvalues are eps^{+-1}; their multiplicative order divides 8
    assert (k ** 8).is_one()


def test_l_character_reads_display_with_shift():
    M = build_extremal_loop((-2, 2))
    data = l_character(M)
    # the extremal vector carries the chain seed shifted one step down
    assert data["terms"][(1, 0)] == \
        display_monomial((1, 0)).shift_spectral(-1)
    off = l_character_offset(M)
    assert off["c"] == -1


def test_l_character_offset_rou():
    for L in (1, 2):
        R = build_root_of_unity(L)
        off = l_character_offset(R)
        assert off["c"] == -1
        assert -1 in off["candidates"]


def moment_l_character(M):
    """The moment reading of l-weights on loop modules: the first log
    moment gives the node parts, the constant term, moments 2..3 and the
    negative-direction series are checked against them.  Kept as the
    oracle for ``l_character``."""
    if M.kind != "loop":
        raise DomainError("direct moment reading needs generic q; use "
                          "l_character_offset for cyclotomic modules")
    series_order = L_SERIES_ORDER
    terms = {}
    for label in M.basis:
        parts = {}
        for g in M.nodes:
            series = M.phi_series(g, 1, label, series_order)
            f0 = series.at(0)
            if not f0:
                raise DomainError("phi constant term vanishes on %r"
                                  % (label,))
            delta = f0.as_q_power()
            if delta is None:
                raise DomainError("phi constant term is not a q power")
            cs = series_log_coeffs(series, series_order)
            part = {}
            if cs[0] is not None:
                p1 = cs[0].exact_div(M.qq_inv())
                for e, v in p1.items():
                    if v.denominator != 1:
                        raise DomainError("non-integer multiplicity in the "
                                          "first moment")
                    part[e] = int(v)
            if sum(part.values()) != delta:
                raise DomainError("moment data disagrees with the constant "
                                  "term on %r" % (label,))
            for m in range(2, series_order + 1):
                want = QScalar.zero()
                for l, n in part.items():
                    want = want + QScalar({l * m: n})
                got = cs[m - 1]
                got = (QScalar.zero() if got is None
                       else (got * m).exact_div(QScalar({m: 1, -m: -1})))
                if got != want:
                    raise DomainError("moment %d mismatch on %r"
                                      % (m, label))
            minus = M.phi_series(g, -1, label, series_order)
            if not minus == expected_phi_series(M, part, -1, series_order):
                raise DomainError("negative-direction series mismatch on "
                                  "%r" % (label,))
            for l, n in part.items():
                if n:
                    parts[(g, l)] = n
        terms[label] = YMonomial(parts)
    return {"terms": terms}


def shift_tracking_l_character_offset(M):
    """``l_character_offset`` with its loop branch tracking one shift per
    vector from the moment reading, and its cyclotomic branch trying each
    candidate shift through the full series comparison.  Kept as the
    oracle for the one series rule."""
    if M.kind == "loop":
        data = moment_l_character(M)
        c = None
        for label, m in data["terms"].items():
            want = display_monomial(label)
            got_exps = sorted(m.key)
            want_exps = sorted(want.key)
            if len(got_exps) != len(want_exps):
                raise DomainError("l-weight shape differs from the display "
                                  "on %r" % (label,))
            shifts = {lg - lw for (ig, lg, eg), (iw, lw, ew)
                      in zip(got_exps, want_exps)}
            if len(shifts) != 1:
                raise DomainError("no uniform shift on %r" % (label,))
            if m != want.shift_spectral(next(iter(shifts))):
                raise DomainError("monomial differs beyond a shift on %r"
                                  % (label,))
            s = next(iter(shifts))
            if c is None:
                c = s
            elif c != s:
                raise DomainError("shift is not constant across the basis: "
                                  "%d vs %d" % (c, s))
        return {"c": c, "terms": {str(k): mono_format(v)
                                  for k, v in data["terms"].items()}}
    N = M.cyc_order
    matches = []
    for c in range(-N // 2, N - N // 2):
        if all(M.phi_series(g, sign, label, L_SERIES_ORDER)
               == expected_phi_series(
                   M, display_monomial(label).shift_spectral(c).node_part(g),
                   sign, L_SERIES_ORDER)
               for label in M.basis for g in M.nodes for sign in (1, -1)):
            matches.append(c)
    if not matches:
        raise DomainError("no constant shift aligns the quotient with the "
                          "display")
    return {"c": min(matches, key=abs), "candidates": matches}


def l_outcome(fn, M):
    try:
        return fn(M)
    except QtorError as exc:
        return type(exc)


L_WINDOWS = [(-2, 2), (-3, 3), (0, 4), (-1, 5), (2, 2), (-5, -1), (0, 0)]


@pytest.mark.parametrize("make", [
    *(lambda w=w, x=x: build_extremal_loop(w, corrupt_xp=x)
      for w in L_WINDOWS for x in (None, (1, 0), (0, -1))),
    *(lambda L=L: build_root_of_unity(L) for L in (1, 2, 3, 4)),
], ids=["loop%d:%d-%s" % (w[0], w[1], x) for w in L_WINDOWS
        for x in ("ok", "x10", "x0m1")] + ["rou%d" % L for L in (1, 2, 3, 4)])
def test_l_character_matches_moment_reading(make):
    M = make()
    assert l_outcome(l_character, M) == l_outcome(moment_l_character, M)
    want = l_outcome(shift_tracking_l_character_offset, M)
    assert l_outcome(l_character_offset, M) == want
    assert want["c"] == -1


class BentPhi(ModuleRealization):
    """The (-2, 2) loop window with one phi table entry bent."""

    def __init__(self, gen, label, bend):
        super().__init__("loop", window=(-2, 2))
        self.bent = (gen, label, bend)

    def image(self, gen, label):
        img = super().image(gen, label)
        if (gen, label) == self.bent[:2]:
            return "diag", self.bent[2](img[1])
        return img


@pytest.mark.parametrize("gen, label, bend, moment_error", [
    (("phip", 1, 2), (2, 0), lambda v: v * 2, ExactDivisionError),
    (("phim", 1, -1), (1, 1), lambda v: -v, DomainError),
    (("phip", 1, 0), (1, 0), lambda v: v * QScalar.q_power(2), DomainError),
    (("phip", 0, 3), (4, 0), lambda v: v + QScalar.q_power(5),
     ExactDivisionError),
    (("phip", 2, 1), (3, 0), lambda v: v * 3, DomainError),
    # the first log moment itself is not divisible by q - q^-1
    (("phip", 2, 1), (3, 0), lambda v: v + 1, ExactDivisionError),
], ids=["phip12-double", "phim1m1-negate", "phip10-q2", "phip03-plus-q5",
        "phip21-triple", "phip21-plus-1"])
def test_l_weight_check_rejects_a_bent_phi_entry(gen, label, bend,
                                                 moment_error):
    M = BentPhi(gen, label, bend)
    assert M.phi_series(gen[1], 1 if gen[0] == "phip" else -1, label,
                        L_SERIES_ORDER) != \
        build_extremal_loop((-2, 2)).phi_series(
            gen[1], 1 if gen[0] == "phip" else -1, label, L_SERIES_ORDER)
    assert l_outcome(moment_l_character, M) is moment_error
    # the one series rule rejects every bend and names the bent vector
    for fn in (l_character, l_character_offset):
        with pytest.raises(DomainError, match=re.escape(repr(label))):
            fn(M)


@pytest.mark.parametrize("gen, label, bend", [
    # h_{2,1} on (3, 0) is then not a multiple of q - q^-1
    (("phip", 2, 1), (3, 0), lambda v: v + 1),
    # phi_0 vanishes, so the log of the series is undefined
    (("phip", 1, 0), (2, 0), lambda v: v - v),
    # (3, 0) lies outside node 1's pair, so phi_1.. vanish there; a zero
    # phi_0 must still fail, not read as the untouched eigenvalue 0
    (("phip", 1, 0), (3, 0), lambda v: v - v),
], ids=["phip21-plus-1", "phip10-zero", "phip10-zero-off-pair"])
def test_relation_check_names_a_bent_phi_vector(gen, label, bend):
    # building the h operators meets the bent vector and names it
    with pytest.raises(DomainError, match=re.escape(repr(label))):
        verify_relations(BentPhi(gen, label, bend), 1, 1)


@pytest.mark.parametrize("make", [
    lambda: build_extremal_loop((-2, 2)),
    lambda: build_root_of_unity(1),
    lambda: build_root_of_unity(2),
], ids=["loop-2:2", "rou1", "rou2"])
def test_order_zero_predicted_series_is_the_constant_term(make):
    # each factor (1 - z q^a)^n is 1 at order 0, so the prediction is the
    # constant q^(+-delta) of the phi series
    M = make()
    for label in M.basis:
        m = display_monomial(label).shift_spectral(-1)
        for g in M.nodes:
            for sign in (1, -1):
                assert expected_phi_series(M, m.node_part(g), sign, 0) == \
                    M.phi_series(g, sign, label, 0), (label, g, sign)


def test_trivial_module_empty_monomial():
    M = build_extremal_loop((-2, 2))
    # a module whose phi series is constant 1 reads back the identity
    series = expected_phi_series(M, {}, 1, 3)
    assert series.at(0) == M.one()
    assert all(series.at(m) is None for m in (1, 2, 3))


PHI_PARTS = [{}, *({l: n} for l in (-2, 0, 3) for n in range(-3, 4)),
             {0: 2, 2: -1}, {-1: -3, 1: 3}, {1: 1, 3: 1}]


@pytest.mark.parametrize("make", [
    lambda: build_extremal_loop((-2, 2)),
    lambda: build_root_of_unity(1),
    lambda: build_root_of_unity(3),
], ids=["loop-2:2", "rou1", "rou3"])
def test_expected_phi_series_matches_the_product_oracle(make):
    M = make()
    for part in PHI_PARTS:
        for sign in (1, -1):
            for order in range(1, 7):
                got = expected_phi_series(M, part, sign, order)
                want = expected_phi_series_by_products(M, part, sign, order)
                assert (got, repr(got)) == (want, repr(want)), \
                    (part, sign, order)


def test_display_monomial_matches_remark_at_l1():
    # reduced mod 4: the four displayed terms of the small quotient
    want = {mono_parse("Y[1,0] Y[0,1]^-1"), mono_parse("Y[2,1] Y[1,2]^-1"),
            mono_parse("Y[3,2] Y[2,3]^-1"), mono_parse("Y[0,3] Y[3,0]^-1")}
    got = {display_monomial((a, 0)).reduce_spectral_mod(4)
           for a in (1, 2, 3, 4)}
    assert got == want


def test_rou_l1_irreducible():
    assert rou_irreducible(build_root_of_unity(1))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_rou_irreducible_at_larger_periods(L):
    # the k-eigenvalues alone repeat from L = 2 on; with phi+_{g,1} the
    # patterns separate and the ladders decide
    assert rou_irreducible(build_root_of_unity(L))


def test_rou_irreducible_sees_cut_ladders(monkeypatch):
    # without the node-0 ladders v_{4,p} no longer reaches v_{1,p+1}, so
    # each p spans a submodule
    M = build_root_of_unity(2)
    image = M.image
    monkeypatch.setattr(M, "image", lambda gen, label: None
                        if gen[0] in ("xp", "xm") and gen[1] == 0
                        else image(gen, label))
    assert not rou_irreducible(M)


def test_rou_irreducible_rejects_a_loop_module():
    # the ladders of a loop window reach boundary labels outside it
    with pytest.raises(DomainError, match="periodic quotients"):
        rou_irreducible(build_extremal_loop((-1, 1)))


def test_rou_irreducible_raises_when_patterns_collide(monkeypatch):
    # phi+ flattened to 1 leaves only k, which repeats at L = 2
    M = build_root_of_unity(2)
    image = M.image
    monkeypatch.setattr(M, "image", lambda gen, label: ("diag", M.one())
                        if gen[0] == "phip" else image(gen, label))
    with pytest.raises(DomainError, match="share every k and phi"):
        rou_irreducible(M)


def test_hecke_companion_relation_and_spectra():
    for L in range(1, 8):
        rep = hecke_companion(L).verify()
        assert rep == {"relation": True, "x_spectrum": True,
                       "y_spectrum": True, "dual_basis": True,
                       "passed": True}, L


def _corrupt_companion(comp, kind):
    L = comp.L
    if kind == "y_reversed":
        comp.Y = LinOp({"w%d" % i: {"w%d" % ((i - 2) % L + 1):
                                    comp.eps_power(0)}
                        for i in range(1, L + 1)})
    elif kind == "x_eps2":
        comp.X = comp.X.scale(comp.eps_power(2))
    elif kind == "x_swap":
        cols = {src: dict(col) for src, col in comp.X.cols.items()}
        if L > 1:
            cols["w1"]["w1"], cols["w2"]["w2"] = (cols["w2"]["w2"],
                                                  cols["w1"]["w1"])
        comp.X = LinOp(cols)
    else:
        assert kind == "y_eps"
        comp.Y = comp.Y.scale(comp.eps_power(1))
    return comp


def _companion_failures(kind, L):
    """The report keys a corrupted companion must fail."""
    if kind == "y_reversed":
        # for L <= 2 the reversed cycle is the cycle itself
        return set() if L <= 2 else {"relation", "dual_basis"}
    if kind == "x_swap":
        # nothing to swap at L = 1; at L = 2 the swap is X -> -X, which
        # keeps the relation and the spectrum
        return {1: set(), 2: {"dual_basis"}}.get(L, {"relation",
                                                     "dual_basis"})
    spectrum = "x_spectrum" if kind == "x_eps2" else "y_spectrum"
    return {spectrum, "dual_basis"}


@pytest.mark.parametrize("kind", ["y_reversed", "x_eps2", "x_swap",
                                  "y_eps"])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_hecke_companion_negative_controls(kind, L):
    rep = _corrupt_companion(hecke_companion(L), kind).verify()
    fails = _companion_failures(kind, L)
    want = {key: key not in fails for key in ("relation", "x_spectrum",
                                              "y_spectrum", "dual_basis")}
    want["passed"] = not fails
    assert rep == want


def test_hecke_companion_rejects_bad_l():
    with pytest.raises(InputError):
        hecke_companion(0)


def test_l_character_rejects_rou_direct_read():
    # the message names the reading that does work on cyclotomic modules
    with pytest.raises(DomainError, match="use l_character_offset for"):
        l_character(build_root_of_unity(1))
