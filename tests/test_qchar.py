import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoroidal import qchar
from qtoroidal.cartan import (build_cartan, cartan_preset, finite_type_a,
                              infinite_a, quantized_cartan_condition)
from qtoroidal.errors import AlgorithmFailure, DomainError, InputError
from qtoroidal.monomials import (YMonomial, a_monomial, mono_format,
                                 mono_parse)
from qtoroidal.qchar import (QCharacter, _add_term_maps, char_from_json,
                             char_product, char_to_dot, char_to_json,
                             fm_expand, is_special, kr_qchar,
                             octahedron_verify, r_shift, s_term,
                             trivial_character, verify_tsystem)

A3TOR = cartan_preset("A3tor")
AINF = infinite_a()

# the displayed graph of the level-one character over the 4-node cycle,
# base point q^0, laid out by height
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


def fig_monomials(height):
    return {mono_parse(k): v for k, v in FIGURE_ROWS[height].items()}


def test_fundamental_char_matches_figure_rows():
    ch = fm_expand(A3TOR, mono_parse("Y[0,0]"), 4)
    for h in range(4):
        got = {m: c for m, c in ch.terms.items() if ch.heights[m] == h}
        assert got == fig_monomials(h), "height %d row differs" % h
    for m, c in fig_monomials(4).items():
        assert ch.coeff(m) == c
    assert ch.coeff(mono_parse("Y[0,2] Y[2,2] Y[2,4]^-1")) == 2


def test_fm_trivial_top():
    ch = fm_expand(A3TOR, mono_parse("1"), 4)
    assert ch.terms == {mono_parse("1"): 1}


def test_fm_rank_one():
    A1 = build_cartan([[2]], labels=[1])
    ch = fm_expand(A1, mono_parse("Y[1,0]"), 3)
    assert ch.terms == {mono_parse("Y[1,0]"): 1, mono_parse("Y[1,2]^-1"): 1}


def test_fm_rejects_non_dominant_top():
    with pytest.raises(InputError):
        fm_expand(A3TOR, mono_parse("Y[0,0]^-1"), 2)


def test_fm_gate_on_quantized_condition():
    plain = build_cartan([[2, -2], [-2, 2]])
    with pytest.raises(DomainError):
        fm_expand(plain, mono_parse("Y[0,0]"), 2)


def test_fm_deterministic_under_scheduling():
    base = fm_expand(A3TOR, mono_parse("Y[0,0]"), 4)
    for seed in range(6):
        other = fm_expand(A3TOR, mono_parse("Y[0,0]"), 4,
                          order_rng=random.Random(seed))
        assert other.terms == base.terms
        assert other.heights == base.heights


def merge_keys(a, b, c=1):
    """a + c*b over triple-tuple keys sorted by (node, spectral), summed in
    a dict: the oracles' own monomial arithmetic, independent of the
    library's."""
    acc = {(i, l): e for (i, l, e) in a}
    for (i, l, e) in b:
        acc[i, l] = acc.get((i, l), 0) + c * e
    return tuple(sorted((i, l, e) for (i, l), e in acc.items() if e))


def oracle_fm_expand(C, mtop, depth, order_rng=None):
    """The expansion with one ``itertools.product`` tuple per flip choice,
    each rebuilt from the monomial's key, the tuples past the depth budget
    generated and then dropped.  Kept as the oracle for ``fm_expand``."""
    if not quantized_cartan_condition(C):
        raise DomainError("quantized Cartan condition fails")
    if not mtop.is_dominant():
        raise InputError("top monomial must be dominant")
    if depth < 0:
        raise InputError("depth must be >= 0")

    heights = {mtop: 0}
    demands = {}
    layers = {0: [mtop]}
    coeffs = {}
    a_keys = {}

    for h in range(0, depth + 1):
        layer = layers.pop(h, [])
        layer.sort(key=lambda m: m.key)
        if order_rng is not None:
            order_rng.shuffle(layer)
        for m in layer:
            if m == mtop:
                c_m = 1
            else:
                c_m = max(demands[m].values())
            coeffs[m] = c_m
            for i in sorted({i for (i, _, _) in m.key}):
                covered = demands.get(m, {}).get(i, 0)
                if covered > c_m:
                    raise AlgorithmFailure(
                        "node-%s expansions over-demand %s: %d > %d"
                        % (i, mono_format(m), covered, c_m))
                excess = c_m - covered
                if excess == 0:
                    continue
                part = {l: e for (ni, l, e) in m.key if ni == i}
                if any(e < 0 for e in part.values()):
                    raise AlgorithmFailure(
                        "monomial %s must head %d new node-%s families "
                        "but is not dominant there"
                        % (mono_format(m), excess, i))
                room = depth - h
                if room == 0:
                    continue
                r = C.r(i)
                strings = qchar._string_decomposition(part, r)
                ranges = [range(min(s, room) + 1) for (_, s) in strings]
                for combo in itertools.product(*ranges):
                    v = sum(combo)
                    if v == 0 or h + v > depth:
                        continue
                    g = m.key
                    for (lo, s), t in zip(strings, combo):
                        top = lo + 2 * r * (s - 1)
                        for il in [(i, top + r - 2 * r * j)
                                   for j in range(t)]:
                            a_key = a_keys.get(il)
                            if a_key is None:
                                a_key = a_keys[il] = a_monomial(C, *il).key
                            g = merge_keys(g, a_key, -1)
                    g = YMonomial._from_key(g)
                    gh = h + v
                    known = heights.get(g)
                    if known is None:
                        heights[g] = gh
                        layers.setdefault(gh, []).append(g)
                        demands[g] = {}
                    elif known != gh:
                        raise AlgorithmFailure(
                            "inconsistent heights %d vs %d for %s"
                            % (known, gh, mono_format(g)))
                    demands[g][i] = demands[g].get(i, 0) + excess

    return QCharacter(C, mtop, depth, coeffs, heights)


def tuple_fm_expand(C, mtop, depth, order_rng=None):
    """The expansion on triple-tuple keys: each flip choice one A-inverse
    merged onto the choice it extends with ``merge_keys``, every
    generated monomial hashed as a ``YMonomial``.  Kept as the oracle for
    the packed-key ``fm_expand``."""
    if not quantized_cartan_condition(C):
        raise DomainError("quantized Cartan condition fails")
    if not mtop.is_dominant():
        raise InputError("top monomial must be dominant")
    if depth < 0:
        raise InputError("depth must be >= 0")

    heights = {mtop: 0}
    demands = {}
    layers = {0: [mtop]}
    coeffs = {}
    a_keys = {}

    for h in range(0, depth + 1):
        layer = layers.pop(h, [])
        layer.sort(key=lambda m: m.key)
        if order_rng is not None:
            order_rng.shuffle(layer)
        room = depth - h
        for m in layer:
            if h == 0:
                demand = {}
                c_m = 1
            else:
                demand = demands[m]
                c_m = max(demand.values())
            coeffs[m] = c_m
            parts = []
            for (i, l, e) in m.key:
                if parts and parts[-1][0] == i:
                    parts[-1][1][l] = e
                else:
                    parts.append((i, {l: e}))
            for i, part in parts:
                covered = demand.get(i, 0)
                if covered > c_m:
                    raise AlgorithmFailure(
                        "node-%s expansions over-demand %s: %d > %d"
                        % (i, mono_format(m), covered, c_m))
                excess = c_m - covered
                if excess == 0:
                    continue
                if any(e < 0 for e in part.values()):
                    raise AlgorithmFailure(
                        "monomial %s must head %d new node-%s families "
                        "but is not dominant there"
                        % (mono_format(m), excess, i))
                if room == 0:
                    continue
                r = C.r(i)
                choices = [(m.key, 0)]
                for lo, s in qchar._string_decomposition(part, r):
                    top = lo + 2 * r * s - r
                    extended = []
                    for g, v in choices:
                        extended.append((g, v))
                        for t in range(min(s, room - v)):
                            il = (i, top - 2 * r * t)
                            a_key = a_keys.get(il)
                            if a_key is None:
                                a_key = a_keys[il] = a_monomial(C, *il).key
                            g = merge_keys(g, a_key, -1)
                            v += 1
                            extended.append((g, v))
                    choices = extended
                for g, v in choices[1:]:
                    g = YMonomial._from_key(g)
                    gh = h + v
                    known = heights.get(g)
                    if known is None:
                        heights[g] = gh
                        layers.setdefault(gh, []).append(g)
                        demands[g] = {}
                    elif known != gh:
                        raise AlgorithmFailure(
                            "inconsistent heights %d vs %d for %s"
                            % (known, gh, mono_format(g)))
                    demands[g][i] = demands[g].get(i, 0) + excess

    return QCharacter(C, mtop, depth, coeffs, heights)


def expansion(fn, C, top, depth, seed):
    """Terms and heights of ``fn``'s expansion as lists in insertion
    order, or the message of the AlgorithmFailure it raises."""
    rng = None if seed is None else random.Random(seed)
    try:
        ch = fn(C, top, depth, order_rng=rng)
    except AlgorithmFailure as e:
        return str(e)
    return list(ch.terms.items()), list(ch.heights.items())


# tops with one and with several strings per node, several strings of
# one length among them; every depth from 0 up is compared, so each run
# ends on a layer where no flip fits the depth budget
ORACLE_TOPS = [
    ("A3tor", ["Y[0,0]", "Y[0,0] Y[0,2] Y[0,4]", "Y[0,0]^2 Y[0,4]",
               "Y[1,1] Y[2,0]"], 7),
    ("Ainf", ["Y[0,0] Y[0,2]", "Y[-1,0] Y[1,0]", "Y[0,0]^2 Y[0,4]"], 6),
    ("A1tor", ["Y[0,0]", "Y[0,0] Y[0,4]", "Y[0,0] Y[1,2]", "Y[0,0]^2"], 7),
    ("Bnp:3,2", ["Y[1,0]", "Y[3,0] Y[3,2]", "Y[2,0] Y[3,1]"], 8),
    ("Bnp:2,3", ["Y[1,0]", "Y[2,0] Y[2,2] Y[2,4]", "Y[1,0] Y[2,3]"], 8),
]


@pytest.mark.parametrize("name, tops, depth", ORACLE_TOPS,
                         ids=[name for name, _, _ in ORACLE_TOPS])
def test_fm_expand_matches_product_oracle(name, tops, depth):
    """Terms and heights equal the oracle's, in the same insertion order,
    at every depth up to ``depth`` and under shuffled layer orders; where
    the oracle fails, the expansion fails with the same message."""
    C = cartan_preset(name)
    for top in map(mono_parse, tops):
        for d in range(depth + 1):
            for seed in (None, 0, 1):
                assert (expansion(fm_expand, C, top, d, seed)
                        == expansion(oracle_fm_expand, C, top, d, seed)), \
                    (top, d, seed)


# tops with wide exponents: many strings of length one per node, so the
# packed fields need more bits than the exponents of the string tops
WIDE_TOPS = [
    ("A3tor", ["Y[0,0]^12", "Y[0,0]^5 Y[0,2]^3", "Y[1,1]^9 Y[2,0]^4"], 5),
    ("Ainf", ["Y[0,0]^12", "Y[0,0]^7 Y[1,1]^6"], 5),
    ("A1tor", ["Y[0,0]^12"], 5),
    ("Bnp:3,2", ["Y[3,0]^8", "Y[1,0]^6 Y[2,1]^3"], 5),
]


@pytest.mark.parametrize("name, tops, depth", ORACLE_TOPS + WIDE_TOPS,
                         ids=["%s-%s" % (name, n) for n, (name, _, _)
                              in enumerate(ORACLE_TOPS + WIDE_TOPS)])
def test_fm_expand_matches_tuple_oracle(name, tops, depth):
    """Terms and heights equal those of the expansion on triple-tuple
    keys, in the same insertion order, at every depth up to ``depth``
    and under shuffled layer orders; where it fails, the packed
    expansion fails with the same message."""
    C = cartan_preset(name)
    for top in map(mono_parse, tops):
        for d in range(depth + 1):
            for seed in (None, 0, 1):
                assert (expansion(fm_expand, C, top, d, seed)
                        == expansion(tuple_fm_expand, C, top, d, seed)), \
                    (top, d, seed)


def test_fm_expand_failure_matches_tuple_oracle():
    top = mono_parse("Y[0,0]^2 Y[0,4]")
    for seed in (None, 0, 1):
        got = expansion(fm_expand, A3TOR, top, 7, seed)
        assert got == expansion(tuple_fm_expand, A3TOR, top, 7, seed)
        assert got == ("monomial Y[0,2] Y[1,3]^-1 Y[2,2]^4 Y[3,3]^-1 must "
                       "head 1 new node-1 families but is not dominant "
                       "there")


def test_fm_expand_rejects_an_a_monomial_past_the_field_bound(monkeypatch):
    """The field width assumes the entries of A_{i,q^0} bound those of
    every A_{i,q^l}; an A-monomial that breaks the bound stops the
    expansion instead of wrapping a field."""
    real = qchar.a_monomial

    def doubled_off_zero(C, i, l):
        a = real(C, i, l)
        return a if l == 0 else a * a

    monkeypatch.setattr(qchar, "a_monomial", doubled_off_zero)
    with pytest.raises(AlgorithmFailure, match="exceeds the field bound 1"):
        fm_expand(A3TOR, mono_parse("Y[0,0]"), 3)


def test_kr_char_and_trivial_reject_negative_depth():
    with pytest.raises(InputError, match="depth must be >= 0"):
        trivial_character(A3TOR, -1)
    for k in (0, 1, 2):
        with pytest.raises(InputError, match="depth must be >= 0"):
            kr_qchar(A3TOR, 0, k, 0, -1)
    assert kr_qchar(A3TOR, 0, 0, 0, 0).terms == {mono_parse("1"): 1}


def test_char_product_rejects_negative_depth():
    ch = kr_qchar(A3TOR, 0, 1, 0, 2)
    for chars in ([ch], [ch, ch], []):
        with pytest.raises(InputError, match="depth must be >= 0"):
            char_product(chars, -1)
    assert char_product([ch], 0) == {mono_parse("Y[0,0]"): (1, 0)}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_kr_char_rejects_an_unknown_node(k):
    with pytest.raises(InputError) as exc:
        kr_qchar(A3TOR, 99, k, 0, 2)
    assert str(exc.value) == "node 99 is not one of the nodes 0, 1, 2, 3"


def test_kr_char_top_and_trivial():
    assert kr_qchar(A3TOR, 0, 0, 0, 3).terms == {mono_parse("1"): 1}
    ch = kr_qchar(A3TOR, 0, 1, 0, 3)
    assert ch.top == mono_parse("Y[0,0]")
    ch2 = kr_qchar(A3TOR, 0, 2, 0, 3)
    assert ch2.top == mono_parse("Y[0,0] Y[0,2]")
    # the first descent multiplies by the A-inverse at the string top
    expected = ch2.top.mul_power(a_monomial(A3TOR, 0, 3), -1)
    assert ch2.heights[expected] == 1


def test_s_term_a3tor():
    st = s_term(A3TOR, 0, 1, 0)
    assert sorted(st["factors"]) == [(1, 1, 1), (3, 1, 1)]
    assert st["nu"].coords == {0: -1}


def test_s_term_finite_a():
    C = finite_type_a(3)
    st = s_term(C, 1, 1, 0)
    assert st["factors"] == [(2, 1, 1)]


def test_s_term_isolated_node():
    C = build_cartan([[2]], labels=[1])
    st = s_term(C, 1, 3, 0)
    assert st["factors"] == []
    assert st["nu"].coords == {1: -3}
    assert st["nu"].alpha_coords == {1: -3}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_s_term_a1tor_strings(k):
    # C_01 = C_10 = -2: two node-1 strings of length k, at q^1 and q^3
    st = s_term(cartan_preset("A1tor"), 0, k, 0)
    assert st["factors"] == [(1, k, 1), (1, k, 3)]
    assert st["nu"].coords == {0: -k}


def test_s_term_k_scaling():
    st = s_term(AINF, 0, 2, 0)
    assert sorted(st["factors"]) == [(-1, 2, 1), (1, 2, 1)]


def test_tsystem_a3tor_k1():
    rep = verify_tsystem(A3TOR, 0, 1, 0, 4)
    assert rep["holds"], rep["mismatches"]


def test_tsystem_reduces_to_fundamental_identity_at_k1():
    # with the trivial right factor the second product is just the k=2 char
    rep = verify_tsystem(A3TOR, 2, 1, 5, 3)
    assert rep["holds"]


def test_tsystem_infinite_line():
    rep = verify_tsystem(AINF, 0, 1, 0, 3)
    assert rep["holds"], rep["mismatches"]


@pytest.mark.parametrize("C", [A3TOR, AINF], ids=["A3tor", "Ainf"])
@pytest.mark.parametrize("k", [0, -2])
def test_tsystem_rejects_k_below_1(C, k):
    # checked before any character is built, so the message names the
    # k given, not the k - 1 of the string character below it
    with pytest.raises(InputError) as exc:
        verify_tsystem(C, 0, k, 0, 3)
    assert str(exc.value) == "k must be >= 1, got k = %d" % k


BNP_PRESETS = ["Bnp:2,1", "Bnp:2,2", "Bnp:3,1", "Bnp:3,2", "Bnp:2,3",
               "Bnp:4,3"]


@pytest.mark.parametrize("name", BNP_PRESETS)
def test_tsystem_non_simply_laced(name):
    """The three-term recurrence with its correction term holds at every
    node of the deformed chains, where C_ij != C_ji and the r_i differ."""
    C = cartan_preset(name)
    for i in C.nodes:
        for k in (1, 2):
            rep = verify_tsystem(C, i, k, 0, 4)
            assert rep["holds"], (i, k, rep["mismatches"])


@pytest.mark.parametrize("i", [0, 1])
def test_tsystem_a1tor(i):
    for k in (1, 2, 3):
        rep = verify_tsystem(cartan_preset("A1tor"), i, k, 0, 4)
        assert rep["holds"], (k, rep["mismatches"])


def test_r_shift_monomial():
    assert r_shift(mono_parse("Y[0,0]"), 1, A3TOR) == mono_parse("Y[1,0]")


def test_r_shift_character_and_full_cycle():
    ch = kr_qchar(A3TOR, 0, 1, 0, 3)
    sh = r_shift(ch, 1)
    assert sh.terms == kr_qchar(A3TOR, 1, 1, 0, 3).terms
    assert r_shift(ch, 4).terms == ch.terms


def test_r_shift_rejects_non_cyclic():
    ch = kr_qchar(finite_type_a(2), 1, 1, 0, 2)
    with pytest.raises(DomainError):
        r_shift(ch, 1)


def test_is_special():
    assert is_special(kr_qchar(A3TOR, 0, 1, 0, 4))
    assert is_special(kr_qchar(A3TOR, 0, 2, 0, 4))
    assert is_special(trivial_character(A3TOR))
    fake_terms = {mono_parse("Y[0,0]"): 1, mono_parse("Y[1,1]"): 1}
    fake = QCharacter(A3TOR, mono_parse("Y[0,0]"), 1, fake_terms,
                      {mono_parse("Y[0,0]"): 0, mono_parse("Y[1,1]"): 1})
    assert not is_special(fake)


def test_product_soundness_under_truncation():
    # the depth-d part of a product only depends on the depth-d inputs
    a4 = kr_qchar(A3TOR, 0, 1, 0, 4)
    b4 = kr_qchar(A3TOR, 0, 1, 2, 4)
    a2 = kr_qchar(A3TOR, 0, 1, 0, 2)
    b2 = kr_qchar(A3TOR, 0, 1, 2, 2)
    full = char_product([a4, b4], 2)
    cut = char_product([a2, b2], 2)
    assert full == cut


def nested_loop_product(chars, depth, offset=0):
    """The nested-loop truncated product: every pair of terms is formed,
    then dropped when its height exceeds the budget.  Kept as the oracle
    for the height-bucketed ``char_product``."""
    acc = {YMonomial.one(): (1, 0)}
    for ch in chars:
        nxt = {}
        for m1, (c1, h1) in acc.items():
            for m2, c2 in ch.terms.items():
                h = h1 + ch.heights[m2]
                if offset + h > depth:
                    continue
                g = m1 * m2
                prev = nxt.get(g)
                if prev is None:
                    nxt[g] = (c1 * c2, h)
                else:
                    if prev[1] != h:
                        raise AlgorithmFailure(
                            "height clash in truncated product")
                    nxt[g] = (prev[0] + c1 * c2, h)
        acc = nxt
    return {m: (c, offset + h) for m, (c, h) in acc.items()}


@pytest.mark.parametrize("C, tops", [
    (A3TOR, ["Y[0,0]", "Y[1,1] Y[1,3]", "Y[2,0] Y[3,1]"]),
    (AINF, ["Y[0,0]", "Y[1,1] Y[1,3]", "Y[-1,2]"]),
])
def test_char_product_matches_nested_loop(C, tops):
    chars = [fm_expand(C, mono_parse(t), 6) for t in tops]
    for depth in (0, 2, 4, 6):
        for n in range(4):
            for offset in (0, depth // 2, depth + 1):
                got = char_product(chars[:n], depth, offset)
                want = nested_loop_product(chars[:n], depth, offset)
                assert got == want, (n, depth, offset)
                assert_same_keys(got, tuple_char_product(chars[:n], depth,
                                                         offset))
    # factors truncated below the product depth
    shallow = [fm_expand(C, mono_parse(t), 2) for t in tops]
    for n in range(4):
        assert (char_product(shallow[:n], 5, 1)
                == nested_loop_product(shallow[:n], 5, 1))


def tuple_char_product(chars, depth, offset=0):
    """The truncated product on triple-tuple keys: each factor bucketed
    by height, each pair of keys merged with ``merge_keys``.  Kept as the
    oracle for ``char_product``."""
    budget = depth - offset
    acc = {(): (1, 0)}
    for ch in chars:
        buckets = {}
        for m, c in ch.terms.items():
            buckets.setdefault(ch.heights[m], []).append((m.key, c))
        nxt = {}
        for k1, (c1, h1) in acc.items():
            for h2, bucket in sorted(buckets.items()):
                if h1 + h2 > budget:
                    break
                for k2, c2 in bucket:
                    g = merge_keys(k1, k2)
                    prev = nxt.get(g)
                    if prev is None:
                        nxt[g] = (c1 * c2, h1 + h2)
                    elif prev[1] != h1 + h2:
                        raise AlgorithmFailure(
                            "height clash in truncated product")
                    else:
                        nxt[g] = (prev[0] + c1 * c2, h1 + h2)
        acc = nxt
    return {YMonomial._from_key(k): (c, offset + h)
            for k, (c, h) in acc.items()}


def assert_same_keys(got, want):
    """Equal term maps whose monomials also carry equal stored keys."""
    assert got == want
    assert sorted(m.key for m in got) == sorted(m.key for m in want)


BIG = 2 ** 70

# hand-built characters: a few monomials over a small (node, spectral)
# grid, exponents small (so products collide and cancel) or up to 2**70,
# heights drawn freely (so some products clash)
exponents = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG)).filter(
    bool)
hand_keys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-3, 3)), exponents,
    max_size=5).map(lambda d: YMonomial(d))
hand_chars = st.dictionaries(
    hand_keys, st.tuples(st.integers(1, 3), st.integers(0, 4)),
    min_size=1, max_size=6).map(
        lambda d: QCharacter(None, YMonomial.one(), 4,
                             {m: c for m, (c, _) in d.items()},
                             {m: h for m, (_, h) in d.items()}))


def product_or_clash(fn, chars, depth, offset):
    try:
        return fn(chars, depth, offset)
    except AlgorithmFailure as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(hand_chars, max_size=3), st.integers(0, 8),
       st.integers(0, 3))
def test_char_product_matches_tuple_oracle_on_hand_built(chars, depth,
                                                         offset):
    got = product_or_clash(char_product, chars, depth, offset)
    want = product_or_clash(tuple_char_product, chars, depth, offset)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_keys(got, want)


def test_char_product_wide_exponents():
    # a factor whose exponents need 71-bit fields, squared and cubed
    big = YMonomial({(0, 0): BIG, (1, 1): -BIG, (0, 2): 1})
    small = YMonomial({(0, 0): -1, (1, 1): 1})
    ch = QCharacter(None, big, 2, {big: 1, small: 2}, {big: 0, small: 1})
    for n in (2, 3):
        got = char_product([ch] * n, 2)
        assert_same_keys(got, tuple_char_product([ch] * n, 2))
        assert got[YMonomial({(0, 0): n * BIG, (1, 1): -n * BIG,
                              (0, 2): n})] == (1, 0)


def expanded_tops(name, tops, depth):
    """(depth, [characters]) for each depth 0..``depth``, each character
    expanded from one of ``tops`` to that depth; tops whose expansion
    fails at a depth are left out there."""
    C = cartan_preset(name)
    for d in range(depth + 1):
        chars = []
        for top in map(mono_parse, tops):
            try:
                chars.append(fm_expand(C, top, d))
            except AlgorithmFailure:
                pass
        yield d, chars


def copy_of(ch):
    """An equal character that is a distinct object."""
    return QCharacter(ch.cartan, ch.top, ch.depth, dict(ch.terms),
                      dict(ch.heights))


@pytest.mark.parametrize("name, tops, depth", ORACLE_TOPS + WIDE_TOPS,
                         ids=["%s-%s" % (name, n) for n, (name, _, _)
                              in enumerate(ORACLE_TOPS + WIDE_TOPS)])
def test_char_product_repeated_factor_matches_tuple_oracle(name, tops,
                                                           depth):
    """Factor lists that repeat a character, next to and apart from
    another one, give the oracle's term map at every depth and offsets 0
    and 1; a square equals the product with an equal copy."""
    for d, chars in expanded_tops(name, tops, depth):
        for n, ch in enumerate(chars):
            other = chars[(n + 1) % len(chars)]
            for offset in (0, 1):
                for factors in ([ch, ch], [ch, other, ch], [other, ch, ch],
                                [ch] * 3):
                    got = char_product(factors, d, offset)
                    assert_same_keys(got, tuple_char_product(factors, d,
                                                             offset))
                assert (char_product([ch, ch], d, offset)
                        == char_product([ch, copy_of(ch)], d, offset))


@settings(max_examples=200, deadline=None)
@given(hand_chars, st.lists(hand_chars, max_size=2), st.integers(1, 3),
       st.integers(0, 8), st.integers(0, 3))
def test_char_product_power_matches_tuple_oracle_on_hand_built(
        ch, rest, power, depth, offset):
    """A hand-built character repeated first, then other factors: the
    term map, or the height clash, is the oracle's."""
    chars = [ch] * power + rest
    got = product_or_clash(char_product, chars, depth, offset)
    want = product_or_clash(tuple_char_product, chars, depth, offset)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_keys(got, want)


pair_lists = st.lists(st.tuples(st.integers(-3, 3), st.integers(-9, 9)),
                      unique=True, max_size=3 * qchar._CHUNK + 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, 40), st.just(BIG),
                 st.integers(1, 2 * BIG)), st.data())
def test_pack_decode_round_trip(reach, data):
    """A packed key decodes to its monomial, whether its pairs own fields
    from the start or get them when first packed, in any order, with
    exponents up to the field capacity 2**(width - 1) - 1."""
    given_pairs = sorted(data.draw(pair_lists, label="given pairs"))
    packing = qchar._Packing(reach, given_pairs)
    cap = packing.cap
    assert cap >= reach and cap == 2 ** (packing.width - 1) - 1
    exps = st.one_of(st.sampled_from([cap, -cap, 1, -1]),
                     st.integers(-cap, cap)).filter(bool)
    seen = {}
    for _ in range(data.draw(st.integers(1, 4), label="keys")):
        pairs = data.draw(pair_lists, label="pairs")
        key = {p: data.draw(exps, label="exponent") for p in pairs}
        m = YMonomial(key)
        g = packing.pack(tuple((i, l, e) for (i, l), e in key.items()))
        assert packing.decode(g).key == m.key
        assert seen.setdefault(g, m) == m
        # a second decode reads the chunk memo
        assert packing.decode(g).key == m.key
        if key:
            (i, l), e = next(iter(key.items()))
            with pytest.raises(AlgorithmFailure, match="field bound"):
                packing.pack(((i, l, cap + 1),))
            with pytest.raises(AlgorithmFailure, match="field bound"):
                packing.pack(((i, l, -cap - 1),))


def test_pack_decode_across_chunk_boundaries():
    """Keys whose fields straddle each chunk boundary, with exponents at
    plus and minus the field capacity, decode exactly, also once the
    pairs stop arriving in sorted order."""
    for reach in (1, 7, 8, BIG):
        n = 3 * qchar._CHUNK
        packing = qchar._Packing(reach, [(0, l) for l in range(n)])
        cap = packing.cap
        for b in range(1, n):
            for e1, e2 in itertools.product((cap, -cap, 1), repeat=2):
                key = ((0, b - 1, e1), (0, b, e2))
                assert packing.decode(packing.pack(key)).key == key
        assert packing.ordered
        late = ((-1, 0, -cap), (0, 0, cap), (5, 5, -1))
        g = packing.pack(late)
        assert not packing.ordered
        assert packing.decode(g).key == late
        assert packing.decode(g - packing.pack(((0, 0, cap),))).key == (
            (-1, 0, -cap), (5, 5, -1))


def clashing_character():
    """Heights that are not additive: 1 * Y^2 sits at height 1 but
    Y * Y at height 2."""
    one, y, y2 = (mono_parse(t) for t in ("1", "Y[0,0]", "Y[0,0]^2"))
    return QCharacter(A3TOR, one, 4, {one: 1, y: 1, y2: 1},
                      {one: 0, y: 1, y2: 1})


def test_char_product_height_clash():
    ch = clashing_character()
    with pytest.raises(AlgorithmFailure, match="height clash"):
        char_product([ch, ch], 4)
    with pytest.raises(AlgorithmFailure, match="height clash"):
        nested_loop_product([ch, ch], 4)


def test_add_term_maps_height_clash():
    ch = clashing_character()
    with pytest.raises(AlgorithmFailure, match="height clash"):
        _add_term_maps(char_product([ch], 4),
                       char_product([ch], 4, offset=1))


def test_octahedron_single_cell():
    rep = octahedron_verify(AINF, 3, [0], [1], [0])
    assert rep["holds"], rep["cells"]


def test_octahedron_k0_plane_is_tsystem():
    # with the k=0 layer trivial the cell identity is the k=1 recurrence
    rep = octahedron_verify(AINF, 2, [1], [1], [1])
    assert rep["holds"]
    assert verify_tsystem(AINF, 1, 1, 0, 2)["holds"]


def deepest_copy_added(monkeypatch, length):
    """Make every expansion of a ``length``-string top carry one extra
    copy of a deepest term (the largest key among the highest)."""
    real = qchar.fm_expand

    def fm_expand_plus(C, mtop, depth, order_rng=None):
        ch = real(C, mtop, depth, order_rng)
        if sum(e for (_, _, e) in mtop.key) == length:
            m = max(ch.terms, key=lambda m: (ch.heights[m], m.key))
            ch.terms[m] += 1
        return ch

    monkeypatch.setattr(qchar, "fm_expand", fm_expand_plus)


@pytest.mark.parametrize("C, depth", [(A3TOR, 6), (AINF, 6)])
def test_tsystem_negative_control(monkeypatch, C, depth):
    assert verify_tsystem(C, 0, 2, 0, depth)["holds"]
    deepest_copy_added(monkeypatch, 3)
    rep = verify_tsystem(C, 0, 2, 0, depth)
    assert not rep["holds"]
    assert rep["mismatches"]


def test_octahedron_negative_control(monkeypatch):
    assert octahedron_verify(AINF, 5, [0], [2], [0])["holds"]
    deepest_copy_added(monkeypatch, 3)
    rep = octahedron_verify(AINF, 5, [0], [2], [0])
    assert not rep["holds"]
    assert rep["cells"][0]["mismatches"]


def char_terms(ch):
    return ch.top, {m: (c, ch.heights[m]) for m, c in ch.terms.items()}


def factor_terms(f, depth):
    """Top and {monomial: (coeff, height)} of a product factor, read back
    through the packed keys the identity checks compare."""
    fields = qchar._Fields([[f]])
    return f.top, {fields.decode(g): v
                   for g, v in fields.product([f], depth).items()}


@pytest.mark.parametrize("C, nodes", [(A3TOR, range(4)),
                                      (AINF, range(-2, 3))])
def test_string_characters_are_equivariant(C, nodes):
    """A node move that preserves the Cartan data, with a spectral shift,
    carries the node-0 string character at q^0 onto every other one:
    189 cases at depth 6, from three expansions."""
    chars = qchar._StringChars(C, 6)
    for i in nodes:
        for k in (1, 2, 3):
            for l in range(-3, 4):
                assert (factor_terms(chars(i, k, l), 6)
                        == char_terms(kr_qchar(C, i, k, l, 6))), (i, k, l)
    assert sorted(chars.bases) == [(0, 1), (0, 2), (0, 3)]


# the 4-node path labelled as a 4-cycle: rotating it moves an end node
# onto an inner one, so only spectral shifts may be used
CYCLE_LABELLED_PATH = build_cartan(
    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    list(range(4)), cycle_len=4)


@pytest.mark.parametrize("C", [cartan_preset("A1tor"),
                               cartan_preset("Bnp:3,2"),
                               cartan_preset("Bnp:2,3"),
                               CYCLE_LABELLED_PATH])
def test_string_characters_shift_spectrally(C):
    chars = qchar._StringChars(C, 5)
    for i in C.nodes:
        for k in (1, 2):
            for l in (-3, 0, 1, 4):
                assert (factor_terms(chars(i, k, l), 5)
                        == char_terms(kr_qchar(C, i, k, l, 5))), (i, k, l)
    assert sorted(chars.bases) == [(i, k) for i in C.nodes for k in (1, 2)]


@pytest.mark.parametrize("k_range", [[0], [1, 0], range(-1, 2)])
def test_octahedron_rejects_k_below_one(k_range):
    with pytest.raises(InputError, match="k range must be >= 1"):
        octahedron_verify(AINF, 2, [0], k_range, [0])


def test_octahedron_requires_infinite_line():
    with pytest.raises(DomainError):
        octahedron_verify(A3TOR, 2, [0], [1], [0])


@pytest.mark.parametrize("ranges", [
    (range(2, -1), [1], [0]), ([0], [], [0]), ([0], [1], range(0, 0))])
def test_octahedron_empty_range_is_an_input_error(ranges):
    with pytest.raises(InputError, match="empty"):
        octahedron_verify(AINF, 2, *ranges)


def test_char_json_round_trip():
    ch = kr_qchar(A3TOR, 0, 1, 0, 4)
    obj = char_to_json(ch)
    back = char_from_json(obj, A3TOR)
    assert back.terms == ch.terms and back.heights == ch.heights
    assert obj["terms"][0]["monomial"] == "Y[0,0]"


def nested_loop_dot(char):
    """The all-pairs DOT rendering: every ordered pair of terms is tested
    for a height-(h+1) neighbour.  Kept as the oracle for the
    height-grouped ``char_to_dot``."""
    C = char.cartan
    order = [m for m, _ in char.sorted_terms()]
    ids = {m: "m%d" % k for k, m in enumerate(order)}
    lines = ["digraph qchar {", "  rankdir=TB;"]
    for m in order:
        label = mono_format(m)
        c = char.terms[m]
        if c != 1:
            label = "%d x %s" % (c, label)
        lines.append('  %s [label="%s"];' % (ids[m], label))
    index = set(order)
    for m in order:
        h = char.heights[m]
        for g in order:
            if char.heights[g] != h + 1:
                continue
            d = m * g.inverse()
            if not d.key:
                continue
            cand = max(((i, l) for (i, l, e) in d.key if e > 0),
                       key=lambda t: t[1], default=None)
            if cand is None:
                continue
            i, lm = cand
            if d == a_monomial(C, i, lm - C.r(i)) and g in index:
                lines.append('  %s -> %s [label="%s"];'
                             % (ids[m], ids[g], i))
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("C, tops", [
    (A3TOR, ["Y[0,0]", "Y[1,1] Y[1,3]", "Y[2,0] Y[3,1]", "Y[0,0] Y[0,2]^2"]),
    (AINF, ["Y[0,0]", "Y[1,1] Y[1,3]", "Y[-1,2] Y[1,2]", "Y[0,0]^2"]),
])
def test_char_to_dot_matches_nested_loop(C, tops):
    for top in tops:
        for depth in (0, 1, 3, 6):
            ch = fm_expand(C, mono_parse(top), depth)
            assert char_to_dot(ch) == nested_loop_dot(ch), (top, depth)
    for k in (1, 2, 3):
        ch = kr_qchar(C, 0, k, 0, 5)
        dot = char_to_dot(ch)
        assert dot == nested_loop_dot(ch), k
        assert " -> " in dot


def test_dot_contains_labeled_edges():
    ch = fm_expand(A3TOR, mono_parse("Y[0,0]"), 2)
    dot = char_to_dot(ch)
    assert dot.startswith("digraph")
    assert '[label="0"]' in dot      # the first descent is the node-0 edge
    assert 'label="Y[0,0]"' in dot


def test_kr_highest_weight_property():
    from qtoroidal.monomials import dominance_leq
    for (i, k) in [(0, 1), (0, 2), (1, 1)]:
        ch = kr_qchar(A3TOR, i, k, 0, 4)
        for m in ch.terms:
            fs = dominance_leq(A3TOR, m, ch.top, ch.depth)
            assert fs is not None and len(fs) == ch.heights[m]
