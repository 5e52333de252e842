import random

import pytest

from qtoroidal.cartan import (build_cartan, cartan_preset, finite_type_a,
                              infinite_a)
from qtoroidal.errors import AlgorithmFailure, DomainError, InputError
from qtoroidal.monomials import YMonomial, a_monomial, mono_format, mono_parse
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
    # factors truncated below the product depth
    shallow = [fm_expand(C, mono_parse(t), 2) for t in tops]
    for n in range(4):
        assert (char_product(shallow[:n], 5, 1)
                == nested_loop_product(shallow[:n], 5, 1))


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


def test_octahedron_requires_infinite_line():
    with pytest.raises(DomainError):
        octahedron_verify(A3TOR, 2, [0], [1], [0])


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
