"""The four benchmark workloads: op catalogues, seeded op lists, op bodies
and exact result checks.

An op is ``(kind, params)``.  Each workload lists op *classes*: a kind,
the parameters that set the op's cost (depth, bounds, module size) and a
list of cost-neutral free choices (node rotation and spectral placement on
the 4-cycle, window translation, q-power offsets).  A run's op list holds
one op of every class, the seed picking each op's free choice; the run
repeats that list round after round, each round in a seeded order.  So the
seed changes the inputs while the work per round stays put, and the
catalogue of every possible op is finite, which lets ``record.py`` store a
known answer for each of them.

Ops reach the library only through its public names.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import chain

from qtoroidal.cartan import cartan_preset, infinite_a
from qtoroidal.crystal import orbit_walk, root_of_unity_period
from qtoroidal.fusion import coproduct_relation_check, twisted_coassoc_check
from qtoroidal.hecke import (build_MA, find_isomorphism, invariant_subspaces,
                             module_to_json, verify_presentation,
                             zelevinsky_product)
from qtoroidal.linalg import determinant, op_matrix
from qtoroidal.modrep import (build_extremal_loop, build_root_of_unity,
                              l_character_offset, verify_relations)
from qtoroidal.monomials import YMonomial
from qtoroidal.qchar import (char_product, fm_expand, octahedron_verify,
                             verify_tsystem)
from qtoroidal.scalars import QRat, QScalar
from qtoroidal.tableaux import tableau_qchar_compare

WORKLOADS = ("chars", "relations", "fusion", "hecke")

# Parity-preserving (node rotation, spectral shift) placements on the
# 4-cycle: rotating the nodes and shifting every spectral exponent is a
# symmetry of the A3tor data, so these leave an op's cost unchanged.
PLACEMENTS = [(rho, sigma) for rho in range(4)
              for sigma in (rho % 2, rho % 2 + 2)]

# fm_square top shapes as (node, spectral) factors before placement
Y0 = ((0, 0),)
KR2 = ((0, 0), (0, 2))
Y0Y1 = ((0, 0), (1, 1))

CRYSTAL_SEED = ((1, 0, 1), (0, 1, -1))      # Y[1,0] Y[0,1]^-1
CRYSTAL_CYCLE = (1, 2, 3, 0)
COASSOC_GENS = (("xp", 1, 0), ("xm", 2, 1), ("k", 0, 1), ("phip", 1, 2),
                ("phim", 3, -1))

# hecke2 classes by the ratio q^off of the two parameters (reducible
# exactly at off = +-2); the seed picks a common q-power shift, which
# leaves the cost unchanged
HECKE_OFFSETS = (-4, -2, -1, 0, 1, 2, 3, 4)
HECKE_N1 = [(n1,) for n1 in range(-4, 5)]
HECKE_SHIFTS = [(c,) for c in (-1, 0, 1)]
ZEL_FIRST = [(a,) for a in range(-2, 3)]
WINDOW_SHIFTS = [(a,) for a in (-1, 0, 1)]
# (window shift, node, r) of the one flipped x+ table; corrupting node 1
# keeps the cost of reaching the first witness about the same
CORRUPTIONS = [(a, 1, r) for a in (-1, 0, 1) for r in (-1, 0, 1)]

# Ops are kept small (all but the l=3 Hecke ones under half a second on
# the reference host) so that a run repeats each one several times and
# calibration passes close around it see the host's speed during it.
CLASSES = {
    # qchar + monomials carry the work; no scalar ring is touched
    "chars": (
        [("fm_square", (shape, depth), PLACEMENTS)
         for shape, depth in ((Y0, 13), (Y0, 14), (KR2, 11), (KR2, 12),
                              (Y0Y1, 11))]
        + [("tsystem", ("A3tor", k, depth),
            [(i, l) for i in range(4) for l in (i % 2, i % 2 + 2)])
           for k in (1, 2, 3) for depth in (6, 8)]
        + [("tsystem", ("Ainf", k, depth),
            [(i, l) for i in (-1, 0, 1) for l in (i % 2, i % 2 + 2)])
           for k in (1, 2, 3) for depth in (5, 7)]
        + [("octahedron", (k, depth),
            [(i, t) for i in (-1, 0, 1) for t in (0, 1)])
           for k in (1, 2) for depth in (4, 5, 6)]
        + [("tableau", (k, shift, depth), [(l,) for l in (-1, 0, 1)])
           for k in (1, 2, 3) for shift in (0, 1) for depth in (7, 8)]
        + [("walk", (steps,), PLACEMENTS) for steps in (16, 32)]
        + [("period", (n,), PLACEMENTS) for n in (4, 8)]),
    # modrep.apply/image over sparse QScalar (loop) and dense CycScalar
    # (root of unity), plus one negative control per round
    "relations": (
        [("loop", (w, r, m), WINDOW_SHIFTS)
         for w, r, m in ((2, 0, 1), (3, 0, 1), (2, 1, 0))]
        + [("rou", (L, r, m), [()])
           for L, r, m in ((1, 1, 1), (2, 0, 1), (3, 0, 1))]
        + [("corrupt", (2, 0, 1), CORRUPTIONS)]
        + [("loff_loop", (w,), WINDOW_SHIFTS) for w in (2, 3)]
        + [("loff_rou", (L,), [()]) for L in (1, 2, 3)]),
    # the same rings through LinOp tensor/compose and TruncSeries products
    "fusion": (
        [("coprod", (w, r, m), [()])
         for w, r, m in ((2, 0, 0), (3, 0, 0), (1, 0, 1))]
        + [("coassoc", (L, s, sp, w), [(rho,) for rho in range(4)])
           for L, w in ((1, 2), (2, 1))
           for s, sp in ((1, 1), (1, 2), (2, 1))]),
    # QRat with growing Fraction coefficients through rref/span_grow
    "hecke": (
        [("hecke2", (off,), HECKE_N1) for off in HECKE_OFFSETS]
        + [("hecke3", ("irreducible", (0, 3, -1)), HECKE_SHIFTS),
           ("hecke3", ("reducible", (1, 0, 2)), HECKE_SHIFTS)]
        + [("zel_iso", (d,), ZEL_FIRST) for d in (1, 3, 4, 5)]
        + [("zel_pres", (), HECKE_SHIFTS)]),
}


def op_key(kind, params):
    return json.dumps([kind, *params], separators=(",", ":"))


def catalogue(workload):
    """Every op the workload can draw, each once."""
    seen = {}
    for kind, fixed, free in CLASSES[workload]:
        for choice in free:
            params = tuple(fixed) + tuple(choice)
            seen.setdefault(op_key(kind, params), (kind, params))
    return list(seen.values())


def op_list(workload, seed):
    """The run's op list: one op per class, its free choice drawn from
    the seed.  A run repeats this list round after round."""
    rng = random.Random("%s:%d" % (workload, seed))
    return [(kind, tuple(fixed) + tuple(rng.choice(free)))
            for kind, fixed, free in CLASSES[workload]]


def round_orders(workload, seed):
    """Endless seeded shuffles of the op list's indices, one per round."""
    rng = random.Random("%s:%d:order" % (workload, seed))
    n = len(CLASSES[workload])
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield order


def fixed_inputs():
    """The Cartan data every op shares.  Module realizations are built
    inside each op, as the CLI does: a ModuleRealization memoizes h
    eigenvalues, so a shared one would make later rounds cheaper than
    the first."""
    return {"A3tor": cartan_preset("A3tor"), "Ainf": infinite_a()}


# ---------------------------------------------------------------------------
# op bodies: each calls the library through ``tr.call`` so the traced run
# records a span per public entry point; the result is checked afterwards
# ---------------------------------------------------------------------------

def _place(factors, rho, sigma):
    """Monomial of (node, spectral[, exponent]) factors rotated by rho
    nodes around the 4-cycle and shifted by sigma."""
    acc = {}
    for f in factors:
        i, l, e = f if len(f) == 3 else (*f, 1)
        key = ((i + rho) % 4, l + sigma)
        acc[key] = acc.get(key, 0) + e
    return YMonomial(acc)


def _qp(n):
    return QRat(QScalar.q_power(n))


def run_fm_square(tr, inp, shape, depth, rho, sigma):
    ch = tr.call("qchar.fm_expand", fm_expand, inp["A3tor"],
                 _place(shape, rho, sigma), depth)
    return ch, tr.call("qchar.char_product", char_product, [ch, ch], depth)


def run_tsystem(tr, inp, ctype, k, depth, i, l):
    return tr.call("qchar.verify_tsystem", verify_tsystem, inp[ctype], i, k,
                   l, depth)


def run_octahedron(tr, inp, k, depth, i, t):
    return tr.call("qchar.octahedron_verify", octahedron_verify,
                   inp["Ainf"], depth, [i], [k], [t])


def run_tableau(tr, inp, k, shift, depth, l):
    return tr.call("tableaux.tableau_qchar_compare", tableau_qchar_compare,
                   3, k, shift, l, depth)


def run_walk(tr, inp, steps, rho, sigma):
    cycle = [(i + rho) % 4 for i in CRYSTAL_CYCLE]
    return tr.call("crystal.orbit_walk", orbit_walk, inp["A3tor"],
                   _place(CRYSTAL_SEED, rho, sigma), cycle, steps)


def run_period(tr, inp, n, rho, sigma):
    cycle = [(i + rho) % 4 for i in CRYSTAL_CYCLE]
    return tr.call("crystal.root_of_unity_period", root_of_unity_period,
                   inp["A3tor"], _place(CRYSTAL_SEED, rho, sigma), cycle, n)


def _verify(tr, M, r, m):
    return tr.call("modrep.verify_relations", verify_relations, M, r, m)


def run_loop(tr, inp, w, r, m, a):
    M = tr.call("modrep.build_extremal_loop", build_extremal_loop,
                (a - w, a + w))
    return _verify(tr, M, r, m)


def run_rou(tr, inp, L, r, m):
    M = tr.call("modrep.build_root_of_unity", build_root_of_unity, L)
    return _verify(tr, M, r, m)


def run_corrupt(tr, inp, w, r, m, a, g, rr):
    M = tr.call("modrep.build_extremal_loop", build_extremal_loop,
                (a - w, a + w), corrupt_xp=(g, rr))
    return _verify(tr, M, r, m)


def run_loff_loop(tr, inp, w, a):
    M = tr.call("modrep.build_extremal_loop", build_extremal_loop,
                (a - w, a + w))
    return tr.call("modrep.l_character_offset", l_character_offset, M)


def run_loff_rou(tr, inp, L):
    M = tr.call("modrep.build_root_of_unity", build_root_of_unity, L)
    return tr.call("modrep.l_character_offset", l_character_offset, M)


def run_coprod(tr, inp, w, r, m):
    M = tr.call("modrep.build_root_of_unity", build_root_of_unity, 1)
    return tr.call("fusion.coproduct_relation_check",
                   coproduct_relation_check, M, M, (-w, w), r, m)


def run_coassoc(tr, inp, L, s, sp, w, rho):
    M = tr.call("modrep.build_root_of_unity", build_root_of_unity, L)
    gens = [(name, (g + rho) % 4, n) for name, g, n in COASSOC_GENS]
    return tr.call("fusion.twisted_coassoc_check", twisted_coassoc_check,
                   M, M, M, s, sp, (-w, w), gens)


def _hecke_pipeline(tr, l, exps):
    """What ``qtoroidal hecke`` computes for one parameter list."""
    M = tr.call("hecke.build_MA", build_MA, l, [_qp(n) for n in exps])
    pres = tr.call("hecke.verify_presentation", verify_presentation, M)
    sub = tr.call("hecke.invariant_subspaces", invariant_subspaces, M)
    return pres, sub, tr.call("hecke.module_to_json", module_to_json, M)


def run_hecke2(tr, inp, off, n1):
    return _hecke_pipeline(tr, 2, (n1, n1 + off))


def run_hecke3(tr, inp, expect, base, c):
    return _hecke_pipeline(tr, 3, [e + c for e in base])


def run_zel_iso(tr, inp, d, a):
    b = a + d
    P = tr.call("hecke.zelevinsky_product", zelevinsky_product,
                tr.call("hecke.build_MA", build_MA, 1, [_qp(a)]),
                tr.call("hecke.build_MA", build_MA, 1, [_qp(b)]))
    M = tr.call("hecke.build_MA", build_MA, 2, [_qp(a), _qp(b)])
    F = tr.call("hecke.find_isomorphism", find_isomorphism, P, M)
    return P, M, F


def run_zel_pres(tr, inp, c):
    P = tr.call("hecke.zelevinsky_product", zelevinsky_product,
                tr.call("hecke.build_MA", build_MA, 1, [_qp(c)]),
                tr.call("hecke.build_MA", build_MA, 2,
                        [_qp(c + 3), _qp(c + 7)]))
    pres = tr.call("hecke.verify_presentation", verify_presentation, P)
    return pres, tr.call("hecke.module_to_json", module_to_json, P)


# ---------------------------------------------------------------------------
# checks: each returns (verdict, canonical result); the canonical result
# is digested and compared with the recorded known answer
# ---------------------------------------------------------------------------

def _rows(mapping):
    """Sorted flat rows [coeff, height, i, l, e, i, l, e, ...] of a map
    from monomials to (coeff, height); flat int rows keep the digest of
    maps with 10^4 terms cheap."""
    return sorted([c, h, *chain.from_iterable(m.key)]
                  for m, (c, h) in mapping.items())


def check_fm_square(out, params):
    ch, square = out
    char = {m: (c, ch.heights[m]) for m, c in ch.terms.items()}
    return True, {"char": _rows(char), "square": _rows(square)}


def check_tsystem(rep, params):
    body = dict(rep, nu=sorted(rep["nu"].coords.items()))
    return rep["holds"], body


def check_walk(walk, params):
    return len(walk) == params[0] + 1, [list(m.key) for m in walk]


def check_period(period, params):
    return period == params[0], period


def check_holds(rep, params):
    return rep["holds"], rep


def check_passed(rep, params):
    return rep["passed"], rep


def check_loop(rep, params):
    return rep.passed, rep.to_json()


def check_rou(rep, params):
    fams = rep.families
    return (rep.passed and all(f["skipped_vectors"] == 0 for f in fams),
            rep.to_json())


def check_corrupt(rep, params):
    """Negative control: the corrupted table must fail with a witness."""
    return (not rep.passed
            and any(f["witness"] is not None for f in rep.families),
            rep.to_json())


def check_loff(off, params):
    return off["c"] == -1, off


def _check_hecke(out, irreducible):
    pres, sub, module = out
    ok = pres["passed"] and sub["irreducible"] == irreducible
    return ok, {"presentation": pres, "subspaces": sub, "module": module}


def check_hecke2(out, params):
    """Criterion 7: M_A is reducible exactly at the ratio q^{+-2}."""
    return _check_hecke(out, params[0] not in (2, -2))


def check_hecke3(out, params):
    return _check_hecke(out, params[0] == "irreducible")


def check_zel_iso(out, params):
    """An intertwiner is not unique, so it is checked by its defining
    property rather than by digest: F is invertible and F P(g) = M(g) F."""
    P, M, F = out
    if F is None:
        return False, None
    field = M.ring.field()
    ok = not field.is_zero(determinant(F, field))
    for ops_p, ops_m in ((P.sigma_ops, M.sigma_ops), (P.z_ops, M.z_ops)):
        for g in ops_p:
            A = op_matrix(ops_p[g], P.basis, field.zero)
            B = op_matrix(ops_m[g], M.basis, field.zero)
            ok = ok and _mat_mul(F, A, field) == _mat_mul(B, F, field)
    return ok, module_to_json(P)


def _mat_mul(X, Y, field):
    n = len(X)
    return [[sum((X[r][k] * Y[k][c] for k in range(n)), field.zero)
             for c in range(n)] for r in range(n)]


def check_zel_pres(out, params):
    pres, module = out
    return pres["passed"], {"presentation": pres, "module": module}


KINDS = {
    "fm_square": (run_fm_square, check_fm_square),
    "tsystem": (run_tsystem, check_tsystem),
    "octahedron": (run_octahedron, check_holds),
    "tableau": (run_tableau, check_holds),
    "walk": (run_walk, check_walk),
    "period": (run_period, check_period),
    "loop": (run_loop, check_loop),
    "rou": (run_rou, check_rou),
    "corrupt": (run_corrupt, check_corrupt),
    "loff_loop": (run_loff_loop, check_loff),
    "loff_rou": (run_loff_rou, check_loff),
    "coprod": (run_coprod, check_passed),
    "coassoc": (run_coassoc, check_passed),
    "hecke2": (run_hecke2, check_hecke2),
    "hecke3": (run_hecke3, check_hecke3),
    "zel_iso": (run_zel_iso, check_zel_iso),
    "zel_pres": (run_zel_pres, check_zel_pres),
}


# ---------------------------------------------------------------------------
# canonical form, float guard and digest
# ---------------------------------------------------------------------------

_FLOAT_TEXT = re.compile(r"\d\.\d|\d[eE][-+]?\d|\b(inf|nan)\b")


def canonical(obj, floats):
    """JSON-ready copy of a result; every float met is appended to
    ``floats`` so the caller can fail the op."""
    if isinstance(obj, float):
        floats.append(obj)
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj):
            return {k: canonical(v, floats) for k, v in obj.items()}
        return sorted([canonical(k, floats), canonical(v, floats)]
                      for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        if all(type(x) is int for x in obj):
            return list(obj)
        return [canonical(x, floats) for x in obj]
    if isinstance(obj, YMonomial):
        return [list(t) for t in obj.key]
    # exact scalars (QScalar, CycScalar, QRat, Fraction, ...) by their
    # text, which shows a float coefficient as a decimal
    text = repr(obj)
    if _FLOAT_TEXT.search(text):
        floats.append(text)
    return text


def digest(body):
    floats = []
    text = json.dumps(canonical(body, floats), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20], floats


# ---------------------------------------------------------------------------
# work counted from public results, for the traced run
# ---------------------------------------------------------------------------

def work_counts(kind, out):
    """Counters an op's result exposes: relation instances and vectors
    from a ``RelationReport``, and for ``char_product`` of a character
    with itself the pairs the product visits and the pairs inside the
    height budget, both from the factor's height histogram."""
    if kind in ("loop", "rou", "corrupt"):
        fams = out.families
        return {"instances": sum(f["instances"] for f in fams),
                "checked": sum(f["checked_vectors"] for f in fams),
                "skipped": sum(f["skipped_vectors"] for f in fams)}
    if kind == "fm_square":
        ch = out[0]
        hist = {}
        for m in ch.terms:
            h = ch.heights[m]
            hist[h] = hist.get(h, 0) + 1
        n = len(ch.terms)
        inside = sum(c1 * c2 for h1, c1 in hist.items()
                     for h2, c2 in hist.items() if h1 + h2 <= ch.depth)
        # first factor against the unit, then against itself
        return {"pairs": n + n * n, "useful_pairs": n + inside}
    return {}
