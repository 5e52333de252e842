"""Command-line frontend for the verification pipelines.

Every subcommand prints a CommandResult as canonical JSON (or DOT for the
character graphs) with byte-stable ordering, and exits 0 on pass, 1 on a
verification failure, 2 on a usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import crystal as crystal_mod
from . import fusion as fusion_mod
from . import hecke as hecke_mod
from . import modrep as modrep_mod
from . import qchar as qchar_mod
from . import tableaux as tableaux_mod
from .cartan import cartan_preset
from .errors import InputError, QtorError
from .monomials import mono_format, mono_parse
from .scalars import QRat, QScalar

PASS, FAIL, ERROR = 0, 1, 2


def emit(result, fmt="json"):
    """Deterministic rendering: sorted keys, fixed separators."""
    if fmt == "json":
        return json.dumps(result, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
    if fmt == "dot":
        payload = result.get("payload", {})
        dot = payload.get("dot")
        if dot is None:
            raise QtorError("this payload has no graph rendering")
        return dot
    raise QtorError("unknown format %r" % fmt)


def _ints(text, count=None):
    """The integers of a comma list, exactly ``count`` of them if given."""
    try:
        vals = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise InputError("not a comma list of integers: %r" % text) from None
    if count is not None and len(vals) != count:
        raise InputError("expected %d comma-separated integers, got %r"
                         % (count, text))
    return vals


def _result(command, status, payload, t0):
    return {
        "command": command,
        "status": status,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
        "payload": payload,
    }


def _cmd_qchar(args, t0):
    C = cartan_preset(args.type)
    ch = qchar_mod.kr_qchar(C, args.node, args.k, args.spectral, args.depth)
    payload = qchar_mod.char_to_json(ch)
    payload["special"] = qchar_mod.is_special(ch)
    if args.format == "dot":
        payload["dot"] = qchar_mod.char_to_dot(ch)
    return _result("qchar", "pass", payload, t0)


def _cmd_tsystem(args, t0):
    C = cartan_preset(args.type)
    rep = qchar_mod.verify_tsystem(C, args.node, args.k, args.spectral,
                                   args.depth)
    status = "pass" if rep["holds"] else "fail"
    rep["nu"] = {str(k): v for k, v in rep["nu"].coords.items()}
    return _result("tsystem", status, rep, t0)


def _cmd_tableau(args, t0):
    rep = tableaux_mod.tableau_qchar_compare(args.n, args.k, args.node,
                                             args.spectral, args.depth)
    return _result("tableau", "pass" if rep["holds"] else "fail", rep, t0)


def _cmd_crystal(args, t0):
    C = cartan_preset(args.type)
    seed = mono_parse(args.seed)
    ops = _ints(args.ops)
    payload = {}
    if args.root_of_unity:
        period = crystal_mod.root_of_unity_period(C, seed, ops,
                                                  args.root_of_unity)
        payload["order"] = args.root_of_unity
        payload["period"] = period
    walk = crystal_mod.orbit_walk(C, seed, ops, args.steps)
    payload["walk"] = [mono_format(m) for m in walk]
    return _result("crystal", "pass", payload, t0)


def _cmd_repcheck(args, t0):
    if args.L:
        M = modrep_mod.build_root_of_unity(args.L)
    else:
        M = modrep_mod.build_extremal_loop(_ints(args.window, 2))
    rep = modrep_mod.verify_relations(M, args.r_range, args.series_order)
    payload = rep.to_json()
    payload["module"] = M.kind
    off = modrep_mod.l_character_offset(M)
    payload["l_character_shift"] = off["c"]
    return _result("repcheck", "pass" if rep.passed else "fail", payload,
                   t0)


def _cmd_fusion(args, t0):
    M = modrep_mod.build_root_of_unity(args.L)
    window = (-args.u_order, args.u_order)
    if args.ops:
        twists = _ints(args.ops, 2)
        gens = [("xp", 1, 0), ("xm", 2, 1), ("k", 0, 1), ("phip", 1, 2)]
        rep = fusion_mod.twisted_coassoc_check(M, M, M, twists[0],
                                               twists[1], window, gens)
    else:
        rep = fusion_mod.coproduct_relation_check(M, M, window,
                                                  args.r_range,
                                                  args.series_order)
    return _result("fusion", "pass" if rep["passed"] else "fail", rep, t0)


def _cmd_hecke(args, t0):
    params = [QRat(QScalar.q_power(n)) for n in _ints(args.a)]
    M = hecke_mod.build_MA(args.l, params)
    pres = hecke_mod.verify_presentation(M)
    sub = hecke_mod.invariant_subspaces(M)
    payload = {
        "dim": M.dim,
        "presentation": pres["passed"],
        "irreducible": sub["irreducible"],
        "subspace_dims": sub["dims"],
        "socle_lines": sub["socle_lines"],
        "composition_factors": sub["composition"]["factor_dims"],
        "module": hecke_mod.module_to_json(M),
    }
    status = "pass" if pres["passed"] else "fail"
    return _result("hecke", status, payload, t0)


def _cmd_octahedron(args, t0):
    C = cartan_preset("Ainf")
    i_lo, i_hi = _ints(args.window, 2)
    ks = _ints(args.k)
    rep = qchar_mod.octahedron_verify(
        C, args.depth, range(i_lo, i_hi + 1), ks,
        range(0, args.steps + 1))
    payload = {"holds": rep["holds"], "depth": rep["depth"],
               "cells": [{"cell": list(c["cell"]), "holds": c["holds"]}
                         for c in rep["cells"]]}
    return _result("octahedron", "pass" if rep["holds"] else "fail",
                   payload, t0)


def build_parser():
    p = argparse.ArgumentParser(
        prog="qtoroidal",
        description="exact verification pipelines for toroidal "
                    "q-character combinatorics")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qchar", help="truncated string-module character")
    q.add_argument("--type", default="A3tor")
    q.add_argument("--node", type=int, default=0)
    q.add_argument("--k", type=int, default=1)
    q.add_argument("--spectral", type=int, default=0)
    q.add_argument("--depth", type=int, default=4)
    q.add_argument("--format", choices=["json", "dot"], default="json")
    q.set_defaults(run=_cmd_qchar)

    t = sub.add_parser("tsystem", help="three-term recurrence check")
    t.add_argument("--type", default="A3tor")
    t.add_argument("--node", type=int, default=0)
    t.add_argument("--k", type=int, default=1)
    t.add_argument("--spectral", type=int, default=0)
    t.add_argument("--depth", type=int, default=4)
    t.set_defaults(run=_cmd_tsystem)

    tb = sub.add_parser("tableau", help="tableau formula cross-check")
    tb.add_argument("--n", type=int, default=3)
    tb.add_argument("--k", type=int, default=1)
    tb.add_argument("--node", type=int, default=0,
                    help="node rotation applied to the formula")
    tb.add_argument("--spectral", type=int, default=-1)
    tb.add_argument("--depth", type=int, default=4)
    tb.set_defaults(run=_cmd_tableau)

    c = sub.add_parser("crystal", help="operator walk on monomials")
    c.add_argument("--type", default="A3tor")
    c.add_argument("--seed", required=True)
    c.add_argument("--ops", required=True, help="comma list of nodes")
    c.add_argument("--steps", type=int, default=8)
    c.add_argument("--root-of-unity", type=int, default=0)
    c.set_defaults(run=_cmd_crystal)

    r = sub.add_parser("repcheck", help="defining-relation verification")
    r.add_argument("--window", default="-3,3")
    r.add_argument("--L", type=int, default=0,
                   help="build the 4L-dimensional quotient instead")
    r.add_argument("--r-range", type=int, default=2)
    r.add_argument("--series-order", type=int, default=2,
                   help="bound |m| on the mode index m of the checked "
                        "relations; 0 reaches no h-h or h-x relation and "
                        "fewer k-cartan instances")
    r.set_defaults(run=_cmd_repcheck)

    f = sub.add_parser("fusion", help="deformed coproduct checks")
    f.add_argument("--L", type=int, default=1)
    f.add_argument("--u-order", type=int, default=3)
    f.add_argument("--r-range", type=int, default=1)
    f.add_argument("--series-order", type=int, default=1,
                   help="bound |m| on the mode index m of the checked "
                        "relations; 0 reaches no h-h or h-x relation and "
                        "fewer k-cartan instances")
    f.add_argument("--ops", default="",
                   help="two twists: run coassociativity instead")
    f.set_defaults(run=_cmd_fusion)

    h = sub.add_parser("hecke", help="module M_A and its submodules")
    h.add_argument("--l", type=int, default=2,
                   help="rank l of M_A, from 1 to 4")
    h.add_argument("--a", default="0,2",
                   help="comma list of q-exponents for the parameters")
    h.set_defaults(run=_cmd_hecke)

    o = sub.add_parser("octahedron", help="cube recurrence over the line")
    o.add_argument("--depth", type=int, default=3)
    o.add_argument("--window", default="-2,2", help="node range lo,hi")
    o.add_argument("--k", default="1,2", help="comma list of k values")
    o.add_argument("--steps", type=int, default=2,
                   help="check t = 0..steps")
    o.set_defaults(run=_cmd_octahedron)
    return p


def dispatch(argv):
    """Run one subcommand; returns (exit_code, text)."""
    parser = build_parser()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (ERROR if e.code else PASS), ""
    try:
        result = args.run(args, t0)
    except QtorError as e:
        result = _result(args.command, "error", {"error": str(e)}, t0)
        return ERROR, emit(result)
    fmt = getattr(args, "format", "json")
    text = emit(result, fmt)
    return (PASS if result["status"] == "pass" else FAIL), text


def main(argv=None):
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
