import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from qtoroidal.cli import dispatch, emit
from qtoroidal.monomials import mono_parse
from oracles import char_from_json


def run(argv):
    return dispatch(argv)


def test_qchar_json_round_trips_through_parser():
    code, text = run(["qchar", "--type", "A3tor", "--node", "0", "--k",
                      "1", "--spectral", "0", "--depth", "4"])
    assert code == 0
    obj = json.loads(text)
    ch = char_from_json(obj["payload"])
    assert ch.top == mono_parse("Y[0,0]")
    assert sum(t["coeff"] for t in obj["payload"]["terms"]) == 12


def test_qchar_dot_has_labeled_edges():
    code, text = run(["qchar", "--type", "A3tor", "--node", "0", "--k",
                      "1", "--spectral", "0", "--depth", "4", "--format",
                      "dot"])
    assert code == 0
    assert text.startswith("digraph")
    assert '[label="0"]' in text and '[label="3"]' in text
    assert 'label="2 x Y[0,2] Y[2,2] Y[2,4]^-1"' in text


def test_determinism_byte_stable():
    argv = ["tsystem", "--type", "A3tor", "--node", "0", "--k", "1",
            "--depth", "3"]
    out1 = run(argv)
    out2 = run(argv)
    # elapsed time differs; compare with it masked
    o1 = json.loads(out1[1])
    o2 = json.loads(out2[1])
    o1["elapsed_ms"] = o2["elapsed_ms"] = 0
    assert json.dumps(o1, sort_keys=True) == json.dumps(o2, sort_keys=True)
    assert out1[0] == out2[0] == 0


def test_tsystem_pass_exit_zero():
    code, text = run(["tsystem", "--type", "A3tor", "--node", "0",
                      "--k", "1", "--spectral", "0", "--depth", "4"])
    assert code == 0
    assert json.loads(text)["status"] == "pass"


def test_crystal_chain_command():
    code, text = run(["crystal", "--type", "A3tor", "--seed",
                      "Y[1,0]Y[0,1]^-1", "--ops", "1,2,3,0", "--steps",
                      "8"])
    assert code == 0
    walk = json.loads(text)["payload"]["walk"]
    assert walk[0] == "Y[0,1]^-1 Y[1,0]"
    assert walk[4] == "Y[0,5]^-1 Y[1,4]"
    assert len(walk) == 9


def test_crystal_root_of_unity_flag():
    code, text = run(["crystal", "--type", "A3tor", "--seed",
                      "Y[1,0]Y[0,1]^-1", "--ops", "1,2,3,0", "--steps",
                      "4", "--root-of-unity", "4"])
    assert code == 0
    assert json.loads(text)["payload"]["period"] == 4


def test_tableau_command():
    code, text = run(["tableau", "--n", "3", "--k", "1", "--node", "0",
                      "--spectral", "-1", "--depth", "3"])
    assert code == 0


def test_repcheck_command_small():
    code, text = run(["repcheck", "--window=-2,2", "--r-range", "1",
                      "--series-order", "1"])
    assert code == 0
    payload = json.loads(text)["payload"]
    assert payload["passed"] and payload["l_character_shift"] == -1


def test_fusion_command_small():
    code, text = run(["fusion", "--L", "1", "--u-order", "2",
                      "--r-range", "1", "--series-order", "1"])
    assert code == 0


def test_fusion_coassoc_via_ops():
    code, text = run(["fusion", "--L", "1", "--u-order", "2", "--ops",
                      "1,2"])
    assert code == 0
    assert json.loads(text)["payload"]["twists"] == [1, 2]


def test_hecke_command():
    code, text = run(["hecke", "--l", "2", "--a", "0,2"])
    assert code == 0
    payload = json.loads(text)["payload"]
    assert payload["dim"] == 2 and not payload["irreducible"]


def test_hecke_command_at_l4():
    # (0, 1, 3, 7): q^1 and q^3 are linked, so M_A is reducible, with one
    # proper submodule of half the dimension
    code, text = run(["hecke", "--l", "4", "--a", "0,1,3,7"])
    assert code == 0
    payload = json.loads(text)["payload"]
    assert payload["dim"] == 24 and payload["presentation"]
    assert payload["composition_factors"] == [12, 12]


def test_octahedron_command_single_cell():
    code, text = run(["octahedron", "--depth", "2", "--window", "0,0",
                      "--k", "1", "--steps", "0"])
    assert code == 0


def test_unknown_flag_is_usage_error():
    code, _ = run(["qchar", "--bogus", "1"])
    assert code == 2


def test_unknown_preset_is_operational_error():
    code, text = run(["qchar", "--type", "Z9", "--node", "0"])
    assert code == 2
    assert json.loads(text)["status"] == "error"


@pytest.mark.parametrize("argv", [
    ["crystal", "--seed", "Y[1,0]Y[0,1]^-1", "--ops", "",
     "--root-of-unity", "4"],
    ["crystal", "--seed", "Y[1,0]Y[0,1]^-1", "--ops", "1,x"],
    ["crystal", "--seed", "Y[1,0]Y[0,1]^-1", "--ops", "", "--steps", "0"],
    ["crystal", "--seed", "Y[1,0]Y[0,1]^-1", "--ops", "1,9"],
    ["crystal", "--seed", "Y[1,0]Y[0,1]^-1", "--ops", "1,9", "--steps",
     "0"],
    ["hecke", "--l", "2", "--a", "0"],
    ["hecke", "--l", "2", "--a", "0,2,4"],
    ["repcheck", "--window=1"],
    ["repcheck", "--window=a,b"],
    ["octahedron", "--window=1"],
    ["fusion", "--ops", "1"],
    ["qchar", "--type", "Bnp:2,2", "--node", "0", "--k", "1", "--spectral",
     "0", "--depth", "2"],
    ["tsystem", "--type", "A3tor", "--node", "7", "--k", "1", "--spectral",
     "0", "--depth", "2"],
    ["tsystem", "--type", "A3tor", "--node", "0", "--k", "0", "--spectral",
     "0", "--depth", "2"],
    ["fusion", "--u-order", "-1"],
    ["fusion", "--ops", "1,1", "--u-order", "-1"],
    ["repcheck", "--L", "1", "--r-range", "-1", "--series-order", "-1"],
    ["repcheck", "--r-range", "1", "--series-order", "-1"],
    ["octahedron", "--window=2,-2"],
    ["octahedron", "--k", ""],
    ["octahedron", "--steps", "-1"],
    ["hecke", "--l", "5", "--a", "0,1,2,3,4"],
    ["qchar", "--type", "A3tor", "--node", "0", "--k", "0", "--depth", "-1"],
    ["qchar", "--type", "A3tor", "--node", "99", "--k", "0", "--depth", "2"],
    ["qchar", "--type", "A3tor", "--node", "0", "--k", "1", "--depth", "-1"],
    ["octahedron", "--k", "0"],
    ["octahedron", "--k", "2,0,1"],
], ids=["crystal-empty-ops", "crystal-bad-op", "crystal-empty-ops-0-steps",
        "crystal-no-such-node", "crystal-no-such-node-0-steps",
        "hecke-short-a",
        "hecke-long-a", "repcheck-short-window", "repcheck-bad-window",
        "octahedron-short-window", "fusion-one-twist", "qchar-no-such-node",
        "tsystem-no-such-node", "tsystem-k0", "fusion-empty-u-window",
        "fusion-coassoc-empty-u-window", "repcheck-negative-bounds",
        "repcheck-negative-m-bound", "octahedron-empty-window",
        "octahedron-no-k", "octahedron-no-steps", "hecke-l5",
        "qchar-trivial-negative-depth", "qchar-k0-no-such-node",
        "qchar-negative-depth",
        "octahedron-k0", "octahedron-k-list-with-0"])
def test_malformed_input_is_an_error_payload(argv):
    # exit 1 means a verification failed, so bad input must not reach it
    code, text = run(argv)
    assert code == 2
    result = json.loads(text)
    assert result["status"] == "error" and result["payload"]["error"]


def test_emit_rejects_dot_for_non_graph():
    from qtoroidal.errors import QtorError
    with pytest.raises(QtorError):
        emit({"payload": {}}, "dot")


def test_empty_character_payload():
    code, text = run(["qchar", "--type", "A3tor", "--node", "0", "--k",
                      "0", "--spectral", "0", "--depth", "2"])
    assert code == 0
    payload = json.loads(text)["payload"]
    assert payload["terms"][0]["monomial"] == "1"


README = Path(__file__).resolve().parent.parent / "README.md"

# the stdout of every command in the README's "Command line" block, with
# elapsed_ms masked: (argv, exit code, sha256 of the masked text)
README_GOLDEN = [
    (["qchar", "--type", "A3tor", "--node", "0", "--k", "1", "--spectral",
      "0", "--depth", "4", "--format", "dot"], 0,
     "c18258e68c0a7198a7cc844f7e7b9aea93b7f36996af8e6076f7bf9e67b66951"),
    (["tsystem", "--type", "A3tor", "--node", "0", "--k", "1",
      "--spectral", "0", "--depth", "4"], 0,
     "b8974152e9ec7db6a00a94c6a147b80a1e7993e0df9b908e232e65cc50cf3411"),
    (["tableau", "--n", "3", "--k", "2", "--node", "1", "--spectral", "-1",
      "--depth", "4"], 0,
     "c13ace40ba7208e419585eaa40d4296452bbb0f512c0f3297346d855fa079e8a"),
    (["crystal", "--type", "A3tor", "--seed", "Y[1,0]Y[0,1]^-1", "--ops",
      "1,2,3,0", "--steps", "8", "--root-of-unity", "4"], 0,
     "b8f1d378d4d31a05b0b12911fbc91cef9e2be75572da99c6467e131cef2b3c86"),
    (["repcheck", "--window=-3,3", "--r-range", "2", "--series-order",
      "2"], 0,
     "c2bbb7fecdcdf9032edaab89dcb7b93691c965c8f6cbd4289ec7aff4e2897218"),
    (["repcheck", "--L", "1", "--r-range", "3", "--series-order", "3"], 0,
     "a8d6a370382a1d0cba37d02089e304c7259c3f50d65ce668195a78202e9ae082"),
    (["fusion", "--L", "1", "--u-order", "4", "--r-range", "2",
      "--series-order", "2"], 0,
     "12a283ca15cde17cf2de18b99610803b62179131dcbddfe9c4e303e83b39911e"),
    (["fusion", "--L", "1", "--u-order", "3", "--ops", "1,2"], 0,
     "2a24feec4c3fdc0c414f402a9c1821ccb1727c85c633b9c719acc3d8ce70533a"),
    (["hecke", "--l", "2", "--a", "0,2"], 0,
     "7beca15b527a50fc9f322af1e6c4da2a7d9ec41ee84b9d8195d35c141e02dc4e"),
    (["octahedron", "--depth", "3", "--window=-2,2", "--k", "1,2",
      "--steps", "2"], 0,
     "801895632a93abdbf4a597540bfd6e1e3b4c1b519c5da86be6ae50b25df32945"),
    (["tsystem", "--type", "Bnp:3,2", "--node", "2", "--k", "2",
      "--spectral", "0", "--depth", "4"], 0,
     "1c454603b5f25e0c4744aac528426751d71ec74211e0f86401e071ae3f07ec3d"),
    (["tsystem", "--type", "A1tor", "--node", "1", "--k", "2",
      "--spectral", "0", "--depth", "4"], 0,
     "b1d4da8c0b235f8d1845d17113772dee5e51dd76a533794ecb973b94e83a38bf"),
    (["hecke", "--l", "4", "--a", "0,1,3,7"], 0,
     "866cdab2696e4e1d8ab68b4adfd13d3f4d9dadf30067736647d61fb6779aacff"),
]


def readme_commands():
    """Argument lists of the README's "Command line" block, one per
    command, with continuation lines joined and comments dropped."""
    text = README.read_text()
    section = text.split("## Command line", 1)[1].split("## Library tour")[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "qtoroidal", line
            argvs.append(argv[1:])
    return argvs


def masked_digest(text):
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_list_is_the_readme_block():
    assert [argv for argv, _, _ in README_GOLDEN] == readme_commands()


@pytest.mark.parametrize("argv, code, digest", README_GOLDEN,
                         ids=["%d-%s" % (n, argv[0]) for n, (argv, _, _)
                              in enumerate(README_GOLDEN)])
def test_readme_command_output_is_byte_stable(argv, code, digest):
    got_code, text = run(argv)
    assert (got_code, masked_digest(text)) == (code, digest)
