"""Command line interface: outputs, formats, exit codes, determinism."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cycle_edges, path_edges
import edgedepth
from edgedepth import assoc, depth, errors, graphs, stability
from edgedepth.cli import build_parser, main
from edgedepth.depth import betti_depth_crosscheck, depth_bruteforce, depth_power, takayama_complex
from edgedepth.errors import TooLargeError
from edgedepth.monomials import associated_primes_bruteforce, minimalize
from edgedepth.simplicial import FieldChoice, SimplicialComplex, from_facets, reduced_homology_dims


@pytest.fixture
def graph_file(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


C6_TEXT = "r=6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n"
C3C4_TEXT = "1 2\n2 3\n1 3\n4 5\n5 6\n6 7\n4 7\n"
C3_TEXT = "1 2\n2 3\n1 3\n"
C4LEAF_TEXT = "1 2\n2 3\n3 4\n1 4\n1 5\n"
C7_TEXT = "".join(f"{i} {i % 7 + 1}\n" for i in range(1, 8))
P8_TEXT = "".join(f"{i} {i + 1}\n" for i in range(1, 8))
P11_TEXT = "".join(f"{i} {i + 1}\n" for i in range(1, 11))
K4_TEXT = "".join(f"{i} {j}\n" for i in range(1, 5) for j in range(i + 1, 5))
K6_TEXT = "".join(f"{i} {j}\n" for i in range(1, 7) for j in range(i + 1, 7))
BOWTIE_TEXT = C3_TEXT + "1 4\n4 5\n1 5\n"
P5P5_TEXT = "".join(f"{i} {i + 1}\n" for i in (1, 2, 3, 4, 6, 7, 8, 9))
C3P7_TEXT = C3_TEXT + "".join(f"{i} {i + 1}\n" for i in range(4, 10))
C8_TEXT = "".join(f"{i} {i % 8 + 1}\n" for i in range(1, 9))
C10_TEXT = "".join(f"{i} {i % 10 + 1}\n" for i in range(1, 11))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json(graph_file, capsys):
    path = graph_file("c6.txt", C6_TEXT)
    code, out, _ = run(capsys, ["--format", "json", "analyze", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 6
    assert payload["leaf_edges"] == 0
    assert payload["limit_depth"] == 1
    assert payload["mt_bound"] == 4
    assert payload["components"][0]["kind"] == "unicyclic"


def test_analyze_text_format(graph_file, capsys):
    path = graph_file("c6.txt", C6_TEXT)
    code, out, _ = run(capsys, ["analyze", path])
    assert code == 0
    assert "vertices: 6" in out


def test_dstab_both_methods_match(graph_file, capsys):
    path = graph_file("mix.txt", C3C4_TEXT)
    code, out, _ = run(capsys, ["--format", "json", "dstab", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"]["value"] == 2
    assert payload["oracle"] == 2
    assert payload["match"] is True


def test_dstab_single_methods(graph_file, capsys):
    path = graph_file("c6.txt", C6_TEXT)
    code, out, _ = run(capsys, ["--format", "json", "dstab", path, "--method", "formula"])
    assert code == 0 and json.loads(out)["formula"]["value"] == 4
    code, out, _ = run(capsys, ["--format", "json", "dstab", path, "--method", "oracle"])
    assert code == 0 and json.loads(out)["oracle"] == 4


def test_depth_seq(graph_file, capsys):
    path = graph_file("c6.txt", C6_TEXT)
    code, out, _ = run(
        capsys, ["--format", "json", "depth-seq", path, "--max-power", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["depths"] == [2, 2, 2, 1]
    assert payload["first_at_limit"] == 4


def test_depth_seq_verified(graph_file, capsys):
    path = graph_file("c3.txt", C3_TEXT)
    code, out, _ = run(
        capsys,
        ["--format", "json", "depth-seq", path, "--max-power", "2", "--verify"],
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize(
    "text",
    [
        C4LEAF_TEXT,  # four-cycle-adjacent-deg2
        "1 2\n2 3\n3 4\n1 4\n1 5\n3 6\n",  # four-cycle-remark: leaves on opposite corners
        "1 3\n1 7\n2 3\n3 5\n3 6\n4 5\n4 6\n",  # four-cycle-remark, a seeded benchmark draw
    ],
    ids=["C4+leaf", "C4+2oppleaves", "draw3"],
)
def test_dstab_both_runs_the_oracle_once(graph_file, capsys, monkeypatch, text):
    # the formula cross-validates a connected 4-cycle graph with the value
    # the CLI's own oracle run found
    calls = []
    oracle = stability.dstab_oracle

    def spy(*args, **kwargs):
        calls.append(kwargs.get("trace", False))
        return oracle(*args, **kwargs)

    monkeypatch.setattr(stability, "dstab_oracle", spy)
    path = graph_file("g.txt", text)
    code, out, _ = run(capsys, ["--format", "json", "dstab", path, "--method", "formula"])
    assert code == 0 and calls == [False]
    alone = json.loads(out)["formula"]
    for trace in ([], ["--trace"]):
        calls.clear()
        code, out, _ = run(capsys, [*trace, "--format", "json", "dstab", path])
        assert code == 0 and calls == [bool(trace)]
        payload = json.loads(out)
        assert payload["formula"] == alone and payload["match"] is True
        (component,) = alone["components"]
        assert component["note"] in ("four-cycle-adjacent-deg2", "four-cycle-remark")
        assert component["exact"] and component["value"] == payload["oracle"]


def test_ass_auto_runs_both_on_unicyclic(graph_file, capsys):
    path = graph_file("c3.txt", C3_TEXT)
    code, out, _ = run(capsys, ["--format", "json", "ass", path, "--power", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert [1, 2, 3] in payload["formula"]


@pytest.mark.parametrize("extra", [[], ["--method", "formula"], ["--method", "both"]])
def test_ass_walks_once(graph_file, capsys, monkeypatch, extra):
    calls = []
    walk = assoc.cover_states

    def spy(*args, **kwargs):
        calls.append(kwargs.get("trace", False))
        return walk(*args, **kwargs)

    monkeypatch.setattr(assoc, "cover_states", spy)
    path = graph_file("c3.txt", C3_TEXT)
    code, _, err = run(capsys, ["ass", path, "--power", "3", *extra])
    assert code == 0 and calls == [False] and err == ""
    calls.clear()
    code, _, err = run(capsys, ["--trace", "ass", path, "--power", "3", *extra])
    assert code == 0 and calls == [True]
    assert err == "level 3: 3 states\n"


def test_ass_auto_falls_back_to_bruteforce(graph_file, capsys):
    path = graph_file("c4.txt", "1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run(capsys, ["--format", "json", "ass", path, "--power", "1"])
    assert code == 0
    payload = json.loads(out)
    assert "formula" not in payload
    assert payload["bruteforce"] == [[1, 3], [2, 4]]


def test_ass_at_power_500_falls_back_without_deep_recursion(graph_file, capsys):
    # K2's colon box at n = 500 has 251,001 cells, under the box cap; a
    # cold I^500 once recursed one call per power and died
    path = graph_file("k2.txt", "1 2\n")
    code, out, _ = run(capsys, ["--format", "json", "ass", path, "--power", "500"])
    assert code == 0
    assert json.loads(out)["bruteforce"] == [[1], [2]]


def test_colon_scan_leaves_numpy_ma_unimported(graph_file):
    # np.unique imports numpy.ma on first use, which costs a fresh process
    # about 14 ms and 0.6 MB of memory; the colon scan does without it
    path = graph_file("c5.txt", "1 2\n2 3\n3 4\n4 5\n1 5\n")
    script = (
        "import sys\n"
        "from edgedepth.cli import main\n"
        f"assert main(['ass', {path!r}, '--power', '3', '--method', 'bruteforce']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(edgedepth.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"


def test_ass_auto_keeps_the_level_cap(graph_file, capsys):
    # only a graph outside the formula's class falls back to brute force
    path = graph_file("c3.txt", C3_TEXT)
    code, out, err = run(capsys, ["ass", path, "--power", "8"])
    assert code == 3 and "the level cap" in err and out == ""


def test_dstab_mismatch_prints_payload_once_and_exits_4(graph_file, capsys, monkeypatch):
    monkeypatch.setattr(stability, "dstab_oracle", lambda g, **kwargs: 99)
    path = graph_file("c6.txt", C6_TEXT)
    code, out, err = run(capsys, ["--format", "json", "dstab", path])
    assert code == 4 and err == "mismatch: formula 4 != oracle 99\n"
    component = {
        "bipartite": True, "exact": True, "k": 3, "kind": "unicyclic", "note": "even-cycle",
        "value": 4, "vertices": [1, 2, 3, 4, 5, 6],
    }
    formula = {
        "components": [component], "exact": True, "limit_depth": 1, "mt_bound": 4, "value": 4,
        "warnings": [],
    }
    # the payload once, before the exit
    payload = {"formula": formula, "match": False, "oracle": 99}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_ass_both_mismatch_prints_payload_and_exits_4(graph_file, capsys, monkeypatch):
    monkeypatch.setattr(assoc, "ass_formula", lambda g, n, trace=False: ((1,),))
    path = graph_file("c3.txt", C3_TEXT)
    argv = ["--format", "json", "ass", path, "--power", "2", "--method", "both"]
    code, out, err = run(capsys, argv)
    assert code == 4 and err == "mismatch: formula and brute-force associated primes differ\n"
    payload = json.loads(out)
    assert payload["formula"] == [[1]] and [1, 2, 3] in payload["bruteforce"]
    assert "match" not in payload


def test_depth_seq_verify_mismatch_exits_4(graph_file, capsys, monkeypatch):
    monkeypatch.setattr(depth, "betti_depth_crosscheck", lambda ideal, field: 99)
    path = graph_file("c3.txt", C3_TEXT)
    argv = ["--format", "json", "depth-seq", path, "--max-power", "2", "--verify"]
    code, out, err = run(capsys, argv)
    assert code == 4
    assert err == "mismatch: power 1: scan depth 1 != betti depth 99\n"
    # the payload is printed before the exit, as dstab and ass print theirs
    assert json.loads(out) == {
        "depths": [1, 0], "limit_depth": 0, "first_at_limit": 2, "verified": False
    }


@pytest.mark.parametrize(
    "argv", [["depth-seq", "--max-power", "0"], ["ass", "--power", "0"]], ids=["depth-seq", "ass"]
)
def test_power_zero_is_an_input_error(graph_file, capsys, argv):
    path = graph_file("c3.txt", C3_TEXT)
    code, out, err = run(capsys, [argv[0], path, *argv[1:]])
    assert code == 2 and out == "" and err == f"error: {argv[1]} must be >= 1\n"


def test_oracle_past_its_bound_exits_5(graph_file, capsys, monkeypatch):
    # C6 reaches its limit depth at n = 4; a bound of 1 stops the oracle first
    monkeypatch.setattr(stability, "mt_bound", lambda g: 1)
    path = graph_file("c6.txt", C6_TEXT)
    code, out, err = run(capsys, ["dstab", path, "--method", "oracle"])
    assert code == 5 and out == ""
    assert err == "internal error: depth did not reach the limit 1 within the bound 1\n"


def test_exit_code_parse_error(graph_file, capsys):
    path = graph_file("bad.txt", "1 2 3\n")
    code, _, err = run(capsys, ["analyze", path])
    assert code == 2 and "error" in err


def test_exit_code_missing_file(capsys):
    code, _, _ = run(capsys, ["analyze", "/nonexistent/graph.txt"])
    assert code == 2


def test_exit_code_unreadable_graph_path(tmp_path, capsys):
    # a directory, not a chmod 000 file: root can read that file anyway
    code, _, err = run(capsys, ["dstab", str(tmp_path)])
    assert code == 2 and err.startswith("error: ")


def test_exit_code_isolated_vertex(graph_file, capsys):
    path = graph_file("iso.txt", "r=3\n1 2\n")
    code, _, _ = run(capsys, ["analyze", path])
    assert code == 2


def test_exit_code_caps(graph_file, capsys):
    path = graph_file("c6.txt", C6_TEXT)
    code, _, _ = run(capsys, ["--max-r", "4", "analyze", path])
    assert code == 3


_BIG = minimalize(3, [(200, 200, 200)])  # 201^3 cells, over the box cap
_R17 = minimalize(17, [(1,) * 17])
_P17 = graphs.build_graph(path_edges(17))
_C3 = graphs.build_graph(cycle_edges(3))
# C17 with a chord: a 17-vertex block with three cycles, so its cycles are searched
_C17_CHORD = graphs.build_graph(cycle_edges(17) + [(1, 9)])
_S17 = SimplicialComplex(tuple(range(1, 18)), frozenset(range((1 << 17) - 1)))
_C8 = graphs.build_graph(cycle_edges(8))


def _walk_c8_under_a_small_state_cap(gf):
    # P16 at n = 6 meets the real cap only after seconds and 150 MB; a
    # small cap takes C8 through the same refusal
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(errors.CAPS, "state", 1 << 12)
        stability.dstab_oracle(_C8)


_CAP_CASES = [
    (lambda gf: main(["--max-r", "4", "analyze", gf("c6.txt", C6_TEXT)]), "cap is 4 (--max-r)"),
    (lambda gf: depth_power(_P17, 1), "cap is 16 (the vertex cap)"),
    (lambda gf: depth_bruteforce(_R17), "cap is 16 (the vertex cap)"),
    (lambda gf: takayama_complex(_R17, (0,) * 17), "cap is 16 (the vertex cap)"),
    (lambda gf: betti_depth_crosscheck(_R17), "cap is 16 (the vertex cap)"),
    (lambda gf: depth_bruteforce(_BIG), "cap is 5000000 (the box cap)"),
    (lambda gf: betti_depth_crosscheck(_BIG), "cap is 5000000 (the box cap)"),
    (lambda gf: associated_primes_bruteforce(_BIG), "cap is 5000000 (the box cap)"),
    (lambda gf: graphs.cycle_profile(_C17_CHORD), "block of r=17, cap is 16 (the vertex cap)"),
    (lambda gf: graphs.maximal_independent_sets(_P17), "cap is 16 (the vertex cap)"),
    (
        lambda gf: assoc.cover_states(_C3, 8),
        "cover walk level 8 is r + 5, cap is 4 (the level cap)",
    ),
    (lambda gf: from_facets(range(1, 22), [range(1, 22)]), "(the face cap)"),
    # the boundary of the 17-vertex simplex: 2^17 - 1 faces, not a cone
    (lambda gf: reduced_homology_dims(_S17), "cap is 65536 (the rank cap)"),
    (_walk_c8_under_a_small_state_cap, "cap is 4096 (the state cap)"),
]


@pytest.mark.parametrize(
    "trigger, name",
    _CAP_CASES,
    ids=[
        "load-graph", "depth-power-r", "depth-bruteforce-r", "takayama-r", "betti-r",
        "depth-box", "betti-box", "colon-box", "cycles", "independent-sets", "walk-level",
        "faces", "rank", "state",
    ],
)
def test_each_cap_names_itself(graph_file, capsys, trigger, name):
    # the cases refuse through every cap of the library's table; a library
    # cap raises, and the CLI's --max-r exits 3 with the message on stderr
    named = re.findall(r"\(the (\w+) cap\)", " ".join(text for _, text in _CAP_CASES))
    assert set(named) == set(errors.CAPS)
    try:
        code = trigger(graph_file)
    except TooLargeError as exc:
        message = str(exc)
    else:
        out, message = capsys.readouterr()
        assert code == 3 and out == ""
    assert name in message


def test_missed_hint_over_box_cap_is_walked(graph_file, capsys, monkeypatch):
    # P8's last power has 7^8 cells, over the box cap, which the facet
    # route does not have: when its witness cell misses, the walk still
    # finds depth 1 there
    path = graph_file("p8.txt", P8_TEXT)
    code, out, _ = run(capsys, ["--format", "json", "dstab", "--method", "oracle", path])
    assert code == 0 and json.loads(out)["oracle"] == 6
    monkeypatch.setattr(stability, "_witness", lambda g: (6, (0,) * 8))
    code, out, err = run(capsys, ["--trace", "--format", "json", "dstab", "--method", "oracle", path])
    assert code == 0 and json.loads(out)["oracle"] == 6
    assert "power 6: depth=1" in err and "hint_hit=False" in err.splitlines()[-1]


def test_state_cap_exits_3(graph_file, capsys, monkeypatch):
    # as in test_each_cap_names_itself, through the CLI's exit code
    monkeypatch.setitem(errors.CAPS, "state", 1 << 12)
    code, _, err = run(capsys, ["dstab", "--method", "oracle", graph_file("c8.txt", C8_TEXT)])
    assert code == 3 and "cap is 4096 (the state cap)" in err


# a 1,000-vertex unicyclic graph: C501 with a 499-vertex path hung on vertex 1
C501_TAIL_TEXT = (
    "".join(f"{i} {i % 501 + 1}\n" for i in range(1, 502))
    + "1 502\n"
    + "".join(f"{i} {i + 1}\n" for i in range(502, 1000))
)


@pytest.mark.parametrize(
    "name, text, max_r, value",
    [
        ("c17", "".join(f"{i} {i % 17 + 1}\n" for i in range(1, 18)), 17, 9),
        ("c201", "".join(f"{i} {i % 201 + 1}\n" for i in range(1, 202)), 201, 101),
        ("c501+tail", C501_TAIL_TEXT, 1000, 1000 - 1 - 251 + 1),
    ],
)
def test_unicyclic_formula_past_the_vertex_cap(graph_file, capsys, name, text, max_r, value):
    # a cycle block is read with no search, so the formula answers at any size
    argv = ["--max-r", str(max_r), "--format", "json", "dstab", graph_file(name, text)]
    code, out, err = run(capsys, argv + ["--method", "formula"])
    assert code == 0 and err == ""
    report = json.loads(out)["formula"]
    assert report["exact"] and report["value"] == value
    # the oracle still refuses r > 16, at its depth scan
    code, out, err = run(capsys, argv + ["--method", "oracle"])
    assert code == 3 and out == ""
    assert err == f"error: depth scan of r={max_r}, cap is 16 (the vertex cap)\n"


def test_dstab_reaches_c10(graph_file, capsys):
    # C10's box at n = 4 has 5^10 cells, over the box cap; the walk's
    # states are far fewer, and the paper's witness cell settles n = 6
    code, out, err = run(capsys, ["--format", "json", "dstab", graph_file("c10.txt", C10_TEXT)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["oracle"] == payload["formula"]["value"] == 6


def test_dstab_trace_prints_each_power(graph_file, capsys):
    path = graph_file("c7.txt", C7_TEXT)
    code, out, err = run(capsys, ["--trace", "--format", "json", "dstab", path])
    assert code == 0 and json.loads(out)["oracle"] == 4
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"power {n}" for n in (1, 2, 3, 4)]
    assert "hint_hit=False" in lines[2] and "cells_scanned=16384" in lines[2]
    assert lines[3] == (
        "power 4: depth=0 witness=(1, 1, 1, 1, 1, 1, 1) hint_hit=True cells_scanned=1"
    )


def test_trace_is_silent_on_untraced_routes(graph_file, capsys):
    # --trace reaches the dstab oracle, depth-seq and the ass cover walk only
    path = graph_file("c7.txt", C7_TEXT)
    for argv in (
        ["dstab", path, "--method", "formula"],
        ["ass", path, "--power", "2", "--method", "bruteforce"],
    ):
        code, out, err = run(capsys, ["--trace", *argv])
        assert code == 0 and out and err == ""


def test_depth_seq_trace_prints_the_dstab_line(graph_file, capsys):
    # both commands read one certificate stream, witness cells included
    for text, depths in ((C3C4_TEXT, [2, 1]), (C7_TEXT, [2, 2, 2, 0])):
        path = graph_file("g.txt", text)
        argv = ["--trace", "--format", "json", "depth-seq", path, "--max-power", str(len(depths))]
        code, out, seq_err = run(capsys, argv)
        assert code == 0 and json.loads(out)["depths"] == depths
        lines = seq_err.splitlines()
        powers = [f"power {n}" for n in range(1, len(depths) + 1)]
        assert [line.split(":")[0] for line in lines] == powers
        assert "hint_hit=True" in lines[-1]
        code, out, dstab_err = run(capsys, ["--trace", "--format", "json", "dstab", path])
        assert code == 0 and json.loads(out)["oracle"] == len(depths)
        assert dstab_err == seq_err
    help_text = " ".join(build_parser().format_help().split())
    assert "per power for the dstab oracle and depth-seq" in help_text


def test_depth_seq_reaches_p8(graph_file, capsys):
    # the 7^8-cell box of n = 6 is over the cap; the witness cell is not
    path = graph_file("p8.txt", P8_TEXT)
    code, out, err = run(capsys, ["--format", "json", "depth-seq", path, "--max-power", "6"])
    assert code == 0, err
    assert json.loads(out)["depths"] == [3, 3, 2, 2, 2, 1]


@pytest.mark.parametrize(
    "text, calls",
    [(K6_TEXT, 1), (C7_TEXT, 1), (C3C4_TEXT, 2), (K4_TEXT, 2), (BOWTIE_TEXT, 2)],
    ids=["K6", "C7", "C3+C4", "K4", "bowtie"],
)
def test_dstab_enumerates_cycles_once_per_graph(graph_file, capsys, text, calls):
    # cycle_profile searches each graph's cycles once: the formula, the
    # bound, the oracle and the witness read its cached facts.  C3+C4 has
    # two components; K4 and the bowtie also profile the spanning unicyclic
    # subgraph whose cover walk gives their witness
    graphs.cycle_profile.cache_clear()
    code, out, err = run(capsys, ["--format", "json", "dstab", graph_file("g.txt", text)])
    assert code == 0 and json.loads(out)["match"] is True, err
    assert graphs.cycle_profile.cache_info().misses == calls


@pytest.mark.parametrize(
    "text, want", [(P5P5_TEXT, 5), (C3P7_TEXT, 6)], ids=["P5+P5", "C3+P7"]
)
def test_split_reaches_boxes_over_the_cap(graph_file, capsys, text, want):
    # from n = 4 on, each box has at least 5^10 = 9,765,625 cells, over the
    # 5,000,000 cap; the components' witnesses spare every one of them
    path = graph_file("g.txt", text)
    code, out, err = run(capsys, ["--format", "json", "--max-r", "10", "dstab", path])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["oracle"] == payload["formula"]["value"] == want
    assert payload["match"] is True


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_exit_code_bad_field(graph_file, capsys):
    path = graph_file("c3.txt", C3_TEXT)
    code, _, _ = run(capsys, ["--field", "gf:6", "analyze", path])
    assert code == 2
    huge = "gf:1000000000000000003"  # a prime too large for trial division
    code, _, err = run(capsys, ["--field", huge, "analyze", path])
    assert code == 2 and "2^31" in err


def test_only_the_graph_commands_remain(capsys):
    # reduced homology is a library routine (simplicial), not a command
    with pytest.raises(SystemExit) as info:
        main(["homology", "--facets", "[[1]]"])
    err = capsys.readouterr().err
    assert info.value.code == 2 and "invalid choice" in err and "homology" in err
    assert "{analyze,dstab,depth-seq,ass}" in build_parser().format_help()


def test_every_command_checks_the_field(graph_file, capsys):
    path = graph_file("c4leaf.txt", C4LEAF_TEXT)
    code, out, err = run(capsys, ["--field", "gf:4", "analyze", path])
    assert code == 2 and out == "" and "4 is not prime" in err
    code, out, err = run(capsys, ["--field", "bogus", "ass", path, "--power", "2"])
    assert code == 2 and out == "" and "unknown field 'bogus'" in err


def test_deterministic_output(graph_file, capsys):
    path = graph_file("mix.txt", C3C4_TEXT)
    _, out1, _ = run(capsys, ["--format", "json", "dstab", path])
    _, out2, _ = run(capsys, ["--format", "json", "dstab", path])
    assert out1 == out2


def test_max_r_reaches_the_scan(graph_file, capsys):
    path = graph_file("p11.txt", P11_TEXT)
    code, out, err = run(
        capsys,
        ["--format", "json", "--max-r", "12", "depth-seq", path, "--max-power", "1"],
    )
    assert code == 0, err
    assert json.loads(out)["depths"] == [4]  # ceil(11 / 3)
    code, _, err = run(capsys, ["depth-seq", path, "--max-power", "1"])
    assert code == 3 and "cap is 10" in err


def test_max_r_below_one_is_an_input_error(graph_file, capsys):
    path = graph_file("c3.txt", C3_TEXT)
    for value in ("0", "-1"):
        code, _, err = run(capsys, ["--max-r", value, "analyze", path])
        assert code == 2 and "--max-r" in err and "cap is" not in err
    code, _, err = run(capsys, ["--max-r", "2", "analyze", path])
    assert code == 3 and "cap is 2 (--max-r)" in err


def test_dstab_field(graph_file, capsys, monkeypatch):
    path = graph_file("c4leaf.txt", C4LEAF_TEXT)
    code, _, _ = run(capsys, ["--field", "gf:4", "dstab", path])
    assert code == 2
    fields = []
    real = stability.depth_power

    def spy(g, n, field, **kwargs):
        fields.append(field)
        return real(g, n, field=field, **kwargs)

    monkeypatch.setattr(stability, "depth_power", spy)
    code, out, _ = run(capsys, ["--format", "json", "--field", "gf:2", "dstab", path])
    assert code == 0 and json.loads(out)["match"] is True
    assert fields and set(fields) == {FieldChoice.gf(2)}


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fd: int) -> None:
        self._fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self._fd


def test_closed_stdout_keeps_exit_code(graph_file, capsys, monkeypatch, tmp_path):
    path = graph_file("c6.txt", C6_TEXT)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["--format", "json", "analyze", path]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(stability, "dstab_oracle", lambda g, **kwargs: 99)
        assert main(["dstab", path]) == 4
        assert capsys.readouterr().err == "mismatch: formula 4 != oracle 99\n"
    finally:
        os.close(fd)
