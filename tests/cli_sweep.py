"""Run the command line interface on seeded random graphs and print one JSON
line per run: argv (the graph path replaced by the graph's name), exit code,
stdout and stderr.

    python tests/cli_sweep.py [--graphs 300] [--seed 1515] > sweep.jsonl

The runs go through edgedepth.cli.main in this process, on the edgedepth
under ../src.  They use only the command line, so a copy of this file in
another checkout's tests/ runs that checkout unchanged, and `cmp` of the
two outputs says whether both give the same answers.  Per graph: analyze,
dstab --trace, depth-seq --trace --max-power 3, ass at powers 1..3 under
every --method, traced under --method formula, and two runs over a cap:
analyze under --max-r 2, and ass --method formula at level r + 5, over the
level cap (or outside the formula's class).  The traces put each power's
certificate (depth, witness, hint_hit, cells_scanned) and each cover-walk
level's state count on stderr, so cmp compares those too.  Six fixed
runs follow, four of them dstab --method formula past the default
--max-r, and one ass --method bruteforce.  The 17-vertex path answers,
since the tree formula needs no cycle search, and so do the 17-cycle and
a 1,000-vertex unicyclic graph (C501 with a 499-vertex path hung on it),
whose cycle blocks are read with no search; the 17-cycle with a chord
meets the vertex cap at its block's cycle search; one edge at --power
2237 (2238^2 cells) meets the box cap at the colon scan.  The sixth is
analyze under --max-r 14 on K6,6 with a triangle hung on one vertex,
whose longest cycles are searched block by block.  The default run takes
9 to 15 s on a 2-core x86-64 machine.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from conftest import random_connected_graph, random_graph  # noqa: E402
from edgedepth.cli import main  # noqa: E402

GRAPH = "{graph}"  # stands for the graph file's path
OVER_LEVEL = "{r + 5}"  # stands for the graph's vertex count plus 5
COMMANDS = [
    ["analyze", GRAPH],
    ["--trace", "dstab", GRAPH],
    ["--trace", "depth-seq", GRAPH, "--max-power", "3"],
] + [
    (["--trace"] if method == "formula" else [])
    + ["ass", GRAPH, "--power", str(n), "--method", method]
    for n in (1, 2, 3)
    for method in ("formula", "bruteforce", "both", "auto")
] + [
    ["--max-r", "2", "analyze", GRAPH],
    ["ass", GRAPH, "--power", OVER_LEVEL, "--method", "formula"],
]
C17 = "".join(f"{i} {i % 17 + 1}\n" for i in range(1, 18))
# (name, r, edge-list text, command) of the fixed runs, the fourth and
# fifth over a library cap
FIXED = [
    ("p17", 17, "".join(f"{i} {i + 1}\n" for i in range(1, 17)),
     ["--max-r", "17", "dstab", GRAPH, "--method", "formula"]),
    ("c17", 17, C17, ["--max-r", "17", "dstab", GRAPH, "--method", "formula"]),
    ("c501+tail", 1000, "".join(f"{i} {i % 501 + 1}\n" for i in range(1, 502)) + "1 502\n"
     + "".join(f"{i} {i + 1}\n" for i in range(502, 1000)),
     ["--max-r", "1000", "dstab", GRAPH, "--method", "formula"]),
    ("c17+chord", 17, C17 + "1 9\n", ["--max-r", "17", "dstab", GRAPH, "--method", "formula"]),
    ("k2", 2, "1 2\n", ["ass", GRAPH, "--method", "bruteforce", "--power", "2237"]),
    # K6,6 with a triangle hung on vertex 1: a dense bipartite block beside
    # an odd one, for the per-block cycle search
    ("k66+c3", 14, "".join(f"{a} {b}\n" for a in range(1, 7) for b in range(7, 13))
     + "1 13\n1 14\n13 14\n", ["--max-r", "14", "analyze", GRAPH]),
]


def sweep_graphs(count: int, seed: int):
    """(name, r, edge-list text) of count seeded graphs on 3 to 8
    vertices, alternately any graph without isolated vertices (often
    disconnected) and a connected one."""
    rng = random.Random(seed)
    for i in range(count):
        v = rng.randint(3, 8)
        if i % 2:
            g = random_connected_graph(rng, v, max_extra=rng.randint(0, 4))
        else:
            g = random_graph(rng, v, extra=rng.randint(0, 4))
        yield f"g{i:03d}", g.r, f"r={g.r}\n" + "".join(f"{a} {b}\n" for a, b in g.edges)


def run(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = main(argv)
        except Exception as exc:  # an escaped exception is an answer too
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main_sweep(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graphs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1515)
    args = parser.parse_args(argv)
    runs = [
        (name, r, text, command)
        for name, r, text in sweep_graphs(args.graphs, args.seed)
        for command in COMMANDS
    ] + FIXED
    with tempfile.TemporaryDirectory() as tmp:
        for name, r, text, command in runs:
            path = str(Path(tmp) / f"{name}.txt")
            Path(path).write_text(text)
            given = {GRAPH: path, OVER_LEVEL: str(r + 5)}
            cli_argv = [given.get(a, a) for a in command]
            code, out, err = run(cli_argv)
            record = {
                "argv": [name if a == path else a for a in cli_argv],
                "exit": code,
                "stdout": out.replace(path, name),
                "stderr": err.replace(path, name),
            }
            print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_sweep())
