"""Command line interface.

main is the one path from a request to output: it reads the graph into
args.graph, refuses it past --max-r, runs the command, which returns
(payload, mismatch), and prints the payload.  A mismatch, what two routes
that must agree disagree on, then goes to stderr and the exit code is 4.

Exit codes: 0 success, 2 input/parse error, 3 size cap exceeded,
4 cross-check mismatch, 5 internal invariant violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import assoc, depth, graphs, monomials, simplicial, stability
from .errors import (
    GraphError,
    InternalError,
    NoFullStateError,
    ParseError,
    TooLargeError,
    WitnessCheckFailedError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPS = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5

MAX_R_DEFAULT = 10  # the default of --max-r


def _field_from_arg(spec: str) -> simplicial.FieldChoice:
    if spec == "q":
        return simplicial.QQ
    if spec.startswith("gf:"):
        try:
            return simplicial.FieldChoice.gf(int(spec[3:]))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field {spec!r}; use 'q' or 'gf:<p>'")


def _emit(payload: dict, fmt: str) -> None:
    """Print payload.  A reader that has gone away (a closed pipe) loses the
    output, not the exit code the computation produced."""
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        lines = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}: {value}")
        text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at the null device, so that the flush at interpreter
        # exit finds somewhere to put what is still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_analyze(args) -> tuple[dict, str | None]:
    g = args.graph
    dec = graphs.decompose(g)
    components = []
    for comp, bipart in zip(dec.components, dec.bipartitions):
        prof = graphs.cycle_profile(graphs.induced_subgraph(g, comp)[0])
        components.append(
            {
                "vertices": list(comp),
                "bipartite": bipart is not None,
                "bipartition": [list(bipart[0]), list(bipart[1])] if bipart else None,
                "kind": prof.kind,
                "max_even_cycle": prof.max_even_len,
                "max_odd_cycle": prof.max_odd_len,
            }
        )
    return {
        "vertices": g.r,
        "edges": g.num_edges,
        "leaf_edges": graphs.leaf_edges(g),
        "component_count": dec.p,
        "bipartite_components": dec.s,
        "nonbipartite_components": dec.t,
        "limit_depth": stability.depth_limit(g),
        "mt_bound": stability.mt_bound(g),
        "components": components,
    }, None


def cmd_dstab(args) -> tuple[dict, str | None]:
    payload: dict = {}
    oracle = None
    if args.method in ("oracle", "both"):
        # first, so that the formula reads this run's value and does not
        # run the oracle on g again for a 4-cycle case
        oracle = stability.dstab_oracle(args.graph, field=args.field, trace=args.trace)
        payload["oracle"] = oracle
    if args.method in ("formula", "both"):
        formula_report = stability.dstab_formula(args.graph, field=args.field, _oracle=oracle)
        payload["formula"] = dataclasses.asdict(formula_report)
        if oracle is not None:
            payload["match"] = (not formula_report.exact) or formula_report.value == oracle
            if not payload["match"]:
                return payload, f"formula {formula_report.value} != oracle {oracle}"
    return payload, None


def cmd_depth_seq(args) -> tuple[dict, str | None]:
    g = args.graph
    if args.max_power < 1:
        raise ParseError("--max-power must be >= 1")
    seq = stability.depth_sequence(g, args.max_power, field=args.field, trace=args.trace)
    s = stability.depth_limit(g)
    first = next((i + 1 for i, d in enumerate(seq) if d == s), None)
    payload = {"depths": seq, "limit_depth": s, "first_at_limit": first}
    if args.verify:
        ideal = monomials.edge_ideal(g)
        payload["verified"] = False
        for n, d in enumerate(seq, 1):
            other = depth.betti_depth_crosscheck(monomials.power(ideal, n), field=args.field)
            if other != d:
                return payload, f"power {n}: scan depth {d} != betti depth {other}"
        payload["verified"] = True
    return payload, None


def cmd_ass(args) -> tuple[dict, str | None]:
    g, n = args.graph, args.power
    if n < 1:
        raise ParseError("--power must be >= 1")
    payload: dict = {"power": n}
    formula_result = brute_result = None
    if args.method != "bruteforce":
        try:
            formula_result = assoc.ass_formula(g, n, trace=args.trace)
            payload["formula"] = [list(p) for p in formula_result]
        except GraphError:  # auto: g outside the formula's class; caps and faults still stop
            if args.method != "auto":
                raise
    if args.method != "formula":
        ideal = monomials.power(monomials.edge_ideal(g), n)
        brute_result = monomials.associated_primes_bruteforce(ideal)
        payload["bruteforce"] = [list(p) for p in brute_result]
    if formula_result is not None and brute_result is not None:
        if formula_result != brute_result:
            return payload, "formula and brute-force associated primes differ"
        payload["match"] = True
    return payload, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="edgedepth",
        description="Depth stability of powers of edge ideals",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--field", default="q", help="coefficient field: q or gf:<p>")
    parser.add_argument(
        "--max-r", type=int, default=MAX_R_DEFAULT, help="vertex cap on the input graph"
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace to stderr: per power for the dstab oracle and depth-seq, per level "
            "for the ass cover walk; no other route prints a trace"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="graph invariants and component structure")
    p.add_argument("graph")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dstab", help="index of depth stability")
    p.add_argument("graph")
    p.add_argument("--method", choices=("formula", "oracle", "both"), default="both")
    p.set_defaults(func=cmd_dstab)

    p = sub.add_parser("depth-seq", help="depth of R/I^n for n = 1..max")
    p.add_argument("graph")
    p.add_argument("--max-power", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check via Betti numbers")
    p.set_defaults(func=cmd_depth_seq)

    p = sub.add_parser("ass", help="associated primes of R/I^n")
    p.add_argument("graph")
    p.add_argument("--power", type=int, required=True)
    p.add_argument(
        "--method", choices=("formula", "bruteforce", "both", "auto"), default="auto"
    )
    p.set_defaults(func=cmd_ass)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.field = _field_from_arg(args.field)
        if args.max_r < 1:
            raise ParseError(f"--max-r must be at least 1, got {args.max_r}")
        args.graph = graphs.read_graph_file(args.graph)
        if args.graph.r > args.max_r:
            raise TooLargeError(f"graph has {args.graph.r} vertices, cap is {args.max_r} (--max-r)")
        payload, mismatch = args.func(args)
        _emit(payload, args.format)
    except (OSError, ParseError, GraphError, ValueError) as exc:  # OSError: graph file unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except (InternalError, NoFullStateError, WitnessCheckFailedError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if mismatch is None:
        return EXIT_OK
    print(f"mismatch: {mismatch}", file=sys.stderr)
    return EXIT_MISMATCH

if __name__ == "__main__":
    sys.exit(main())
