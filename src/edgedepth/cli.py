"""Command line interface.

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
    MismatchError,
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


def _load_graph(path: str, max_r: int) -> graphs.Graph:
    g = graphs.read_graph_file(path)
    if g.r > max_r:
        raise TooLargeError(f"graph has {g.r} vertices, cap is {max_r} (--max-r)")
    return g


def _component_payload(g: graphs.Graph) -> list[dict]:
    dec = graphs.decompose(g)
    out = []
    for comp, bipart in zip(dec.components, dec.bipartitions):
        sub, _ = graphs.induced_subgraph(g, comp)
        prof = graphs.cycle_profile(sub)
        out.append(
            {
                "vertices": list(comp),
                "bipartite": bipart is not None,
                "bipartition": [list(bipart[0]), list(bipart[1])] if bipart else None,
                "kind": prof.kind,
                "max_even_cycle": prof.max_even_len,
                "max_odd_cycle": prof.max_odd_len,
            }
        )
    return out


def cmd_analyze(args) -> int:
    g = _load_graph(args.graph, args.max_r)
    dec = graphs.decompose(g)
    payload = {
        "vertices": g.r,
        "edges": g.num_edges,
        "leaf_edges": graphs.leaf_edges(g),
        "component_count": dec.p,
        "bipartite_components": dec.s,
        "nonbipartite_components": dec.t,
        "limit_depth": stability.depth_limit(g),
        "mt_bound": stability.mt_bound(g),
        "components": _component_payload(g),
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_dstab(args) -> int:
    g = _load_graph(args.graph, args.max_r)
    payload: dict = {}
    oracle = None
    if args.method in ("oracle", "both"):
        # first, so that the formula reads this run's value and does not
        # run the oracle on g again for a 4-cycle case
        oracle = stability.dstab_oracle(g, field=args.field, trace=args.trace)
        payload["oracle"] = oracle
    if args.method in ("formula", "both"):
        formula_report = stability.dstab_formula(g, field=args.field, _oracle=oracle)
        payload["formula"] = dataclasses.asdict(formula_report)
        if oracle is not None:
            payload["match"] = (not formula_report.exact) or formula_report.value == oracle
            if not payload["match"]:
                _emit(payload, args.format)
                raise MismatchError(
                    f"formula {formula_report.value} != oracle {oracle}"
                )
    _emit(payload, args.format)
    return EXIT_OK


def cmd_depth_seq(args) -> int:
    g = _load_graph(args.graph, args.max_r)
    if args.max_power < 1:
        raise ParseError("--max-power must be >= 1")
    seq = stability.depth_sequence(g, args.max_power, field=args.field, trace=args.trace)
    s = stability.depth_limit(g)
    first = next((i + 1 for i, d in enumerate(seq) if d == s), None)
    payload = {"depths": seq, "limit_depth": s, "first_at_limit": first}
    if args.verify:
        ideal = monomials.edge_ideal(g)
        payload["verified"] = True
        for n, d in enumerate(seq, 1):
            other = depth.betti_depth_crosscheck(monomials.power(ideal, n), field=args.field)
            if other != d:
                payload["verified"] = False
                _emit(payload, args.format)
                raise MismatchError(f"power {n}: scan depth {d} != betti depth {other}")
    _emit(payload, args.format)
    return EXIT_OK


def cmd_ass(args) -> int:
    g = _load_graph(args.graph, args.max_r)
    n = args.power
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
            _emit(payload, args.format)
            raise MismatchError("formula and brute-force associated primes differ")
        payload["match"] = True
    _emit(payload, args.format)
    return EXIT_OK


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
        return args.func(args)
    except (OSError, ParseError, GraphError, ValueError) as exc:  # OSError: graph file unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (InternalError, NoFullStateError, WitnessCheckFailedError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
