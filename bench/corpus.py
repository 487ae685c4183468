"""Workload job lists and the answer checks for the edgedepth benchmark.

Each workload is a fixed, named corpus followed by seeded random draws of
the same graph class.  The fixed corpus always runs first, so its jobs see
the same module-level cache state whatever the seed.  Everything the checks
rely on (bipartite components, the global dstab bound, minimal vertex
covers, the odd-unicyclic closed form) is recomputed here from the edge
list, independently of the package under test.
"""
from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("dstab-odd", "dstab-bip", "ass-odd")
EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Per-draw size guards, in scan cells summed over the powers a job touches
# (see _cells).  They keep any one seeded draw to a fraction of a second,
# so the fixed corpus sets the run time whatever the seed.
DRAWS = {"dstab-odd": 8, "dstab-bip": 8, "ass-odd": 4}
ODD_CELL_CAP = 20_000
BIP_CELL_CAP = 300_000
ASS_CELL_CAP = 5_000


def cycle(n: int, off: int = 0) -> list[tuple[int, int]]:
    return [(i + off, i % n + 1 + off) for i in range(1, n + 1)]


def path(n: int, off: int = 0) -> list[tuple[int, int]]:
    return [(i + off, i + 1 + off) for i in range(1, n)]


DSTAB_ODD = {
    "C3": cycle(3),
    "C5": cycle(5),
    "C3+C4": cycle(3) + cycle(4, 3),
    "C3+tail3": cycle(3) + [(3, 4), (4, 5), (5, 6)],
    "C3+tail2x2": cycle(3) + [(1, 4), (4, 5), (2, 6), (6, 7)],
    "C5+tail2": cycle(5) + [(5, 6), (6, 7)],
    "C7": cycle(7),
    "C5+leaf": cycle(5) + [(5, 6)],
    "C5+2leaves": cycle(5) + [(1, 6), (3, 7)],
    "C3+C3": cycle(3) + cycle(3, 3),
    "K4": [(i, j) for i in range(1, 5) for j in range(i + 1, 5)],
    "bowtie": cycle(3) + [(3, 4), (4, 5), (5, 3)],
    "C5+chord": cycle(5) + [(1, 3)],
}

DSTAB_BIP = {
    "C4": cycle(4),
    "C6": cycle(6),
    "P4": path(4),
    "P5": path(5),
    "K13": [(1, 2), (1, 3), (1, 4)],
    "P4+P4": path(4) + path(4, 4),
    "P7": path(7),
    "C6+leaf": cycle(6) + [(6, 7)],
    "C8": cycle(8),
    "C6+2leaves": cycle(6) + [(1, 7), (4, 8)],
    "P4+P5": path(4) + path(5, 4),
    "caterpillar8": path(5) + [(2, 6), (3, 7), (4, 8)],
    # Four-cycle remark cases: dstab_formula itself calls the oracle.
    "C4+leaf": cycle(4) + [(4, 5)],
    "C4+2oppleaves": cycle(4) + [(1, 5), (3, 6)],
}

# ass at every power 1..dstab, default method (cover walk plus colon scan).
ASS_LOW = {
    "C5+2leaves": DSTAB_ODD["C5+2leaves"],
    "C3+tail3": DSTAB_ODD["C3+tail3"],
    "C5+leaf": DSTAB_ODD["C5+leaf"],
    "C7": DSTAB_ODD["C7"],
    "C5+tail2": DSTAB_ODD["C5+tail2"],
}

# ass --method formula at one high power on r = 10 graphs.
ASS_HIGH = {
    "C3+3tails": (cycle(3) + [(1, 4), (4, 5), (5, 6), (2, 7), (7, 8), (3, 9), (9, 10)], 12),
    "C5+spider": (cycle(5) + [(1, 6), (6, 7), (1, 8), (8, 9), (1, 10)], 12),
    "C9+leaf": (cycle(9) + [(9, 10)], 13),
}


# ---------------------------------------------------------------------------
# Independent graph helpers (edge list in, plain Python out).


def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def components(edges) -> list[tuple[list[int], bool]]:
    """(sorted vertices, is bipartite) per connected component."""
    adj = _adjacency(edges)
    color: dict[int, int] = {}
    out = []
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        stack, comp, bip = [start], [start], True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = color[v] ^ 1
                    comp.append(w)
                    stack.append(w)
                elif color[w] == color[v]:
                    bip = False
        out.append((sorted(comp), bip))
    return out


def _cycle_lengths(adj: dict[int, set[int]], verts: list[int]) -> set[int]:
    lengths: set[int] = set()

    def dfs(start: int, v: int, depth: int, seen: set[int]) -> None:
        for w in adj[v]:
            if w == start and depth >= 3:
                lengths.add(depth)
            elif w > start and w not in seen:
                seen.add(w)
                dfs(start, w, depth + 1, seen)
                seen.discard(w)

    for s in verts:
        dfs(s, s, 1, {s})
    return lengths


def leaf_edge_count(edges) -> int:
    adj = _adjacency(edges)
    return sum(1 for u, v in edges if len(adj[u]) == 1 or len(adj[v]) == 1)


def mt_bound(edges) -> int:
    """v - e0 - sum(k_i) + 1: 2k_i is the largest even cycle of a bipartite
    component (k_i = 1 for a tree), 2k_i - 1 the largest odd cycle of a
    nonbipartite one."""
    adj = _adjacency(edges)
    k_sum = 0
    for verts, bip in components(edges):
        lengths = _cycle_lengths(adj, verts)
        if bip:
            k_sum += max(lengths) // 2 if lengths else 1
        else:
            k_sum += (max(n for n in lengths if n % 2) + 1) // 2
    return len(adj) - leaf_edge_count(edges) - k_sum + 1


def minimal_vertex_covers(edges) -> set[tuple[int, ...]]:
    verts = sorted(_adjacency(edges))
    covers = [
        frozenset(s)
        for k in range(len(verts) + 1)
        for s in itertools.combinations(verts, k)
        if all(u in s or v in s for u, v in edges)
    ]
    return {tuple(sorted(c)) for c in covers if not any(d < c for d in covers)}


def odd_unicyclic_dstab(edges) -> int:
    """v - e0 - k + 1 for a connected unicyclic graph with cycle 2k - 1."""
    adj = _adjacency(edges)
    (odd,) = _cycle_lengths(adj, sorted(adj))
    return len(adj) - leaf_edge_count(edges) - (odd + 1) // 2 + 1


def _cells(r: int, top_power: int) -> int:
    """Scan-box cells summed over powers 1..top_power: the local-cohomology
    scan and the colon scan of I^n both cover (n + 1)^r degrees."""
    return sum((n + 1) ** r for n in range(1, top_power + 1))


# ---------------------------------------------------------------------------
# Seeded draws.


def _random_graph(rng: random.Random, r: int) -> list[tuple[int, int]]:
    """Random graph on r labelled vertices with every vertex on an edge."""
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    while True:
        edges = sorted(rng.sample(pairs, rng.randint(r - 1, min(len(pairs), r + 2))))
        if {v for e in edges for v in e} == set(range(1, r + 1)):
            return edges


def _draw_odd(rng: random.Random) -> list[tuple[int, int]]:
    while True:
        r = rng.choice((4, 5, 5, 6, 6))
        edges = _random_graph(rng, r)
        if all(bip for _, bip in components(edges)):
            continue
        if _cells(r, mt_bound(edges)) <= ODD_CELL_CAP:
            return edges


def _draw_bip(rng: random.Random) -> list[tuple[int, int]]:
    while True:
        r = rng.choice((4, 5, 6, 6, 7, 7))
        edges = _random_graph(rng, r)
        if not all(bip for _, bip in components(edges)):
            continue
        if _cells(r, mt_bound(edges)) <= BIP_CELL_CAP:
            return edges


def _draw_odd_unicyclic(rng: random.Random) -> list[tuple[int, int]]:
    while True:
        length = rng.choice((3, 5, 7))
        r = rng.randint(max(length, 5), 7)
        edges = cycle(length)
        for v in range(length + 1, r + 1):
            edges.append((rng.randint(1, v - 1), v))
        if _cells(r, odd_unicyclic_dstab(edges)) <= ASS_CELL_CAP:
            return sorted(edges)


# ---------------------------------------------------------------------------
# Job lists.


def _write_graph(workdir: Path, name: str, edges) -> str:
    p = workdir / f"{name}.txt"
    p.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    return str(p)


def build_jobs(workload: str, seed: int, workdir: Path, expected: dict) -> list[dict]:
    """Jobs in run order.  Each job has an id, the CLI argv, and what its
    output is checked against."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[dict] = []

    def dstab_job(name, edges, want):
        jobs.append(
            {
                "id": name,
                "argv": ["--format", "json", "dstab", _write_graph(workdir, name, edges)],
                "check": {"kind": "dstab", "edges": edges, "dstab": want},
            }
        )

    def ass_job(name, edges, n, want, method=None):
        argv = ["--format", "json", "ass", _write_graph(workdir, name, edges), "--power", str(n)]
        if method:
            argv += ["--method", method]
        jobs.append(
            {
                "id": f"{name}@{n}",
                "argv": argv,
                "check": {"kind": "ass", "edges": edges, "power": n, "primes": want},
            }
        )

    if workload in ("dstab-odd", "dstab-bip"):
        named, draw = (
            (DSTAB_ODD, _draw_odd) if workload == "dstab-odd" else (DSTAB_BIP, _draw_bip)
        )
        for name, edges in named.items():
            dstab_job(name, edges, expected["dstab"][name])
        for i in range(DRAWS[workload]):
            dstab_job(f"draw{i}", draw(rng), None)
    else:
        for name, edges in ASS_LOW.items():
            for n in range(1, expected["dstab"][name] + 1):
                ass_job(name, edges, n, expected["ass"][f"{name}@{n}"])
        for name, (edges, n) in ASS_HIGH.items():
            ass_job(name, edges, n, expected["ass"][f"{name}@{n}"], method="formula")
        for i in range(DRAWS[workload]):
            edges = _draw_odd_unicyclic(rng)
            for n in range(1, odd_unicyclic_dstab(edges) + 1):
                ass_job(f"draw{i}", edges, n, None)
    return jobs


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Answer checks.  Each returns a list of problems; empty means correct.


def _check_dstab(check: dict, out: dict) -> list[str]:
    edges = [tuple(e) for e in check["edges"]]
    bad = []
    oracle = out.get("oracle")
    formula = out.get("formula", {})
    if out.get("match") is not True:
        bad.append(f"match is {out.get('match')!r}")
    want_s = sum(1 for _, bip in components(edges) if bip)
    if formula.get("limit_depth") != want_s:
        bad.append(f"limit_depth {formula.get('limit_depth')} != {want_s}")
    bound = mt_bound(edges)
    if formula.get("mt_bound") != bound:
        bad.append(f"mt_bound {formula.get('mt_bound')} != {bound}")
    if not isinstance(oracle, int) or not 1 <= oracle <= bound:
        bad.append(f"oracle {oracle!r} outside 1..{bound}")
    if check["dstab"] is not None:
        if oracle != check["dstab"]:
            bad.append(f"oracle {oracle} != expected {check['dstab']}")
        if formula.get("exact") and formula.get("value") != check["dstab"]:
            bad.append(f"exact formula {formula.get('value')} != expected {check['dstab']}")
    return bad


def _check_ass(check: dict, out: dict) -> list[str]:
    edges = [tuple(e) for e in check["edges"]]
    n = check["power"]
    bad = []
    lists = [out[k] for k in ("formula", "bruteforce") if k in out]
    if not lists:
        return ["no prime list in output"]
    if len(lists) == 2 and out.get("match") is not True:
        bad.append(f"match is {out.get('match')!r}")
    primes = {tuple(p) for p in lists[0]}
    if any({tuple(p) for p in other} != primes for other in lists[1:]):
        bad.append("formula and bruteforce lists differ")
    if check["primes"] is not None and sorted(primes) != sorted(tuple(p) for p in check["primes"]):
        bad.append("prime list differs from the expected one")
    covers = minimal_vertex_covers(edges)
    if not covers <= primes:
        bad.append(f"missing minimal covers {sorted(covers - primes)}")
    if any(not all(u in p or v in p for u, v in edges) for p in primes):
        bad.append("a listed prime is not a vertex cover")
    # Edge ideals have the persistence property, so the maximal ideal is
    # associated exactly from n = dstab on.
    whole = tuple(sorted(_adjacency(edges)))
    if (whole in primes) != (n >= odd_unicyclic_dstab(edges)):
        bad.append(f"maximal ideal present={whole in primes} at n={n}")
    return bad


def check_job(job: dict, rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    kind = job["check"]["kind"]
    return _check_dstab(job["check"], out) if kind == "dstab" else _check_ass(job["check"], out)
