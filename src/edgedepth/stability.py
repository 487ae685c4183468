"""Index of depth stability of powers of edge ideals.

dstab(I(G)) is the least n0 with depth R/I(G)^n constant for n >= n0; the
limit depth is the number of bipartite connected components.  With b the
bound term of a connected graph (graphs.component_bound), the closed forms:

  * tree, or unicyclic without a 4-cycle: b;
  * unicyclic with a 4-cycle: 1 for the 4-cycle itself, b - 1 when the
    cycle has two adjacent vertices of degree 2, else b;
  * disjoint unions: sum of the component values minus (number of
    components) plus 1.

Every graph obeys the bound dstab <= v - e0 - sum(k_i) + 1, the union rule
applied to the components' b (mt_bound), where 2k_i is the largest even
cycle length of a bipartite component (k_i = 1 for trees) and 2k_i - 1 the
largest odd cycle length of a nonbipartite one (graphs.component_k).

dstab_formula is the one place that gives these values: it reads each
component's cycle_profile and bound term, and names its case in a note
(tree, odd-cycle, even-cycle, four-cycle-pure, four-cycle-adjacent-deg2,
four-cycle-remark, or component-bound for a graph with two or more cycles).

Each connected graph also has a witness (witness): a power n and a degree
alpha whose complex shows that depth R/I^n is already the limit.  The
oracle reads one certificate stream (power_certificates), which tries the
same cell first at its power (_witness_stream) and splits a disconnected
graph by calling itself on the parts.
"""
from __future__ import annotations

import contextlib
import itertools
import sys
from dataclasses import dataclass, field as dc_field
from typing import Iterator

from .assoc import full_cover_monomial
from .depth import (
    DepthCertificate,
    depth_power,
    split_certificates,
    takayama_complex,
)
from .errors import (
    DisconnectedError,
    InternalError,
    NoFullStateError,
    TooLargeError,
    WitnessCheckFailedError,
)
from .graphs import (
    Graph,
    component_bound,
    component_k,
    cycle_profile,
    decompose,
    distances_from,
    induced_subgraph,
    is_unicyclic,
    leaf_edges,
    mu_vector,
    spanning_unicyclic_subgraph,
)
from .monomials import edge_ideal, membership, power
from .simplicial import QQ, FieldChoice, from_facets


def depth_limit(g: Graph) -> int:
    """The eventual constant depth: the number of bipartite components."""
    return decompose(g).s


def mt_bound(g: Graph) -> int:
    """Global upper bound v - e0 - sum(k_i) + 1 for dstab: the components'
    bound terms composed as a disjoint union."""
    terms = [component_bound(induced_subgraph(g, comp)[0]) for comp in decompose(g).components]
    return sum(terms) - len(terms) + 1


@dataclass(frozen=True)
class ComponentReport:
    vertices: tuple[int, ...]
    kind: str  # tree | unicyclic | general
    bipartite: bool
    k: int
    value: int
    exact: bool
    note: str


@dataclass(frozen=True)
class DstabReport:
    value: int
    exact: bool
    mt_bound: int
    limit_depth: int
    components: tuple[ComponentReport, ...]
    warnings: tuple[str, ...] = dc_field(default=())


def dstab_formula(
    g: Graph, field: FieldChoice = QQ, *, _oracle: int | None = None
) -> DstabReport:
    """Closed-form dstab; exact for graphs whose components are all trees
    or unicyclic, otherwise an upper bound (exact=False).

    Each component's value is its bound term, with the 4-cycle corrections
    for a unicyclic one, and its note names the case.  The 4-cycle cases
    rest on a case analysis rather than a closed formula with a standalone
    proof, so each but the 4-cycle itself is cross-validated against the
    depth oracle over field; a mismatch, or a component too large for the
    oracle, downgrades the report to exact=False instead of failing.
    _oracle is dstab_oracle(g, field) when the caller has already run it
    (the CLI's dstab --method both); a connected g reads it in place of a
    second oracle run.
    """
    dec = decompose(g)
    reports = []
    warnings: list[str] = []
    for comp, bipart in zip(dec.components, dec.bipartitions):
        sub, _ = induced_subgraph(g, comp)
        prof, value = cycle_profile(sub), component_bound(sub)
        cycle = prof.unique_cycle
        if prof.kind != "unicyclic":
            note = "tree" if prof.kind == "tree" else "component-bound"
        elif len(cycle) % 2 == 1:
            note = "odd-cycle"
        elif len(cycle) > 4:
            note = "even-cycle"
        elif sub.r == 4:
            value, note = 1, "four-cycle-pure"
        elif any(sub.degree(u) == 2 == sub.degree(v) for u, v in zip(cycle, cycle[1:] + cycle[:1])):
            value, note = value - 1, "four-cycle-adjacent-deg2"
        else:
            note = "four-cycle-remark"
        exact = prof.kind != "general"
        if note.startswith("four-cycle") and note != "four-cycle-pure":
            try:
                if dec.p == 1 and _oracle is not None:  # sub is g itself
                    oracle = _oracle
                else:
                    oracle = dstab_oracle(sub, field=field)
                problem = "" if oracle == value else f"disagrees with oracle {oracle}"
            except TooLargeError as exc:
                problem = f"unverified ({exc})"
            if problem:
                warnings.append(f"component {comp}: four-cycle case value {value} {problem}")
                exact = False
        bipartite = bipart is not None
        reports.append(
            ComponentReport(comp, prof.kind, bipartite, component_k(sub), value, exact, note)
        )
    return DstabReport(
        value=sum(rep.value for rep in reports) - len(reports) + 1,
        exact=all(rep.exact for rep in reports),
        mt_bound=mt_bound(g),
        limit_depth=dec.s,
        components=tuple(reports),
        warnings=tuple(warnings),
    )


def _witness(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The paper's witness (n, alpha) of a connected g, unchecked (see
    witness); the one place where g's class picks its witness.

    A nonbipartite g gets the exponent of a monomial f with (I^n : f) = m,
    of index 0 (D = {emptyset}): the cover walk's full cover on the spanning
    unicyclic subgraph H that keeps g's least longest odd cycle (g itself
    when g is unicyclic).  Since I(H) is inside I(g), a witness for H is
    one for g.
    A bipartite unicyclic g gets the peeled alpha at component_bound(g), and
    any other bipartite g gets mu(g) at e - e0 + 1, which is
    component_bound(g) for a tree; both are of index 1 (D = <X, Y>)."""
    if decompose(g).t:
        return full_cover_monomial(spanning_unicyclic_subgraph(g))
    if is_unicyclic(g):
        return component_bound(g), _prop_alpha_unicyclic(g, cycle_profile(g).unique_cycle)
    return g.num_edges - leaf_edges(g) + 1, mu_vector(g)


def _witness_stream(g: Graph, field: FieldChoice) -> Iterator[DepthCertificate]:
    """depth_power of a connected g at n = 1, 2, ..., with g's witness
    cell (_witness) tried first at its power: there the cell's index is
    the scan's floor, which is then the limit depth.  The scan checks the
    cell, so a wrong cell, or a walk that reaches no full cover, only costs
    the hint.  No witness power is below g's k, so the cell is built at
    power k, and a graph whose depth settles earlier (K_r does at n = 2)
    never pays for the construction."""
    k = component_k(g)
    hint: tuple[int, tuple[int, ...]] = (0, ())
    for n in itertools.count(1):
        if n == k:
            with contextlib.suppress(NoFullStateError):
                hint = _witness(g)
        yield depth_power(g, n, field=field, hints=[hint[1]] if n == hint[0] else ())


def power_certificates(
    g: Graph, field: FieldChoice = QQ, trace: bool = False
) -> Iterator[DepthCertificate]:
    """The certificates of depth R/I(g)^n for n = 1, 2, ..., lazily.

    A connected g tries its witness cell first at its power
    (_witness_stream).  A disconnected g is split into its first component
    and the rest, as induced_subgraph relabels them, each with an untraced
    stream of its own from this function (depth.split_certificates; the
    rest is split in turn).  trace prints one line per power of g to
    stderr."""
    comps = decompose(g).components
    if len(comps) == 1:
        certs = _witness_stream(g, field)
    else:
        a, a_labels = induced_subgraph(g, comps[0])
        b, b_labels = induced_subgraph(g, [v for c in comps[1:] for v in c])
        certs = split_certificates(
            g, power_certificates(a, field), a_labels, power_certificates(b, field), b_labels, field
        )
    for n, cert in enumerate(certs, 1):
        if trace:
            print(
                f"power {n}: depth={cert.depth} witness={cert.witness_alpha} "
                f"hint_hit={cert.hint_hit} cells_scanned={cert.cells_scanned}",
                file=sys.stderr,
            )
        yield cert


def depth_sequence(
    g: Graph, n_max: int, field: FieldChoice = QQ, trace: bool = False
) -> list[int]:
    """depth R/I(g)^n for n = 1 .. n_max, from power_certificates."""
    certs = power_certificates(g, field=field, trace=trace)
    return [cert.depth for cert in itertools.islice(certs, n_max)]


def dstab_oracle(g: Graph, field: FieldChoice = QQ, trace: bool = False) -> int:
    """The first n <= mt_bound(g) with depth R/I(g)^n at the limit depth,
    by direct computation (power_certificates).  trace prints each power's
    certificate to stderr.  Raises InternalError past the bound."""
    s = depth_limit(g)
    bound = mt_bound(g)
    certs = power_certificates(g, field=field, trace=trace)
    for n, cert in zip(range(1, bound + 1), certs):
        if cert.depth == s:
            return n
    raise InternalError(
        f"depth did not reach the limit {s} within the bound {bound}"
    )


def witness(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(n, alpha) with depth R/I(g)^n at the limit depth for a connected g,
    from _witness and checked against the definition.

    A nonbipartite g: x^alpha lies outside I^n and x_i x^alpha inside it for
    every i, so (I^n : x^alpha) = m and the depth is 0.  A bipartite g with
    sides X and Y: D_alpha(I^n) = <X, Y> (takayama_complex) and alpha weighs
    n - 1 outside each side, so the depth is 1.  Raises DisconnectedError
    on a disconnected g and WitnessCheckFailedError when a check fails."""
    dec = decompose(g)
    if dec.p != 1:
        raise DisconnectedError("witness needs a connected graph")
    n, alpha = _witness(g)
    ideal = power(edge_ideal(g), n)
    if dec.t:
        inside, bumped = membership(ideal, [alpha])
        if inside[0] or not bumped.all():
            raise WitnessCheckFailedError(f"(I^{n} : x^{alpha}) is not the maximal ideal")
        return n, alpha
    sides = dec.bipartitions[0]
    got = takayama_complex(ideal, alpha).facets
    want = from_facets(g.vertices, sides).facets
    weights = [sum(alpha) - sum(alpha[v - 1] for v in side) for side in sides]
    if got != want or weights != [n - 1, n - 1]:
        raise WitnessCheckFailedError(
            f"D_alpha has facets {got} and weights {weights} outside the sides, "
            f"expected {want} and n - 1 = {n - 1} (alpha={alpha}, n={n})"
        )
    return n, alpha


def _prop_alpha_unicyclic(g: Graph, cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Witness multidegree for a connected bipartite unicyclic graph: weight
    1 on the cycle and 0 elsewhere, then the leaves are peeled down to the
    cycle, the farthest first (least label on ties).

    Removing a leaf keeps the witness when its support vertex keeps other
    leaves or sits on the cycle; when the support vertex itself turns into
    a leaf, its weight and its remaining neighbor's weight go up by one.
    A peeled vertex keeps the weight it has then, since no later step can
    reach it.
    """
    dist = distances_from(g, cycle)
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    weights = [int(dist[v] == 0) for v in g.vertices]
    leaves = {v for v, nb in adj.items() if len(nb) == 1}
    while leaves:
        v = min(leaves, key=lambda w: (-dist[w], w))
        leaves.remove(v)
        (t,) = adj.pop(v)
        adj[t].remove(v)
        if len(adj[t]) == 1:  # so t is off the cycle and v was its only leaf
            (w,) = adj[t]
            weights[t - 1] += 1
            weights[w - 1] += 1
            leaves.add(t)
    return tuple(weights)
