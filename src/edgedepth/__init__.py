"""Depth stability of powers of edge ideals of finite simple graphs."""

from .graphs import Graph, build_graph, decompose, parse_graph, read_graph_file
from .monomials import MonomialIdeal, edge_ideal, power
from .simplicial import FieldChoice, SimplicialComplex, from_facets, reduced_homology_dims
from .depth import (
    DepthCertificate,
    betti_depth_crosscheck,
    depth_bruteforce,
    depth_power,
    takayama_complex,
)
from .stability import (
    DstabReport,
    depth_limit,
    depth_sequence,
    dstab_formula,
    dstab_oracle,
    mt_bound,
    witness,
)
from .assoc import ass_formula, cover_states

__all__ = [
    "Graph",
    "build_graph",
    "decompose",
    "parse_graph",
    "read_graph_file",
    "MonomialIdeal",
    "edge_ideal",
    "power",
    "FieldChoice",
    "SimplicialComplex",
    "from_facets",
    "reduced_homology_dims",
    "DepthCertificate",
    "betti_depth_crosscheck",
    "depth_bruteforce",
    "depth_power",
    "depth_sequence",
    "takayama_complex",
    "DstabReport",
    "depth_limit",
    "dstab_formula",
    "dstab_oracle",
    "mt_bound",
    "witness",
    "ass_formula",
    "cover_states",
]

__version__ = "0.1.0"
