"""Dominating clique minors toolkit.

Exact verification and search for dominating K_t minors, a constructive
extractor that produces a dominating K_chi(G) minor from any 2K2-free graph,
deterministic generators, and a corpus scanner hunting counterexamples to the
Dominating Hadwiger's Conjecture.
"""

from .exact import (
    chromatic_number,
    clique_number,
    dominating_hadwiger_number,
    has_dominating_kt,
    has_kt_minor,
    independence_number,
    verify_dominating_model,
    verify_ordinary_model,
)
from .extraction import (
    Not2K2FreeError,
    Trace,
    extract_dominating,
    extract_ordinary_minor,
)
from .graphs import Graph, complement, emit_graph6, from_edge_list, induced_subgraph, parse_graph6
from .patterns import find_2k2, find_banner, find_induced, is_2k2_free

__all__ = [
    "Graph",
    "from_edge_list",
    "parse_graph6",
    "emit_graph6",
    "complement",
    "induced_subgraph",
    "chromatic_number",
    "clique_number",
    "independence_number",
    "verify_dominating_model",
    "verify_ordinary_model",
    "has_dominating_kt",
    "has_kt_minor",
    "dominating_hadwiger_number",
    "find_induced",
    "find_2k2",
    "find_banner",
    "is_2k2_free",
    "extract_dominating",
    "extract_ordinary_minor",
    "Trace",
    "Not2K2FreeError",
]
__version__ = "0.1.0"
