"""Distributed graph data structure (Section II-B)."""

from .edges import Edges
from .dist_graph import DistGraph, KEY_SENTINEL
from .search import home_pe_of_edges, home_pe_of_vertices, lex_searchsorted

__all__ = [
    "Edges",
    "DistGraph",
    "KEY_SENTINEL",
    "home_pe_of_edges",
    "home_pe_of_vertices",
    "lex_searchsorted",
]
