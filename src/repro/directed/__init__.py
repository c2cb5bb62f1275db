"""Directed extension (Appendix C.1): the public entry points.

A directed index keeps two label sets per vertex: ``L_in(v)`` describes
the shortest paths h → v, ``L_out(v)`` the paths v → h, and a query
SPC(s, t) merges L_out(s) against L_in(t).  The maintenance is the
undirected algorithm over both sides: for IncSPC "the affected hubs can be
replaced by the hubs from L_in(a) ∪ L_out(b)".  All of it lives in
``repro.core``: :class:`DirectedSPCIndex` is the two-sided
:class:`repro.core.index.SPCIndex`, and core's builder and IncSPC/DecSPC
drivers step along successors and predecessors of a
:class:`repro.graph.DiGraph` (DESIGN.md §4).  This package keeps only the
directed entry points.  Open an engine over a ``DiGraph`` with
``repro.open``.
"""

from repro.core.builder import build_spc_index as build_directed_spc_index
from repro.core.decremental import dec_spc
from repro.core.incremental import inc_spc as inc_spc_directed
from repro.core.index import DirectedSPCIndex


def dec_spc_directed(graph, index, a, b, stats=None):
    """Delete arc a -> b from ``graph`` and repair ``index`` (core's DecSPC).

    The §3.2.3 isolated-vertex fast path is never taken on a directed
    graph (DESIGN.md §4).
    """
    return dec_spc(graph, index, a, b, stats, use_isolated_fast_path=False)


__all__ = [
    "DirectedSPCIndex",
    "build_directed_spc_index",
    "inc_spc_directed",
    "dec_spc_directed",
]
