"""Weighted HP-SPC construction (Appendix C.2).

"Dijkstra's algorithm replaces BFS for index construction, and a priority
queue is used instead of a FIFO queue."  The builder is core's: on a
:class:`repro.graph.WeightedGraph`, :func:`repro.core.builder.hub_push`
drains distance buckets over the edge lengths, with the same pruning probe
and rank restriction.
"""

from repro.core.builder import build_spc_index as build_weighted_spc_index

__all__ = ["build_weighted_spc_index"]
