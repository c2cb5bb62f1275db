"""Traversal engines: BFS / bidirectional-BFS / Dijkstra counting."""

from repro.graph.directed import DiGraph
from repro.graph.weighted import WeightedGraph

from repro.traversal.bfs import (
    INF,
    all_pairs_counting,
    bfs_counting_pair,
    bfs_counting_sssp,
    bfs_distance_sssp,
    directed_bfs_counting_pair,
    directed_bfs_counting_sssp,
    restricted_bfs_counting,
)
from repro.traversal.bibfs import bibfs_counting
from repro.traversal.dijkstra import dijkstra_counting_pair, dijkstra_counting_sssp


def ground_truth(graph):
    """The reference counting searches for ``graph``'s family.

    Returns (counting SSSP, counting pair search, exhaustive threshold):
    Dijkstra for a :class:`WeightedGraph`, directed BFS for a
    :class:`DiGraph` (pairs are s → t), BFS otherwise.  A Dijkstra source
    costs more than a BFS one, so :func:`repro.verify.verify_espc` checks
    every pair of a weighted graph only up to a smaller vertex count.
    """
    if isinstance(graph, WeightedGraph):
        return dijkstra_counting_sssp, dijkstra_counting_pair, 200
    if isinstance(graph, DiGraph):
        return directed_bfs_counting_sssp, directed_bfs_counting_pair, 300
    return bfs_counting_sssp, bfs_counting_pair, 400


__all__ = [
    "INF",
    "ground_truth",
    "bfs_distance_sssp",
    "bfs_counting_sssp",
    "bfs_counting_pair",
    "all_pairs_counting",
    "restricted_bfs_counting",
    "directed_bfs_counting_pair",
    "directed_bfs_counting_sssp",
    "bibfs_counting",
    "dijkstra_counting_sssp",
    "dijkstra_counting_pair",
]
