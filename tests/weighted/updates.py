"""Weighted updates (Appendix C.2) as calls to core's drivers.

An insertion or a weight decrease is IncSPC, a weight increase DecSPC; the
``mutate`` argument carries the weighted graph change, as in the weighted
backend's ``insert_edge`` and ``set_weight``.  A deletion is ``dec_spc``
itself.
"""

from repro.core import dec_spc, inc_spc


def inc_spc_weighted(graph, index, a, b, weight):
    """Insert edge (a, b) of length ``weight`` and repair ``index``."""
    return inc_spc(graph, index, a, b,
                   mutate=lambda: graph.add_edge(a, b, weight))


def decrease_weight(graph, index, a, b, weight):
    """Lower the weight of edge (a, b) to ``weight`` and repair ``index``."""
    return inc_spc(graph, index, a, b,
                   mutate=lambda: graph.set_weight(a, b, weight))


def increase_weight(graph, index, a, b, weight):
    """Raise the weight of edge (a, b) to ``weight`` and repair ``index``."""
    return dec_spc(graph, index, a, b,
                   mutate=lambda: graph.set_weight(a, b, weight))
