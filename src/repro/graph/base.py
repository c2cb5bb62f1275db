"""Shared helpers for the graph substrates.

The graph classes in this package are intentionally small and explicit: they
are the mutable substrate underneath the SPC-Index, so the operations the
paper's update algorithms rely on (neighbor iteration, degree lookup, edge
insertion/deletion) must be obvious and cheap.
"""

from repro.exceptions import SelfLoop


def normalize_edge(u, v):
    """Return the canonical (min, max) form of an undirected edge.

    Canonicalizing lets sets of undirected edges be compared and hashed
    without worrying about endpoint order: ``(u, v) == (v, u)``.
    """
    return (u, v) if u <= v else (v, u)


def check_endpoints_distinct(u, v):
    """Raise :class:`SelfLoop` if ``u == v`` (the paper's graphs are simple)."""
    if u == v:
        raise SelfLoop(u)


def degree_histogram(degrees):
    """Return a dict mapping degree -> number of vertices with that degree."""
    histogram = {}
    for d in degrees:
        histogram[d] = histogram.get(d, 0) + 1
    return histogram
