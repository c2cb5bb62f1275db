"""Weighted extension (Appendix C.2): the public entry points.

"For weighted graphs, the labels store the sum of weights along the
shortest paths instead of the number of hops", and "the main difference ...
is the use of a Dijkstra-like search".  Both live in ``repro.core``: the
weighted index is the undirected :class:`repro.core.index.SPCIndex`, and
core's builder and IncSPC/DecSPC drivers and kernels read the edge lengths
of a :class:`repro.graph.WeightedGraph` (DESIGN.md §4).  This package keeps
only the weighted entry points and their weight checks: an insertion or
weight decrease is IncSPC with the new weight, a deletion or weight
increase DecSPC with the old one.  Open an engine over a ``WeightedGraph``
with ``repro.open``.

Note on float weights: shortest-path *counting* relies on exact distance
ties; floating-point sums make ties numerically fragile.  Use integer (or
rational) weights when exact counts matter — the tests and benchmarks do.
"""

from repro.weighted.builder import build_weighted_spc_index
from repro.weighted.decremental import dec_spc_weighted, increase_weight
from repro.weighted.incremental import decrease_weight, inc_spc_weighted

__all__ = [
    "build_weighted_spc_index",
    "inc_spc_weighted",
    "dec_spc_weighted",
    "decrease_weight",
    "increase_weight",
]
