"""Weighted extension (Appendix C.2): Dijkstra-based labeling and updates.

"For weighted graphs, the labels store the sum of weights along the
shortest paths instead of the number of hops."  Only what a label stores
changes, so the weighted backend keeps its labels in the undirected
:class:`repro.core.index.SPCIndex`; this package holds the Dijkstra-based
builder and the maintenance algorithms, including weight updates.  Open
an engine over a :class:`repro.graph.WeightedGraph` with ``repro.open``.

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
