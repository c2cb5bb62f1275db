"""repro — a reproduction of *DSPC: Efficiently Answering Shortest Path
Counting on Dynamic Graphs* (EDBT 2024).

Public API quickstart::

    import repro

    g = repro.Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2)])
    engine = repro.open(g)          # backend auto-selected from graph type
    engine.query(0, 2)              # -> (2, 2): distance 2, two shortest paths
    engine.query_many([(0, 2), (1, 3)])   # batch serving (cached)
    engine.insert_edge(0, 2)        # IncSPC
    engine.delete_edge(0, 1)        # DecSPC
    engine.query(0, 2)              # answers stay exact under updates

``repro.open`` works identically for :class:`DiGraph` and
:class:`WeightedGraph`; it is the one entry point for dynamic shortest
path counting on every graph family.

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.graph` — graph substrates and generators;
* :mod:`repro.core` — SPC-Index, HP-SPC builder, IncSPC / DecSPC, for
  undirected, directed (Appendix C.1) and weighted (Appendix C.2) graphs;
* :mod:`repro.engine` — the backend-agnostic serving engine (``repro.open``);
* :mod:`repro.serve` — snapshot-isolated concurrent serving + WAL durability;
* :mod:`repro.cluster` — WAL-replicated multi-replica serving + query router;
* :mod:`repro.audit` — shadow-replica differential verification + perf
  trajectory;
* :mod:`repro.resilience` — self-healing supervision, circuit breakers
  and the disk-fault chaos harness;
* :mod:`repro.sd` — distance-only PLL (SD-Index) for comparison;
* :mod:`repro.workloads`, :mod:`repro.datasets` — experiment inputs;
* :mod:`repro.bench` — the table/figure reproduction harness.
"""

from repro.core import (
    LabelSet,
    SPCIndex,
    StreamStats,
    UpdateStats,
    build_spc_index,
    dec_spc,
    inc_spc,
)
from repro.engine import (
    EngineConfig,
    SPCBackend,
    SPCEngine,
    available_backends,
    register_backend,
)
from repro.engine import open_engine as open  # noqa: A001
from repro.graph import DiGraph, Graph, WeightedGraph
from repro import serve  # noqa: F401  (repro.serve.restore & friends)
from repro import cluster  # noqa: F401  (repro.cluster.SPCCluster & friends)
from repro import audit  # noqa: F401  (repro.audit.ShadowAuditor & friends)
from repro import shard  # noqa: F401  (repro.shard.ShardedCluster & friends)
from repro import resilience  # noqa: F401  (repro.resilience.Supervisor &c.)
from repro import replay  # noqa: F401  (repro.replay.run_replay_scenario &c.)
from repro.order import VertexOrder, degree_order, make_order
from repro.traversal import bfs_counting_pair, bfs_counting_sssp, bibfs_counting
from repro.verify import check_invariants, indexes_equivalent, verify_espc

__version__ = "1.1.0"

__all__ = [
    "Graph",
    "DiGraph",
    "WeightedGraph",
    "open",
    "serve",
    "cluster",
    "audit",
    "shard",
    "resilience",
    "SPCEngine",
    "EngineConfig",
    "SPCBackend",
    "register_backend",
    "available_backends",
    "SPCIndex",
    "LabelSet",
    "build_spc_index",
    "inc_spc",
    "dec_spc",
    "UpdateStats",
    "StreamStats",
    "VertexOrder",
    "degree_order",
    "make_order",
    "bfs_counting_sssp",
    "bfs_counting_pair",
    "bibfs_counting",
    "verify_espc",
    "check_invariants",
    "indexes_equivalent",
    "__version__",
]
