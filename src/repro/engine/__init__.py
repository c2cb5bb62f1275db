"""repro.engine — the unified, backend-agnostic SPC serving engine.

One facade for every graph family::

    import repro

    engine = repro.open(graph)            # Graph | DiGraph | WeightedGraph
    engine.query(s, t)                    # cached (sd, spc)
    engine.query_many(pairs)              # batch serving
    engine.insert_edge(u, v)              # IncSPC + cache invalidation
    engine.apply_batch(updates)           # net-effect coalescing

See DESIGN.md §7 for the architecture.
"""

from repro.engine.backends import (
    SPCBackend,
    available_backends,
    backend_for_graph,
    get_backend,
    register_backend,
)
from repro.engine.cache import QueryCache
from repro.engine.config import EngineConfig
from repro.engine.engine import SPCEngine, baseline_answer
from repro.engine.engine import open as open_engine

# Importing the adapters registers the three built-in backends.
from repro.engine import adapters as _adapters  # noqa: F401  isort: skip

__all__ = [
    "SPCEngine",
    "EngineConfig",
    "SPCBackend",
    "QueryCache",
    "baseline_answer",
    "open_engine",
    "register_backend",
    "get_backend",
    "backend_for_graph",
    "available_backends",
]
