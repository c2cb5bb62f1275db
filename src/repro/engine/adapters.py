"""The built-in backends: core (undirected), directed, weighted, sd.

Each adapter is a thin, stateful wrapper over the corresponding function
stack (``repro.core`` / ``repro.directed`` / ``repro.weighted`` /
``repro.sd``) — no algorithmic logic lives here.  What the adapters buy is
*uniformity*: the engine drives every family through the same five verbs
(build / inc / dec / query / verify), which is what makes rebuild policies,
streaming stats and batch coalescing graph-type-agnostic instead of
core-only.

The ``sd`` backend is never auto-selected (core wins the ``Graph`` match);
request it explicitly — ``repro.open(g, backend="sd")`` — to serve
distance-only traffic from the lighter SD-Index.  Its queries answer
``(sd, None)``: exact distances, no counts.
"""

from repro.core.builder import build_spc_index
from repro.core.decremental import dec_spc
from repro.core.incremental import inc_spc
from repro.core.index import SPCIndex
from repro.core.stats import UpdateStats
from repro.directed.builder import build_directed_spc_index
from repro.directed.decremental import dec_spc_directed
from repro.directed.incremental import inc_spc_directed
from repro.directed.index import DirectedSPCIndex
from repro.engine.backends import SPCBackend, register_backend
from repro.exceptions import EngineError
from repro.graph.directed import DiGraph
from repro.graph.undirected import Graph
from repro.graph.weighted import WeightedGraph
from repro.weighted.builder import build_weighted_spc_index
from repro.weighted.decremental import dec_spc_weighted, increase_weight
from repro.weighted.incremental import decrease_weight, inc_spc_weighted


@register_backend
class CoreBackend(SPCBackend):
    """Undirected, unweighted SPC over :class:`repro.graph.Graph` (§3)."""

    name = "core"
    graph_type = Graph
    index_type = SPCIndex

    def build_index(self):
        return build_spc_index(self.graph, strategy=self.config.strategy)

    def insert_edge(self, a, b, weight=None):
        self.check_weight(weight)
        return inc_spc(self.graph, self.index, a, b)

    def delete_edge(self, a, b):
        return dec_spc(
            self.graph, self.index, a, b,
            use_isolated_fast_path=self.config.use_isolated_fast_path,
        )


@register_backend
class DirectedBackend(SPCBackend):
    """Directed SPC over :class:`repro.graph.DiGraph` (Appendix C.1)."""

    name = "directed"
    graph_type = DiGraph
    index_type = DirectedSPCIndex
    directed = True

    def build_index(self):
        return build_directed_spc_index(self.graph, strategy=self.config.strategy)

    def insert_edge(self, a, b, weight=None):
        self.check_weight(weight)
        return inc_spc_directed(self.graph, self.index, a, b)

    def delete_edge(self, a, b):
        return dec_spc_directed(self.graph, self.index, a, b)

    def initial_edges(self, v, edges, in_edges=()):
        # ``edges`` are out-arcs v -> u; ``in_edges`` are in-arcs u -> v.
        return [(v, u, None) for u in edges] + [(u, v, None) for u in in_edges]

    def incident_edges(self, v):
        return [(v, w) for w in self.graph.successors(v)] + [
            (u, v) for u in self.graph.predecessors(v)
        ]

    def label_payload(self, v):
        # Both families travel together: the shard query path needs
        # L_out(s) and L_in(t) of the *same* vertex state.
        if v not in self.index:
            return None
        return {
            "in": [[h, d, c] for h, d, c in self.index.in_label_set(v)],
            "out": [[h, d, c] for h, d, c in self.index.out_label_set(v)],
        }

    @classmethod
    def iter_label_payloads(cls, index_payload, vertex_type=int):
        out_labels = index_payload["out_labels"]
        for key, entries in index_payload["in_labels"].items():
            yield vertex_type(key), {
                "in": entries,
                "out": out_labels.get(key, []),
            }

    def check_invariants(self):
        from repro.verify import check_invariants_directed

        return check_invariants_directed(self.index)


@register_backend
class WeightedBackend(SPCBackend):
    """Weighted SPC over :class:`repro.graph.WeightedGraph` (Appendix C.2)."""

    name = "weighted"
    graph_type = WeightedGraph
    index_type = SPCIndex
    weighted = True

    def check_weight(self, weight):
        if weight is None:
            raise EngineError(
                "the weighted backend requires a weight for edge insertion"
            )

    def build_index(self):
        return build_weighted_spc_index(self.graph, strategy=self.config.strategy)

    def insert_edge(self, a, b, weight=None):
        self.check_weight(weight)
        return inc_spc_weighted(self.graph, self.index, a, b, weight)

    def delete_edge(self, a, b):
        return dec_spc_weighted(
            self.graph, self.index, a, b,
            use_isolated_fast_path=self.config.use_isolated_fast_path,
        )

    def set_weight(self, a, b, new_weight):
        old = self.graph.weight(a, b)
        if new_weight == old:
            return UpdateStats(kind="noop", edge=(a, b))
        if new_weight < old:
            return decrease_weight(self.graph, self.index, a, b, new_weight)
        return increase_weight(self.graph, self.index, a, b, new_weight)

    def initial_edges(self, v, edges, in_edges=()):
        if in_edges:
            raise EngineError("the weighted backend has no in-edges")
        # ``edges`` are (neighbor, weight) pairs.
        return [(v, u, w) for u, w in edges]


@register_backend
class SDBackend(SPCBackend):
    """Distance-only PLL over :class:`repro.graph.Graph` (§2.3, [3]).

    Serves ``(sd, None)`` answers from the lighter SD-Index for read-heavy
    traffic that never asks for counts.  Registered *after* the core
    backend, so ``repro.open(g)`` still auto-selects counting; opt in with
    ``repro.open(g, backend="sd")``.  Insertions run the WWW'14 incremental
    algorithm (:func:`repro.sd.inc_sd`); the SD literature has no
    decremental repair, so deletions rebuild the index — cheap relative to
    the SPC build, and honest about the trade-off.

    Inside an update batch (``config.sd_defer_rebuilds``) consecutive
    deletions coalesce: each one only removes its edge from the graph, and
    the rebuild runs once — at the end of the batch, or earlier if an
    insertion needs a current index to repair incrementally.  Deferral is
    confined to the engine's batch hooks, so queries never see a stale
    index.
    """

    name = "sd"
    graph_type = Graph
    counts = False

    def __init__(self, graph, index, config):
        super().__init__(graph, index, config)
        self._in_batch = False
        self._rebuild_pending = False
        #: rebuilds performed over this backend's lifetime (policy tests
        #: and the serving layer's stats read this).
        self.rebuild_count = 0

    @classmethod
    def index_from_dict(cls, payload):
        from repro.sd import SDIndex

        return SDIndex.from_dict(payload)

    def build_index(self):
        from repro.sd import build_sd_index

        self._rebuild_pending = False
        self.rebuild_count += 1
        return build_sd_index(self.graph, strategy=self.config.strategy)

    def begin_update_batch(self):
        if self.config.sd_defer_rebuilds:
            self._in_batch = True

    def end_update_batch(self):
        self._in_batch = False
        self._flush_pending_rebuild()

    def _flush_pending_rebuild(self):
        if self._rebuild_pending:
            self.index = self.build_index()

    def insert_edge(self, a, b, weight=None):
        from repro.sd import inc_sd

        self.check_weight(weight)
        # inc_sd repairs the *current* index; a deferred deletion would
        # leave it repairing stale labels, so settle the debt first.
        self._flush_pending_rebuild()
        stats = UpdateStats(kind="insert", edge=(a, b))
        inc_sd(self.graph, self.index, a, b)
        return stats

    def delete_edge(self, a, b):
        from repro.exceptions import EdgeNotFound

        if not self.graph.has_edge(a, b):
            raise EdgeNotFound(a, b)
        stats = UpdateStats(kind="delete", edge=(a, b))
        self.graph.remove_edge(a, b)
        if self._in_batch:
            self._rebuild_pending = True
        else:
            self.index = self.build_index()
        return stats

    def incident_edges(self, v):
        # Each SD deletion is a full rebuild, so stripping a vertex's edges
        # one delete_edge at a time would rebuild degree(v) times; let
        # remove_vertex take them all out and rebuild once.
        return []

    def add_vertex(self, v):
        if self._rebuild_pending:
            # The deferred rebuild indexes the graph as it stands, v
            # included; the stale index may still hold a dropped v.
            self.graph.add_vertex(v)
        else:
            super().add_vertex(v)

    def remove_vertex(self, v):
        for u in list(self.graph.neighbors(v)):
            self.graph.remove_edge(v, u)
        self.graph.remove_vertex(v)
        if self._in_batch:
            # Same deferral as delete_edge: no query can run before the
            # batch ends, so a vertex-removal storm rebuilds once too.
            self._rebuild_pending = True
        else:
            self.index = self.build_index()

    def label_payload(self, v):
        from repro.exceptions import VertexNotFound

        try:
            hubs, dists = self.index.label_arrays(v)
        except VertexNotFound:
            return None
        return [[h, d] for h, d in zip(hubs, dists)]

    def verify(self, sample_pairs=None, seed=0):
        from repro.verify import verify_sd

        return verify_sd(self.graph, self.index,
                         sample_pairs=sample_pairs, seed=seed)

    def check_invariants(self):
        from repro.verify import check_sd_invariants

        return check_sd_invariants(self.index)
