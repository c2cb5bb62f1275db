"""The built-in backends: core, directed and weighted counting, and sd.

Exact counting runs one backend class, :class:`CountingBackend`, over
every graph family: core's builder and its IncSPC/DecSPC drivers read the
steps and edge lengths from the graph (DESIGN.md §4), and the base
class's shape hooks read weights and in-edges from the graph's type and
the label payload's shape from the index's sides.  The registry keeps a
name per family — ``core`` (:class:`Graph`), ``directed``
(:class:`DiGraph`, Appendix C.1) and ``weighted`` (:class:`WeightedGraph`,
Appendix C.2) — because checkpoints, ``config.backend`` and the shard and
shadow lookups carry it; each name sets class attributes only.  No
algorithmic logic lives here: what the backends buy is *uniformity*, the
engine driving every family through the same five verbs (build / inc /
dec / query / verify).

The ``sd`` backend is never auto-selected (core wins the ``Graph`` match);
request it explicitly — ``repro.open(g, backend="sd")`` — to serve
distance-only traffic from the lighter SD-Index.  Its queries answer
``(sd, None)``: exact distances, no counts.
"""

from repro.core.builder import build_spc_index
from repro.core.decremental import dec_spc
from repro.core.incremental import inc_spc
from repro.core.index import DirectedSPCIndex, SPCIndex
from repro.core.stats import UpdateStats
from repro.engine.backends import SPCBackend, register_backend
from repro.graph.directed import DiGraph
from repro.graph.undirected import Graph
from repro.graph.weighted import WeightedGraph


class CountingBackend(SPCBackend):
    """Exact shortest-path counting over any graph family (§3, Appendix C)."""

    index_type = SPCIndex

    def build_index(self):
        return build_spc_index(self.graph, strategy=self.config.strategy)

    def insert_edge(self, a, b, weight=None):
        self.check_weight(weight)
        graph = self.graph
        if weight is None:
            return inc_spc(graph, self.index, a, b)
        return inc_spc(graph, self.index, a, b,
                       mutate=lambda: graph.add_edge(a, b, weight))

    def delete_edge(self, a, b):
        return dec_spc(self.graph, self.index, a, b)

    def set_weight(self, a, b, new_weight):
        graph = self.graph
        if not isinstance(graph, WeightedGraph):
            return super().set_weight(a, b, new_weight)
        old = graph.weight(a, b)
        if new_weight == old:
            return UpdateStats(kind="noop", edge=(a, b))
        # A decrease can only add shortest paths over (a, b): IncSPC with
        # the new weight.  An increase can only lose some: DecSPC with the
        # old one, which SrrSEARCH reads before the mutation.
        repair = inc_spc if new_weight < old else dec_spc
        return repair(graph, self.index, a, b,
                      mutate=lambda: graph.set_weight(a, b, new_weight))


@register_backend
class CoreBackend(CountingBackend):
    """Undirected, unweighted SPC over :class:`repro.graph.Graph` (§3)."""

    name = "core"
    graph_type = Graph


@register_backend
class DirectedBackend(CountingBackend):
    """Directed SPC over :class:`repro.graph.DiGraph` (Appendix C.1)."""

    name = "directed"
    graph_type = DiGraph
    index_type = DirectedSPCIndex
    directed = True


@register_backend
class WeightedBackend(CountingBackend):
    """Weighted SPC over :class:`repro.graph.WeightedGraph` (Appendix C.2)."""

    name = "weighted"
    graph_type = WeightedGraph


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

    Inside an update batch consecutive deletions coalesce: each one only
    removes its edge from the graph, and the rebuild runs once — at the
    end of the batch, or earlier if an insertion needs a current index to
    repair incrementally.  Deferral is
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
