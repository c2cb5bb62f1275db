"""The backend protocol and registry the engine dispatches over.

A *backend* owns one (graph, index) pair and knows how to build, repair and
query the index for its graph family — the engine layers the serving-path
features (caching, batching, history, rebuild policy) uniformly on top.
The dynamic-shortest-path literature frames directed/weighted/fully-dynamic
as *variants of one problem*; the registry makes that dispatch explicit:

* ``register_backend`` — class decorator adding an implementation;
* ``backend_for_graph`` — pick the backend whose graph type matches;
* ``get_backend`` / ``available_backends`` — lookup and introspection.

Third parties can register their own backend (e.g. an SD-only or a sharded
one) without touching the engine, as long as it implements
:class:`SPCBackend`.
"""

import abc

from repro.exceptions import EngineError

_REGISTRY = {}


class SPCBackend(abc.ABC):
    """One graph family's build / inc / dec / query implementation.

    Subclasses set three class attributes —

    * ``name`` — the registry key (``config.backend`` selects by it);
    * ``graph_type`` — the graph class auto-selection matches on;
    * ``weighted`` / ``directed`` — capability flags the engine consults
      (query-key symmetry, weight handling, vertex-op shapes).

    Instances hold ``graph``, ``index`` and the :class:`EngineConfig`.
    """

    name = None
    graph_type = None
    #: the index class this backend builds — used by the serving layer to
    #: rehydrate checkpoints (see :meth:`index_from_dict`).
    index_type = None
    directed = False
    weighted = False
    #: whether queries answer exact path counts; distance-only families
    #: (the sd backend) serve ``(sd, None)``, and auditors must compare
    #: only the distance half of their answers.
    counts = True

    def __init__(self, graph, index, config):
        self.graph = graph
        self.index = index
        self.config = config

    @classmethod
    def build(cls, graph, config, index=None):
        """Create a backend over ``graph``, building the index if missing."""
        backend = cls(graph, None, config)
        backend.index = index if index is not None else backend.build_index()
        return backend

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def build_index(self):
        """Build a fresh index for the current graph (HP-SPC baseline)."""

    # ------------------------------------------------------------------
    # Snapshot / serialization hooks (the repro.serve seam)
    # ------------------------------------------------------------------

    # Copy-on-write publish state (DESIGN.md §10).  The dirty-vertex sink
    # is armed lazily by the first drain below, so a backend that never
    # publishes or journals pays nothing in its maintenance loops.
    _sink = None          # vertices dirtied since the last drain
    _sink_index = None    # the index object the sink is armed on
    _unpublished = ()     # vertices dirtied since the last publish
    _frozen = None        # the last honest view snapshot_index returned
    _journal_synced = False

    def _drain_sink(self):
        """Fold the sink into the unpublished set; return its vertices in
        sink order.

        Arms the sink on the live index first if it is not armed there —
        on the first drain, and after every index replacement (engine
        rebuild, rebuild policy, SD rebuild-on-delete).  Arming drops the
        frozen chain and the journal's sync, so the next publish copies
        every vertex and the next journal drain reports a replacement.
        """
        index = self.index
        if self._sink_index is not index:
            self._sink = set()
            index.set_dirty_sink(self._sink)
            self._sink_index = index
            self._unpublished = set()
            self._frozen = None
            self._journal_synced = False
            return []
        sink = self._sink
        drained = list(sink)
        self._unpublished.update(sink)
        sink.clear()
        return drained

    def snapshot_index(self):
        """Return a frozen view of the live index, safe to read from other
        threads while this backend keeps mutating its live index.

        Copy-on-write: the view shares every label object of the previous
        view this hook returned, and holds fresh copies only of the
        vertices dirtied since.  The first call, and the first after the
        live index object changed, copies every vertex.  The chain always
        grows from the backend's own last view, never from what a wrapper
        of this hook returned.
        """
        self._drain_sink()
        view = self.index.frozen(self._frozen, self._unpublished)
        self._frozen = view
        self._unpublished = set()
        return view

    def label_changes(self):
        """Vertices whose labels changed since the previous call, in the
        order the dirty-vertex sink holds them.

        The label journal's drain.  Returns ``None`` on the first call and
        whenever the live index object was replaced since the previous one:
        hub ranks may have been reshuffled, so the caller must dump every
        vertex instead.  Publishing never loses a vertex to this drain:
        both drains fold into the set :meth:`snapshot_index` copies.
        """
        drained = self._drain_sink()
        if not self._journal_synced:
            self._journal_synced = True
            return None
        return drained

    def index_to_dict(self):
        """JSON-serializable payload of the live index (checkpointing)."""
        return self.index.to_dict()

    # ------------------------------------------------------------------
    # Label-delta hooks (the repro.shard seam)
    # ------------------------------------------------------------------

    def label_payload(self, v):
        """JSON-safe label state of one vertex, or ``None`` if it is gone.

        The default suits any index mirroring ``SPCIndex`` (one label set
        per vertex, hub ranks): a ``[[hub_rank, dist, count], ...]`` list.
        Directed/SD-shaped indexes override with their own shape; shards
        rehydrate through :meth:`iter_label_payloads`-compatible filters.
        """
        from repro.exceptions import VertexNotFound

        try:
            ls = self.index.label_set(v)
        except VertexNotFound:
            return None
        return [[h, d, c] for h, d, c in ls]

    @classmethod
    def iter_label_payloads(cls, index_payload, vertex_type=int):
        """Yield ``(vertex, label_payload)`` for every vertex in a
        checkpointed index payload — the slice-restricted-restore seam:
        shards filter each payload to their hub range instead of
        materializing the full index."""
        for key, entries in index_payload["labels"].items():
            yield vertex_type(key), entries

    @classmethod
    def index_from_dict(cls, payload):
        """Rehydrate an index of this backend's family from a checkpoint."""
        if cls.index_type is None:
            raise EngineError(
                f"backend {cls.name!r} declares no index_type; "
                f"checkpoints cannot be restored for it"
            )
        return cls.index_type.from_dict(payload)

    # ------------------------------------------------------------------
    # Updates — each returns an UpdateStats
    # ------------------------------------------------------------------

    def begin_update_batch(self):
        """Hook: a stream of updates is about to be applied back-to-back.

        No queries will be issued until :meth:`end_update_batch`, so a
        backend may defer expensive per-update work (the SD backend
        coalesces its rebuild-on-delete into one rebuild per batch).
        The default is a no-op; the engine brackets ``apply_stream`` /
        ``apply_batch`` with these hooks.
        """

    def end_update_batch(self):
        """Hook: the update stream ended; restore query-ready state."""

    def check_weight(self, weight):
        """Validate an insert_edge weight *before* any mutation happens.

        The engine calls this ahead of endpoint auto-creation so a doomed
        insertion cannot leave half-registered vertices behind.
        """
        if weight is not None:
            raise EngineError(
                f"the {self.name} backend takes no edge weights"
            )

    @abc.abstractmethod
    def insert_edge(self, a, b, weight=None):
        """IncSPC for this family; ``weight`` only on weighted backends."""

    @abc.abstractmethod
    def delete_edge(self, a, b):
        """DecSPC for this family."""

    def set_weight(self, a, b, new_weight):
        """Change an edge weight (weighted backends only)."""
        raise EngineError(
            f"backend {self.name!r} does not support edge-weight updates"
        )

    def add_vertex(self, v):
        """Register a brand-new vertex with the graph and the index."""
        self.graph.add_vertex(v)
        self.index.add_vertex(v)

    def remove_vertex(self, v):
        """Drop an (already isolated) vertex from graph and index."""
        self.graph.remove_vertex(v)
        self.index.drop_vertex_labels(v)

    # ------------------------------------------------------------------
    # Shape adapters for the engine's generic vertex operations
    # ------------------------------------------------------------------

    def initial_edges(self, v, edges, in_edges=()):
        """Normalize an insert_vertex edge spec to (a, b, weight) triples."""
        if in_edges:
            raise EngineError(
                f"backend {self.name!r} has no in-edges; pass edges= only"
            )
        return [(v, u, None) for u in edges]

    def incident_edges(self, v):
        """Every edge a delete_vertex must remove, as (a, b) pairs."""
        return [(v, u) for u in self.graph.neighbors(v)]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def verify(self, sample_pairs=None, seed=0):
        """Check the index against ground truth; raises IndexCorruption."""

    def check_invariants(self):
        """Validate structural label invariants; raises IndexCorruption.

        Unlike :meth:`verify` this never touches the graph: it checks
        sortedness, self-labels, the rank constraint and the reverse hub
        map's consistency with the label sets.  The default suits any
        backend whose index mirrors :class:`repro.core.index.SPCIndex`;
        directed/SD-shaped indexes override.
        """
        from repro.verify import check_invariants

        return check_invariants(self.index)

    def __repr__(self):
        return f"{type(self).__name__}(graph={self.graph!r}, index={self.index!r})"


def register_backend(cls):
    """Class decorator: add an :class:`SPCBackend` subclass to the registry.

    Registration order matters for auto-selection — earlier registrations
    win when several ``graph_type``s match via subclassing.
    """
    if not (isinstance(cls, type) and issubclass(cls, SPCBackend)):
        raise EngineError(f"register_backend expects an SPCBackend subclass, got {cls!r}")
    if not cls.name or cls.graph_type is None:
        raise EngineError(
            f"backend {cls.__name__} must define 'name' and 'graph_type'"
        )
    _REGISTRY[cls.name] = cls
    return cls


def get_backend(name):
    """Look a backend class up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def backend_for_graph(graph):
    """Auto-select the backend whose ``graph_type`` matches ``graph``.

    Exact type matches take precedence over subclass matches, so a custom
    backend registered for a Graph subclass wins on its own type.
    """
    for cls in _REGISTRY.values():
        if type(graph) is cls.graph_type:
            return cls
    for cls in _REGISTRY.values():
        if isinstance(graph, cls.graph_type):
            return cls
    raise EngineError(
        f"no registered backend accepts graphs of type "
        f"{type(graph).__name__}; available: "
        f"{ {n: c.graph_type.__name__ for n, c in _REGISTRY.items()} }"
    )


def available_backends():
    """Mapping of registered backend name -> graph type name."""
    return {name: cls.graph_type.__name__ for name, cls in _REGISTRY.items()}
