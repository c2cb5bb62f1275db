"""The backend-agnostic SPC engine: one facade for every graph family.

``SPCEngine`` is the single public entry point for dynamic shortest-path
counting.  It auto-selects a backend from the graph type (or honours
``config.backend``), owns the maintenance loop (rebuild policies, drift
checks, streaming stats) and the serving path (query cache, batch queries,
net-effect update batches) *uniformly* — features that used to exist only
on the undirected facade now apply to directed and weighted graphs too.

Example
-------
>>> import repro
>>> g = repro.Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2)])
>>> engine = repro.open(g)
>>> engine.backend_name
'core'
>>> engine.query(0, 2)
(2, 2)
>>> engine.query_many([(0, 2), (1, 3)])
[(2, 2), (2, 2)]
>>> _ = engine.insert_edge(0, 2)
>>> engine.query(0, 2)
(1, 1)
"""

import time

from repro.core.stats import StreamStats, UpdateStats
from repro.engine.backends import backend_for_graph, get_backend
from repro.engine.cache import QueryCache
from repro.engine.config import EngineConfig
from repro.exceptions import EngineError
from repro.traversal import ground_truth


def source_probe_or_merge(index, s, group_size):
    """Pick the answer strategy for one source's group of queries.

    Returns a ``probe(t) -> (sd, spc)``: the PSPC-style shared scan
    (``index.source_probe``) when the group has enough targets to
    amortize materializing L(s), else the per-pair two-pointer merge.
    Shared by :meth:`SPCEngine.query_many` and the serving layer's
    :meth:`~repro.serve.SnapshotView.query_many` so the heuristic cannot
    silently diverge between the two batch paths.
    """
    source_probe = getattr(index, "source_probe", None)
    if source_probe is not None and group_size >= 2:
        return source_probe(s)
    return lambda t: index.query(s, t)


def baseline_answer(graph, s, t, counts=True):
    """Recompute (sd, spc) for one pair by direct traversal — no index.

    The trusted-baseline primitive of the audit subsystem
    (:mod:`repro.audit`): answers come from the reference traversal for
    the graph's type (:func:`repro.traversal.ground_truth`: BFS, directed
    BFS or Dijkstra), so they are correct by construction whatever state
    the maintained labels are in.  ``counts=False`` mirrors the
    distance-only families and answers ``(sd, None)``.

    Endpoints absent from the graph answer ``(inf, 0)`` — the same
    convention the indexes use for unreachable pairs.
    """
    if not (graph.has_vertex(s) and graph.has_vertex(t)):
        d, c = float("inf"), 0
    else:
        _, pair_search, _ = ground_truth(graph)
        d, c = pair_search(graph, s, t)
    if not counts:
        return d, None
    return d, c


def batch_answers(index, pairs):
    """Answer (s, t) pairs against one index state, cache-free.

    The uncached core of the PSPC-style batch path: group by source, one
    :func:`source_probe_or_merge` probe per group.  ``SPCEngine.query_many``
    layers cache lookups and miss-deduplication on top of the same
    grouping; the serving layer's immutable snapshots call this directly.
    """
    pairs = list(pairs)
    answers = [None] * len(pairs)
    by_source = {}
    for i, (s, t) in enumerate(pairs):
        by_source.setdefault(s, []).append((t, i))
    for s, group in by_source.items():
        probe = source_probe_or_merge(index, s, len(group))
        for t, i in group:
            answers[i] = probe(t)
    return answers


class SPCEngine:
    """A shortest-path-counting oracle over any supported dynamic graph.

    Create one via :func:`repro.open` (auto-selection) or directly::

        engine = SPCEngine(graph, config=EngineConfig(rebuild_every=500))

    The engine owns its graph and index: mutate only through the engine so
    the index and the query cache stay in sync with the topology.
    """

    def __init__(self, graph, config=None, index=None, backend=None):
        self._config = config if config is not None else EngineConfig()
        if backend is not None:
            backend_cls = get_backend(backend)
        elif self._config.backend is not None:
            backend_cls = get_backend(self._config.backend)
        else:
            backend_cls = backend_for_graph(graph)
        self._backend = backend_cls.build(graph, self._config, index=index)
        self._cache = (
            QueryCache(self._config.cache_size)
            if self._config.cache_size else None
        )
        self._epoch = 0
        self._updates_since_rebuild = 0
        self.history = StreamStats()
        self._obs = None

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    @property
    def graph(self):
        """The underlying graph (mutate only through this engine)."""
        return self._backend.graph

    @property
    def index(self):
        """The maintained SPC index (family-specific type)."""
        return self._backend.index

    @property
    def config(self):
        """The engine's :class:`EngineConfig` (frozen)."""
        return self._config

    @property
    def backend(self):
        """The active :class:`SPCBackend` instance."""
        return self._backend

    @property
    def backend_name(self):
        """The registry name of the active backend."""
        return self._backend.name

    @property
    def epoch(self):
        """Monotone counter of topology changes (drives cache validity)."""
        return self._epoch

    def seed_epoch(self, epoch):
        """Fast-forward the epoch counter (checkpoint restore only).

        The serving layer uses the epoch as a cross-restart consistency
        coordinate, so a restored engine must not reissue epoch numbers
        readers already saw.  Rewinding is refused — a lower epoch would
        resurrect stale cache entries and break snapshot monotonicity.
        """
        if epoch < self._epoch:
            raise EngineError(
                f"cannot rewind epoch from {self._epoch} to {epoch}"
            )
        self._epoch = epoch

    # ------------------------------------------------------------------
    # Serving path
    # ------------------------------------------------------------------

    def set_metrics(self, registry):
        """Install (or clear, with ``None``) observability counters.

        Promotes the cache/stream accessors into ``registry`` as callback
        gauges (``repro_engine_cache_*``, ``repro_engine_*`` — see
        :mod:`repro.obs.bind`) and arms hot-path counters for answered
        queries, shared probe scans and singleton pair merges.  An
        uninstrumented engine pays one attribute check per call.
        """
        if registry is None:
            self._obs = None
            return
        from repro.obs.bind import bind_engine

        bind_engine(registry, self)
        self._obs = (
            registry.counter("repro_engine_queries"),
            registry.counter("repro_engine_probe_scans"),
            registry.counter("repro_engine_pair_merges"),
        )

    def query(self, s, t):
        """Return (sd(s, t), spc(s, t)), served from the cache when warm."""
        obs = self._obs
        if obs is not None:
            obs[0].inc()
        if self._cache is None:
            if obs is not None:
                obs[2].inc()
            return self._backend.index.query(s, t)
        key = self._cache_key(s, t)
        answer = self._cache.get(key)
        if answer is None:
            answer = self._backend.index.query(s, t)
            self._cache.put(key, answer)
            if obs is not None:
                obs[2].inc()
        return answer

    def query_many(self, pairs):
        """Answer a batch of (s, t) pairs; returns answers in order.

        The PSPC-style shared-scan serving path: cache misses are grouped
        by source, each distinct source's labels are materialized into one
        hub -> (dist, count) dict, and every pair of that group is answered
        by a single probe-scan over the target's label arrays — the
        two-pointer merge runs only for singleton sources.  Repeated pairs
        within the batch compute exactly once (deduplicated on the cache
        key before the cache is consulted, so each distinct missing pair
        records exactly one miss), pairs repeated across batches are
        served from the cache until the next update, and epoch/
        invalidation semantics are unchanged.
        """
        pairs = list(pairs)
        answers = [None] * len(pairs)
        cache = self._cache
        key_indices = {}
        for i, (s, t) in enumerate(pairs):
            key = self._cache_key(s, t)
            pending = key_indices.get(key)
            if pending is not None:  # duplicate of a pending miss
                pending.append(i)
                continue
            if cache is not None:
                hit = cache.get(key)
                if hit is not None:
                    answers[i] = hit
                    continue
            key_indices[key] = [i]

        by_source = {}
        for key, indices in key_indices.items():
            s, t = pairs[indices[0]]
            by_source.setdefault(s, []).append((t, key, indices))

        obs = self._obs
        if obs is not None:
            obs[0].inc(len(pairs))
            obs[1].inc(len(by_source))

        index = self._backend.index
        for s, group in by_source.items():
            probe = source_probe_or_merge(index, s, len(group))
            for t, key, indices in group:
                answer = probe(t)
                if cache is not None:
                    cache.put(key, answer)
                for i in indices:
                    answers[i] = answer
        return answers

    def distance(self, s, t):
        """Return sd(s, t)."""
        return self.query(s, t)[0]

    def count(self, s, t):
        """Return spc(s, t)."""
        return self.query(s, t)[1]

    def recompute(self, s, t):
        """Recompute (sd, spc) by direct traversal, bypassing the index.

        The audit subsystem's baseline hook: a :func:`baseline_answer`
        over the live graph, shaped like :meth:`query` (distance-only
        backends answer ``(sd, None)``), but never touching the maintained
        labels or the cache — so it stays trustworthy even when the index
        is corrupt.
        """
        backend = self._backend
        return baseline_answer(backend.graph, s, t, counts=backend.counts)

    def cache_info(self):
        """Query-cache counters, or ``None`` when caching is disabled."""
        return self._cache.info() if self._cache is not None else None

    def _cache_key(self, s, t):
        if self._backend.directed:
            return (s, t)
        return (s, t) if s <= t else (t, s)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert_edge(self, a, b, weight=None):
        """Insert edge (a, b) via IncSPC, creating missing endpoints.

        ``weight`` is required by the weighted backend and rejected by the
        unweighted ones — validated up front, so a rejected insertion
        leaves no half-created endpoints behind.
        """
        self._backend.check_weight(weight)
        for v in (a, b):
            if not self.graph.has_vertex(v):
                self.insert_vertex(v)
        start = time.perf_counter()
        stats = self._backend.insert_edge(a, b, weight)
        stats.elapsed = time.perf_counter() - start
        self._after_update(stats)
        return stats

    def delete_edge(self, a, b):
        """Delete edge (a, b) via DecSPC."""
        start = time.perf_counter()
        stats = self._backend.delete_edge(a, b)
        stats.elapsed = time.perf_counter() - start
        self._after_update(stats)
        return stats

    def set_weight(self, a, b, new_weight):
        """Change edge (a, b)'s weight (weighted backend only).

        Dispatches to the incremental path on decreases and the decremental
        path on increases; equal weight is a recorded no-op.
        """
        start = time.perf_counter()
        stats = self._backend.set_weight(a, b, new_weight)
        stats.elapsed = time.perf_counter() - start
        self._after_update(stats)
        return stats

    def insert_vertex(self, v, edges=(), in_edges=()):
        """Add vertex ``v`` (lowest rank) plus optional initial edges.

        The edge spec is backend-shaped: plain neighbor ids for core,
        (neighbor, weight) pairs for weighted, out-neighbors in ``edges``
        and in-neighbors in ``in_edges`` for directed.  Each initial edge
        is recorded as its own update; the returned stats aggregate the
        whole operation.
        """
        initial = self._backend.initial_edges(v, edges, in_edges)
        start = time.perf_counter()
        self._backend.add_vertex(v)
        marker = UpdateStats(kind="insert_vertex", edge=(v,))
        marker.elapsed = time.perf_counter() - start
        self._after_update(marker)
        result = UpdateStats(kind="insert_vertex", edge=(v,))
        result.merge(marker)
        for a, b, w in initial:
            result.merge(self.insert_edge(a, b, w))
        return result

    def delete_vertex(self, v):
        """Remove vertex ``v``: DecSPC per incident edge, then drop labels."""
        result = UpdateStats(kind="delete_vertex", edge=(v,))
        for a, b in self._backend.incident_edges(v):
            result.merge(self.delete_edge(a, b))
        start = time.perf_counter()
        self._backend.remove_vertex(v)
        marker = UpdateStats(kind="delete_vertex", edge=(v,))
        marker.elapsed = time.perf_counter() - start
        self._after_update(marker)
        result.elapsed += marker.elapsed
        return result

    def apply(self, update):
        """Apply one workload update object (see repro.workloads.updates)."""
        apply_to = getattr(update, "apply", None)
        if apply_to is None:
            raise TypeError(f"unsupported update {update!r}")
        return apply_to(self)

    def apply_stream(self, updates):
        """Apply an iterable of updates; returns the list of stats.

        The stream is bracketed by the backend's update-batch hooks, so a
        backend may defer per-update work to the end of the stream (the SD
        backend's batched rebuild); the index is query-ready again before
        this returns.
        """
        self._backend.begin_update_batch()
        try:
            return [self.apply(u) for u in updates]
        finally:
            self._backend.end_update_batch()

    def apply_logged_batches(self, records):
        """Replay WAL records — an iterable of ``(seq, updates)`` pairs —
        and return the last sequence number applied (``None`` when empty).

        The replica-side apply path: records come from a write-ahead log,
        so they are already net-effect (the primary coalesced before
        logging) and must be applied verbatim, in order.  The whole record
        stream shares one ``begin/end_update_batch`` bracket, so backends
        that defer per-update work amortize it across the entire tail (the
        SD backend rebuilds once per replayed tail, not once per record).
        """
        last_seq = None
        self._backend.begin_update_batch()
        try:
            for seq, updates in records:
                for update in updates:
                    self.apply(update)
                last_seq = seq
        finally:
            self._backend.end_update_batch()
        return last_seq

    def apply_batch(self, updates, coalesce=None):
        """Apply an edge-update batch with set semantics (net effect only).

        Insert/delete churn that cancels out within the batch is skipped
        entirely, and weight churn on weighted graphs nets down to a single
        ``set_weight`` (see :mod:`repro.core.batch`).  Returns (stats list,
        cancelled-op count).  ``coalesce=False`` (or
        ``config.coalesce_batches = False``) replays the batch verbatim.
        """
        from repro.core.batch import coalesce_edge_updates

        if coalesce is None:
            coalesce = self._config.coalesce_batches
        if not coalesce:
            return self.apply_stream(list(updates)), 0
        effective, cancelled = coalesce_edge_updates(self.graph, updates)
        return self.apply_stream(effective), cancelled

    # ------------------------------------------------------------------
    # Rebuild policy
    # ------------------------------------------------------------------

    def rebuild(self):
        """Reconstruct the index from scratch (the HP-SPC baseline).

        Returns the build time in seconds; resets the lazy-rebuild counter
        and expires the query cache.
        """
        start = time.perf_counter()
        self._backend.index = self._backend.build_index()
        self._updates_since_rebuild = 0
        self._epoch += 1
        if self._cache is not None:
            self._cache.invalidate()
        return time.perf_counter() - start

    def drift(self, samples=1000, seed=0):
        """Measure how stale the frozen vertex ordering has become (§6)."""
        from repro.order import drift_report

        return drift_report(self.graph, self.index.order, samples=samples,
                            seed=seed)

    def _after_update(self, stats):
        if stats.kind in ("noop", "insert_vertex"):
            # Recorded for the history, but no cached answer can have
            # changed: an unchanged weight alters nothing, and a brand-new
            # isolated vertex has no cached queries (delete_vertex, by
            # contrast, must invalidate).  Don't advance the rebuild
            # counter either.
            self.history.record(stats)
            return
        self._epoch += 1
        if self._cache is not None:
            self._cache.invalidate()
        self.history.record(stats)
        if stats.kind == "delete_vertex":
            return
        self._updates_since_rebuild += 1
        if (
            self._config.rebuild_every
            and self._updates_since_rebuild >= self._config.rebuild_every
        ):
            self.rebuild()
            return
        if (
            self._config.rebuild_drift_threshold is not None
            and self._updates_since_rebuild % self._config.drift_check_every == 0
            and self.drift()["sampled_inversions"]
            > self._config.rebuild_drift_threshold
        ):
            self.rebuild()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def check(self, sample_pairs=None, seed=0):
        """Verify the index against ground truth; raises on mismatch."""
        self._backend.verify(sample_pairs=sample_pairs, seed=seed)
        return True

    def check_invariants(self):
        """Validate structural label invariants without touching the graph.

        Cheaper than :meth:`check` (no BFS ground truth): sortedness,
        self-labels, the rank constraint, and reverse-hub-map consistency.
        Raises :class:`~repro.exceptions.IndexCorruption` on violation.
        """
        self._backend.check_invariants()
        return True

    def __repr__(self):
        return (
            f"SPCEngine(backend={self.backend_name!r}, "
            f"graph={self.graph!r}, index={self.index!r})"
        )


def open(graph, config=None, index=None, **overrides):  # noqa: A001
    """Open an :class:`SPCEngine` over ``graph`` with auto-selected backend.

    ``config`` takes a full :class:`EngineConfig`; keyword overrides patch
    individual fields (``repro.open(g, cache_size=0)``).  ``index`` reuses
    a prebuilt index instead of building one.

    Example
    -------
    >>> import repro
    >>> engine = repro.open(repro.Graph.from_edges([(0, 1)]), cache_size=16)
    >>> engine.query(0, 1)
    (1, 1)
    """
    if config is None:
        config = EngineConfig(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    return SPCEngine(graph, config=config, index=index)
