"""Spans around the public entry points of each layer, and what they add up to.

The traced pass of a run installs :class:`Tracer` wrappers on the objects
the workload drives — ``SPCEngine.apply`` / ``query``, the backend's batch
hooks and ``snapshot_index``, ``WriteAheadLog.append`` and
``SnapshotView.query_many`` — and on the benchmark's own read calls.  Each
wrapper records a span (name, start, end, parent, request id) named after
the layer (module) it times.  Nothing inside ``src/`` changes.

A layer's self time is its spans' duration minus the time of their child
spans.  On the thread that drives the workload, the self times plus the
unattributed remainder add up to the measured phase's wall time.

Reads are too many to keep a span object each: every read is aggregated,
and every :data:`READ_SPAN_EVERY`-th one is also kept as a span pair for
the spans file.
"""

import json
import math
import threading
import time
from collections import defaultdict

from repro.serve import SnapshotView, WriteAheadLog
from repro.workloads import DeleteEdge

#: keep the spans of one read in this many (every read is aggregated).
READ_SPAN_EVERY = 100

#: span names, one per layer; each gets a ``<layer>.self_s`` metric.
LAYERS = (
    "core.builder", "core.incremental", "core.decremental", "engine.query",
    "serve.writer", "serve.wal", "serve.publish", "serve.read",
    "serve.snapshot",
)


def update_key(update):
    """Identify an update across the writer's coalescing (which rebuilds
    equal update objects with normalized endpoints)."""
    u, v = update.u, update.v
    return (type(update).__name__, u, v) if u <= v else (
        type(update).__name__, v, u)


def quantile(values, q):
    """Nearest-rank quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 6))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


class Span:
    """One timed call into a layer."""

    __slots__ = ("id", "name", "start", "end", "parent", "request", "thread",
                 "child_s")

    def __init__(self, id, name, start, parent, request, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.thread = thread
        self.child_s = 0.0


class Tracer:
    """Records spans and per-layer counts for one traced pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.self_s = defaultdict(float)
        self.busy = defaultdict(list)       # layer -> span durations (s)
        self.counts = defaultdict(int)
        self.root_s = defaultdict(float)    # thread name -> top-level time
        self.queue_wait = []
        self.read_wait = []
        self.probe = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._probe_s = 0.0
        self._undo = []
        self.avg_label = 0.0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def open(self, name, request=None):
        """Start a span on this thread, nested in the innermost open one."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(span_id, name, time.perf_counter(),
                    stack[-1] if stack else None, request,
                    threading.current_thread().name)
        stack.append(span)
        return span

    def close(self, span):
        """End ``span``; returns its duration in seconds."""
        span.end = time.perf_counter()
        self._stack().pop()
        duration = span.end - span.start
        with self._lock:
            self.spans.append(span)
            self.self_s[span.name] += duration - span.child_s
            self.busy[span.name].append(duration)
            if span.parent is None:
                self.root_s[span.thread] += duration
            else:
                span.parent.child_s += duration
        return duration

    # ------------------------------------------------------------------
    # Wrappers around each layer's public entry points
    # ------------------------------------------------------------------

    def traced_build(self, build):
        """Run ``build()`` (an index build) as a core.builder span."""
        span = self.open("core.builder")
        try:
            engine = build()
        finally:
            self.close(span)
        self.counts["core.builder.entries"] = engine.index.num_entries
        self.avg_label = engine.index.average_label_size()
        return engine

    def instrument_engine(self, engine, requests, submitted=None):
        """Time ``engine.apply`` (IncSPC / DecSPC) and ``engine.query``.

        ``requests`` maps :func:`update_key` to the update's request id;
        ``submitted[request]``, when given, is the update's submit time, so
        the wait from submit to the start of its apply is measured too.
        """
        apply, query = engine.apply, engine.query

        def traced_apply(update):
            delete = isinstance(update, DeleteEdge)
            request = requests.get(update_key(update))
            span = self.open("core.decremental" if delete
                             else "core.incremental", request)
            try:
                stats = apply(update)
            finally:
                self.close(span)
            self._count_update(delete, stats)
            if submitted is not None and request is not None:
                self.queue_wait.append(span.start - submitted[request])
            return stats

        def traced_query(s, t):
            span = self.open("engine.query")
            try:
                return query(s, t)
            finally:
                self.close(span)

        engine.apply = traced_apply
        engine.query = traced_query
        self._undo.append(lambda: (vars(engine).pop("apply"),
                                   vars(engine).pop("query")))

    def instrument_service(self, service, requests, submitted):
        """Time the writer batch, WAL append, publish copy and snapshot
        probes of ``service`` (plus its engine, as above)."""
        engine = service.engine
        self.instrument_engine(engine, requests, submitted)
        backend = engine.backend
        begin, end = backend.begin_update_batch, backend.end_update_batch
        snapshot_index = backend.snapshot_index
        wal_append = WriteAheadLog.append
        probe_many = SnapshotView.query_many

        def traced_begin():
            begin()
            self.open("serve.writer")

        def traced_end():
            try:
                end()
            finally:
                self.close(self._stack()[-1])

        def traced_snapshot_index():
            span = self.open("serve.publish")
            try:
                index = snapshot_index()
            finally:
                self.close(span)
            with self._lock:
                self.counts["serve.publish.entries"] += index.num_entries
            return index

        def traced_append(wal, seq, updates):
            before = wal.size
            span = self.open("serve.wal", seq)
            try:
                return wal_append(wal, seq, updates)
            finally:
                self.close(span)
                with self._lock:
                    self.counts["serve.wal.bytes"] += wal.size - before
                    self.counts["serve.wal.updates"] += len(updates)

        def traced_probe_many(snapshot, pairs):
            t0 = time.perf_counter()
            answers = probe_many(snapshot, pairs)
            self._probe_s = time.perf_counter() - t0
            return answers

        backend.begin_update_batch = traced_begin
        backend.end_update_batch = traced_end
        backend.snapshot_index = traced_snapshot_index
        WriteAheadLog.append = traced_append
        SnapshotView.query_many = traced_probe_many

        def undo():
            for name in ("begin_update_batch", "end_update_batch",
                         "snapshot_index"):
                vars(backend).pop(name)
            WriteAheadLog.append = wal_append
            SnapshotView.query_many = probe_many

        self._undo.append(undo)

    def traced_read(self, read):
        """Wrap the reader's ``query_many`` call: a serve.read span whose
        child is the snapshot probe, plus the time the call spent not
        running on its own thread (waiting for the interpreter lock)."""
        perf, cpu = time.perf_counter, time.thread_time
        thread = threading.current_thread().name
        reads = 0

        def traced(batch):
            nonlocal reads
            reads += 1
            c0 = cpu()
            t0 = perf()
            answer = read(batch)
            t1 = perf()
            c1 = cpu()
            wall, probe = t1 - t0, self._probe_s
            self.read_wait.append(max(0.0, wall - (c1 - c0)))
            self.probe.append(probe)
            self.self_s["serve.read"] += wall - probe
            self.self_s["serve.snapshot"] += probe
            self.root_s[thread] += wall
            self.counts["serve.snapshot.sources"] += len(
                {s for s, _ in batch})
            if reads % READ_SPAN_EVERY == 1:
                self._keep_read_spans(reads, t0, t1, probe, thread)
            return answer

        return traced

    def _keep_read_spans(self, request, t0, t1, probe, thread):
        with self._lock:
            self._next_id += 2
            read = Span(self._next_id - 1, "serve.read", t0, None, request,
                        thread)
            read.end, read.child_s = t1, probe
            inner = Span(self._next_id, "serve.snapshot", t1 - probe, read,
                         request, thread)
            inner.end = t1
            self.spans.extend((read, inner))

    def start_phase(self):
        """Mark the start of the measured phase: top-level time before it
        (the traced index build) is not part of the phase's wall time."""
        self.root_s.clear()

    def uninstall(self):
        """Remove every wrapper this tracer installed."""
        while self._undo:
            self._undo.pop()()

    def _count_update(self, delete, stats):
        layer = "core.decremental" if delete else "core.incremental"
        c = self.counts
        with self._lock:
            c[layer + ".updates"] += 1
            c[layer + ".affected_hubs"] += stats.affected_hubs
            c[layer + ".bfs_visits"] += stats.bfs_visits
            c[layer + ".label_ops"] += stats.total_label_ops
            if delete:
                c[layer + ".sr"] += stats.sr_a + stats.sr_b
                c[layer + ".r"] += stats.r_a + stats.r_b
                c[layer + ".removed"] += stats.removed
                c[layer + ".fast_path"] += bool(stats.isolated_fast_path)

    # ------------------------------------------------------------------
    # Per-layer metrics and the spans file
    # ------------------------------------------------------------------

    def metrics(self, main_thread, main_wall_s):
        """Per-layer metrics as ``{name: (value, unit)}``.

        ``main_wall_s`` is the wall time of the measured phase on
        ``main_thread`` (the thread driving the workload); the part of it
        no top-level span covers is reported as unattributed.
        """
        c, busy = self.counts, self.busy

        def ratio(a, b):
            return a / b if b else 0.0

        def p50_ms(layer):
            return quantile(busy[layer], 0.5) * 1e3

        inc, dec = "core.incremental", "core.decremental"
        out = {
            "core.builder.build_s": (sum(busy["core.builder"]), "s"),
            "core.builder.entries": (c["core.builder.entries"], "count"),
            "core.builder.avg_label": (self.avg_label, "count"),
        }
        for layer in (inc, dec):
            out[layer + ".updates"] = (c[layer + ".updates"], "count")
            out[layer + ".busy_ms_p50"] = (p50_ms(layer), "ms")
            out[layer + ".busy_s_total"] = (sum(busy[layer]), "s")
            out[layer + ".affected_hubs"] = (c[layer + ".affected_hubs"],
                                             "count")
            out[layer + ".bfs_visits"] = (c[layer + ".bfs_visits"], "count")
            out[layer + ".label_ops_per_visit"] = (
                ratio(c[layer + ".label_ops"], c[layer + ".bfs_visits"]),
                "ratio")
        out[inc + ".label_ops"] = (c[inc + ".label_ops"], "count")
        out[dec + ".sr"] = (c[dec + ".sr"], "count")
        out[dec + ".r"] = (c[dec + ".r"], "count")
        out[dec + ".removed"] = (c[dec + ".removed"], "count")
        out[dec + ".fast_path_frac"] = (
            ratio(c[dec + ".fast_path"], c[dec + ".updates"]), "ratio")

        batches = len(busy["serve.writer"])
        publishes = len(busy["serve.publish"])
        out.update({
            "serve.writer.batches": (batches, "count"),
            "serve.writer.updates_per_batch": (ratio(
                c[inc + ".updates"] + c[dec + ".updates"], batches), "count"),
            "serve.writer.queue_wait_ms_p50": (
                quantile(self.queue_wait, 0.5) * 1e3, "ms"),
            "serve.wal.append_ms_p50": (p50_ms("serve.wal"), "ms"),
            "serve.wal.bytes_per_update": (
                ratio(c["serve.wal.bytes"], c["serve.wal.updates"]), "B"),
            "serve.publish.count": (publishes, "count"),
            "serve.publish.copy_ms_p50": (p50_ms("serve.publish"), "ms"),
            "serve.publish.copy_s_total": (sum(busy["serve.publish"]), "s"),
            "serve.publish.entries_per_copy": (
                ratio(c["serve.publish.entries"], publishes), "count"),
            "serve.snapshot.probe_us_p50": (
                quantile(self.probe, 0.5) * 1e6, "us"),
            "serve.snapshot.sources_per_batch": (
                ratio(c["serve.snapshot.sources"], len(self.probe)), "count"),
            "serve.read.wait_us_p999": (
                quantile(self.read_wait, 0.999) * 1e6, "us"),
            "engine.query.us_p50": (
                quantile(busy["engine.query"], 0.5) * 1e6, "us"),
        })
        for layer in LAYERS:
            out[layer + ".self_s"] = (self.self_s[layer], "s")
        out["trace.unattributed_frac"] = (
            ratio(main_wall_s - self.root_s[main_thread], main_wall_s),
            "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path):
        """Write every kept span as one JSON line (times relative to the
        tracer's creation)."""
        t0 = self.t0
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.id):
                f.write(json.dumps({
                    "id": s.id, "name": s.name,
                    "start": round(s.start - t0, 9),
                    "end": round(s.end - t0, 9),
                    "parent": s.parent.id if s.parent is not None else None,
                    "request": s.request, "thread": s.thread,
                }) + "\n")
