"""Multi-threaded load generator for the serving layer.

Drives mixed read/update traffic against an :class:`~repro.serve.SPCService`
— N reader threads issuing point and batch queries against pinned
snapshots, one submitter feeding a cyclic update stream (k fresh edge
insertions, then their deletions in reverse, so the stream is valid
forever and the graph orbits its initial state) — and reports throughput,
read-latency percentiles, and snapshot staleness.

Two kinds of failure are checked *while* generating load, and raise
:class:`~repro.exceptions.ServeError` (this is what the CI serve-smoke job
trips on — never on timing):

* **snapshot regression** — a reader observing a snapshot with a lower
  sequence number than one it already held (publication must be monotone);
* **torn reads** — the same pair queried twice on one pinned snapshot
  answering differently, or a batch answer disagreeing with its point
  answers, or a malformed answer (finite distance with zero count, or an
  infinite distance with a nonzero count).

After the run the engine's structural invariants are validated too
(``check_invariants``), so index corruption under concurrency cannot slip
through as a plausible-looking wrong answer.

Wired into the benchmark CLI as ``repro-bench serve`` (results land in
``bench_results/serve.json``); importable directly via
:func:`run_loadgen` for ad-hoc profiling.

This module also holds the one load driver that every threaded harness
(serve, cluster, audit, shard, chaos) runs on: :func:`_run_load` with its
reader, submitter and absolute fault-schedule loops.  The lifecycle
around it is here too, shared with replay: :class:`_Harness` (state
dir, telemetry, teardown) and :func:`_load_report` (the report fields
over the read window).  DESIGN.md §10 states their contract.
"""

import random
import shutil
import tempfile
import threading
import time

from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ReproError, ServeError
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from repro.serve.service import ServeConfig, SPCService
from repro.workloads.updates import random_insertions

#: how a loadgen graph is synthesized per backend name.
_GRAPH_MAKERS = {
    "core": erdos_renyi,
    "sd": erdos_renyi,
    "directed": random_directed,
    "weighted": random_weighted,
}


def _percentile(sorted_values, q):
    """repro.bench.timing.percentile, imported lazily.

    The module-level import would be circular (``repro.bench.__init__``
    pulls in the runner, which registers :mod:`repro.bench.serve`, which
    imports this module); by call time the cycle has resolved.
    """
    from repro.bench.timing import percentile

    return percentile(sorted_values, q)


def make_workload(backend, n, m, seed=0, churn=40):
    """Build (graph, update_cycle, query_pairs) for one loadgen run.

    The update cycle inserts ``churn`` fresh edges then deletes them in
    reverse order — applying it end-to-end returns the graph to its
    initial state, so the submitter can loop it indefinitely and every
    prefix is a valid update stream.
    """
    try:
        maker = _GRAPH_MAKERS[backend]
    except KeyError:
        raise ServeError(
            f"loadgen knows no backend {backend!r}; "
            f"choose from {sorted(_GRAPH_MAKERS)}"
        ) from None
    graph = maker(n, m, seed=seed)
    insertions = random_insertions(graph, churn, seed=seed + 1)
    cycle = list(insertions) + [u.undo() for u in reversed(insertions)]
    rng = random.Random(seed + 2)
    vertices = sorted(graph.vertices())
    pairs = [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(512)
    ]
    return graph, cycle, pairs


def make_pair_picker(source_picker, vertices, seed, picker_kwargs=None):
    """Resolve the shared :class:`~repro.replay.traffic.SourcePicker` seam.

    Every loadgen reader (serve, cluster, audit) routes its pair choice
    through this: ``None`` keeps the legacy uniform pairs-table draw
    (default behavior unchanged), a picker name ("uniform" / "zipf" /
    "hotset") builds a seeded picker over the workload's vertices so any
    harness can run skew-shaped traffic.  Imported lazily —
    :mod:`repro.replay` drives these harnesses, so the module-level
    import would be circular.
    """
    if source_picker is None:
        return None
    from repro.replay.traffic import make_source_picker

    return make_source_picker(
        source_picker, vertices, seed=seed, **(picker_kwargs or {})
    )


def _next_pair(pairs, rng, picker):
    """One (s, t) draw: the picker seam, or the legacy pairs table."""
    if picker is not None:
        return picker.pick_pair()
    return pairs[rng.randrange(len(pairs))]


def _check_answer(s, t, answer, problems, seq=None):
    """Flag a structurally impossible (distance, count) answer.

    The shape rule lives in :func:`repro.audit.comparator
    .check_answer_shape` — the audit stack's single definition of
    "malformed" — imported lazily because :mod:`repro.audit.loadgen`
    imports this module.  ``seq`` names the snapshot that served the
    answer, when the caller has one.
    """
    from repro.audit.comparator import check_answer_shape

    reason = check_answer_shape(answer)
    if reason is not None:
        where = f" at seq {seq}" if seq is not None else ""
        problems.append(f"malformed answer for ({s},{t}){where}: {reason}")


def _latency_ms(latencies):
    """p50/p99 of a sorted list of seconds, in milliseconds."""
    return {
        "p50": round(_percentile(latencies, 50) * 1e3, 4),
        "p99": round(_percentile(latencies, 99) * 1e3, 4),
    }


# -- the one load driver ----------------------------------------------------


class _Reader:
    """One reader thread's harness half of :func:`_reader_loop`.

    ``read(s, t)`` is the timed point read and ``read_many(batch)`` the
    batch of 8 taken every 64 reads.  Subclasses judge what those return
    (``judge`` / ``judge_many`` append to ``problems``) and keep any
    per-thread counters their report merges; ``before`` runs untimed just
    before each call.  The loop fills ``reads``, ``refusals``,
    ``latencies`` and ``batch_latencies``.
    """

    def __init__(self, read, read_many):
        self.read = read
        self.read_many = read_many
        self.problems = []
        self.reads = 0
        self.refusals = 0
        self.latencies = []
        self.batch_latencies = []

    def before(self):
        pass

    def judge(self, s, t, out):
        pass

    def judge_many(self, batch, out):
        pass


def _reader_loop(reader, pairs, seed, picker, refusal, stop, deadline):
    """Read until the deadline or ``stop``.

    An exception of a ``refusal`` type is the fleet's designed degraded
    mode: counted, never a failure (a refused point read pauses briefly
    so the loop does not hot-spin against a down fleet).  Anything else
    is recorded as a crash — a dead reader must fail the run, not
    silently shrink the sample.
    """
    rng = random.Random(seed)
    # The point-read path is hot: bind its per-read calls once.
    read, judge, before = reader.read, reader.judge, reader.before
    latencies = reader.latencies
    try:
        while not stop.is_set() and time.time() < deadline:
            s, t = _next_pair(pairs, rng, picker)
            before()
            start = time.perf_counter()
            try:
                out = read(s, t)
            except refusal:
                reader.refusals += 1
                time.sleep(0.002)
                continue
            latencies.append(time.perf_counter() - start)
            reader.reads += 1
            judge(s, t, out)
            if reader.reads % 64 == 0:
                batch = [_next_pair(pairs, rng, picker) for _ in range(8)]
                before()
                start = time.perf_counter()
                try:
                    out = reader.read_many(batch)
                except refusal:
                    reader.refusals += 1
                    continue
                reader.batch_latencies.append(time.perf_counter() - start)
                reader.reads += len(batch)
                reader.judge_many(batch, out)
    except Exception as exc:  # noqa: BLE001 — surfaced as a run failure
        reader.problems.append(f"reader thread crashed: {exc!r}")


def _submitter_loop(submit, cycle, batch_size, pause, stop, deadline, record):
    """Feed the cyclic update stream to ``submit`` until the run ends."""
    submitted = 0
    i = 0
    record["problems"] = problems = []
    try:
        while cycle and not stop.is_set() and time.time() < deadline:
            chunk = cycle[i:i + batch_size]
            if not chunk:
                i = 0
                continue
            submit(chunk)
            submitted += len(chunk)
            i = (i + len(chunk)) % len(cycle)
            if pause:
                time.sleep(pause)
    except Exception as exc:  # noqa: BLE001 — surfaced as a run failure
        problems.append(f"submitter thread crashed: {exc!r}")
    record["submitted"] = submitted


def _fault_loop(schedule, started, duration, stop, problems):
    """Fire each ``(fraction, step)`` at ``started + fraction·duration``.

    The schedule is absolute, never relative to the previous step: a
    step that blocks (killing a member joins its thread, which under
    reader load can take a sizable slice of a short run) delays only the
    steps whose time it overruns, so no drift accumulates.  A step whose
    time comes only after the deadline, or after ``stop``, is recorded as
    a missed window, never skipped silently; a step that raises ends the
    schedule as a crash.
    """
    deadline = started + duration
    try:
        for fraction, step in schedule:
            stop.wait(max(0.0, started + fraction * duration - time.time()))
            if stop.is_set() or time.time() >= deadline:
                problems.append(
                    f"{step.__name__} at {fraction}·T missed its injection "
                    f"window (raise duration above {duration} s)"
                )
                continue
            step()
    except Exception as exc:  # noqa: BLE001 — a failed injection is a failure
        problems.append(f"fault controller crashed: {exc!r}")


def _run_load(name, readers, pairs, seed, submit, cycle, batch_size, pause,
              duration, refusal=(), picker=None, faults=(), main=None):
    """Run one deadline-driven load and merge what its threads saw.

    Starts one thread per :class:`_Reader` (seeded ``seed + i``, with
    ``picker(seed + i)`` as its pair picker when given), one submitter
    looping ``cycle`` through ``submit``, and, when ``faults`` is
    non-empty, one controller running that absolute schedule.  The
    calling thread runs ``main(deadline)``, or sleeps out the deadline.
    When it returns or raises, ``stop`` is set and every thread joined.

    Returns ``started``/``ended`` wall times and the merged ``reads``,
    ``refusals``, sorted ``latencies`` and ``batch_latencies``,
    ``submitted`` and ``problems``.
    """
    stop = threading.Event()
    started = time.time()
    deadline = started + duration
    submit_record = {}
    fault_problems = []
    threads = [
        threading.Thread(
            target=_reader_loop,
            args=(reader, pairs, seed + i,
                  picker(seed + i) if picker else None, refusal, stop,
                  deadline),
            name=f"{name}-reader-{i}",
        )
        for i, reader in enumerate(readers)
    ]
    threads.append(threading.Thread(
        target=_submitter_loop,
        args=(submit, cycle, batch_size, pause, stop, deadline,
              submit_record),
        name=f"{name}-submitter",
    ))
    if faults:
        threads.append(threading.Thread(
            target=_fault_loop,
            args=(faults, started, duration, stop, fault_problems),
            name=f"{name}-fault-controller",
        ))
    try:
        for t in threads:
            t.start()
        if main is None:
            time.sleep(max(0.0, deadline - time.time()))
        else:
            main(deadline)
    finally:
        stop.set()
        for t in threads:
            t.join()
    return {
        "started": started,
        "ended": time.time(),
        "reads": sum(r.reads for r in readers),
        "refusals": sum(r.refusals for r in readers),
        "latencies": sorted(lat for r in readers for lat in r.latencies),
        "batch_latencies": sorted(
            lat for r in readers for lat in r.batch_latencies
        ),
        "submitted": submit_record.get("submitted", 0),
        "problems": [p for r in readers for p in r.problems]
        + submit_record.get("problems", []) + fault_problems,
    }


def _load_report(run):
    """The report fields every ``_run_load`` harness shares.

    All of them cover the read window, ``run["ended"] - run["started"]``:
    a harness's post-run flush, sync or drain is not load.
    """
    elapsed = run["ended"] - run["started"]
    reads = run["reads"]
    return {
        "duration_s": round(elapsed, 3),
        "reads": reads,
        "read_qps": round(reads / elapsed) if elapsed else 0,
        "read_latency_ms": _latency_ms(run["latencies"]),
        "updates_submitted": run["submitted"],
    }


class _Harness:
    """The lifecycle every threaded harness shares around its load.

    A context manager holding the run's state dir, its telemetry and its
    teardown:

    * ``state_dir``: the given dir, or with ``make_dir`` a fresh
      ``repro-<name>-*`` temp dir.  Only a dir made here is removed.
    * ``registry``/``tracer``: live only when ``telemetry`` names a
      directory; :meth:`instrument` binds them to the fleet and
      :meth:`write_telemetry` writes them there.
    * teardown: every closer passed to :meth:`own` is closed, last owned
      first, on every exit path.  Close errors are swallowed so a failure
      already raised stays the one reported.  Closers are idempotent, so
      one the harness closed first on its success path (:meth:`close`
      records the failure as a problem) closes again as a no-op.
    """

    def __init__(self, name, state_dir=None, telemetry=None, make_dir=True):
        self.telemetry = telemetry
        self.registry = self.tracer = None
        if telemetry is not None:
            from repro.obs import MetricsRegistry, Tracer

            self.registry = MetricsRegistry()
            self.tracer = Tracer()
        self.own_dir = make_dir and state_dir is None
        self.state_dir = (tempfile.mkdtemp(prefix=f"repro-{name}-")
                          if self.own_dir else state_dir)
        self._closers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for closer in reversed(self._closers):
            try:
                closer.close()
            except (ReproError, OSError):
                pass
        if self.own_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)
        return False

    def own(self, closer):
        """Close ``closer`` at teardown; returns it."""
        self._closers.append(closer)
        return closer

    def close(self, closer, problems, errors):
        """Close ``closer`` now; an ``errors`` failure is a problem."""
        try:
            closer.close()
        except errors as exc:
            problems.append(f"shutdown failure: {exc}")

    def instrument(self, fleet, *parts):
        """Bind the run's registry and tracer to ``fleet`` and the
        registry to each of ``parts``; a no-op without telemetry."""
        if self.registry is not None:
            fleet.set_metrics(self.registry, tracer=self.tracer)
            for part in parts:
                part.set_metrics(self.registry)

    def write_telemetry(self, stem):
        """Write ``<stem>.prom``/``.json``; their paths, or ``None``
        without telemetry."""
        if self.registry is None:
            return None
        from repro.obs.export import write_files

        return list(write_files(self.registry, self.telemetry,
                                tracer=self.tracer, stem=stem))


class _ServeReader(_Reader):
    """Point reads on a freshly pinned snapshot, judged for snapshot
    regression, malformed answers and torn reads; each batch re-asks the
    same pinned snapshot and must agree with its point answers."""

    def __init__(self, service):
        super().__init__(self._pin_and_query, self._query_pinned)
        self.service = service
        self.snap = None
        self.last_seq = -1

    def _pin_and_query(self, s, t):
        snap = self.service.snapshot()
        return snap, snap.query(s, t)

    def _query_pinned(self, batch):
        return self.snap.query_many(batch)

    def judge(self, s, t, out):
        snap, answer = out
        self.snap = snap
        if snap.seq < self.last_seq:
            self.problems.append(
                f"snapshot regressed: seq {snap.seq} after {self.last_seq}"
            )
        self.last_seq = snap.seq
        _check_answer(s, t, answer, self.problems, seq=snap.seq)
        if self.reads % 16 == 0:
            # Torn-read probe: a pinned snapshot must answer identically
            # forever, even while the writer publishes newer epochs.
            again = snap.query(s, t)
            if again != answer:
                self.problems.append(
                    f"torn read on ({s},{t}) at seq {snap.seq}: "
                    f"{answer!r} then {again!r}"
                )

    def judge_many(self, batch, answers):
        for (bs, bt), ba in zip(batch, answers):
            if ba != self.snap.query(bs, bt):
                self.problems.append(
                    f"query_many({bs},{bt}) disagreed with query "
                    f"at seq {self.snap.seq}"
                )


def run_loadgen(backend="core", readers=4, duration=1.0, n=300, m=900,
                churn=40, batch_size=8, pause=0.001, seed=0,
                publish_every=16, max_staleness=0.02, durability_dir=None,
                source_picker=None, picker_kwargs=None, telemetry=None,
                strict=True):
    """Run one mixed read/update load against a fresh service.

    Returns a JSON-safe report dict; with ``strict`` (the default) any
    observed inconsistency raises :class:`~repro.exceptions.ServeError`
    listing every problem — timing numbers never fail the run.  With
    ``telemetry`` set to a directory, the run is instrumented end to end
    (:meth:`~repro.serve.SPCService.set_metrics`) and its registry is
    written there as a ``serve-<backend>.prom``/``.json`` pair.
    """
    graph, cycle, pairs = make_workload(backend, n, m, seed=seed, churn=churn)
    vertices = sorted(graph.vertices())
    engine = SPCEngine(graph, config=EngineConfig(backend=backend))
    config = ServeConfig(
        publish_every=publish_every,
        max_staleness=max_staleness,
        queue_capacity=4096,
        durability_dir=durability_dir,
    )
    lag_samples, staleness_samples = [], []

    with _Harness("serve", telemetry=telemetry, make_dir=False) as h:
        service = h.own(SPCService(engine, config=config, overwrite=True))
        h.instrument(service, engine)

        def sample_lag(deadline):
            while time.time() < deadline:
                lag_samples.append(service.lag())
                staleness_samples.append(service.staleness())
                time.sleep(0.01)

        run = _run_load(
            "loadgen", [_ServeReader(service) for _ in range(readers)],
            pairs, seed + 10, service.submit_many, cycle, batch_size, pause,
            duration, main=sample_lag,
            picker=lambda sd: make_pair_picker(source_picker, vertices, sd,
                                               picker_kwargs),
        )
        # Publish-on-idle contract: once the submitter stops, the writer
        # must drain and publish without a flush.  Judges progress only.
        deadline = time.monotonic() + 5.0
        while service.stats()["queue_depth"] or service.lag():
            if time.monotonic() >= deadline:
                run["problems"].append(
                    "idle writer left applied batches unpublished")
                break
            time.sleep(0.005)
        service.flush()
        stats = service.stats()
        telemetry_paths = h.write_telemetry(f"serve-{backend}")
        service.close()
    engine.check_invariants()

    problems = run["problems"]
    latencies = run["latencies"]
    report = {
        "backend": backend,
        "readers": readers,
        "graph": {"n": n, "m": m},
        **_load_report(run),
        # query_many-of-8 timings, kept out of the point-read percentiles
        # so p99 tracks single-read latency, not the batch mix.
        "batch_latency_ms": _latency_ms(run["batch_latencies"]),
        "updates_applied": stats["applied_updates"],
        "updates_cancelled": stats["cancelled_updates"],
        "applied_batches": stats["applied_batches"],
        "snapshots_published": stats["snapshots_published"],
        "lag_batches": {
            "mean": round(
                sum(lag_samples) / len(lag_samples) if lag_samples else 0.0, 3
            ),
            "max": max(lag_samples, default=0),
        },
        "staleness_ms": {
            "mean": round(
                (sum(staleness_samples) / len(staleness_samples)
                 if staleness_samples else 0.0) * 1e3,
                3,
            ),
            "max": round(max(staleness_samples, default=0.0) * 1e3, 3),
        },
        "update_errors": len(service.errors),
        "consistency_problems": problems,
    }
    report["read_latency_ms"].update(
        max=round((latencies[-1] if latencies else 0.0) * 1e3, 4),
        mean=round(
            (sum(latencies) / len(latencies) if latencies else 0.0) * 1e3, 4
        ),
    )
    if telemetry_paths is not None:
        report["telemetry"] = telemetry_paths
    if service.errors:
        # The cyclic stream is valid by construction; a rejected update
        # means the service lost an edge somewhere — that is a failure.
        problems.extend(
            f"update rejected: {u!r}: {exc}" for u, exc in service.errors
        )
    if strict and problems:
        preview = "; ".join(problems[:5])
        raise ServeError(
            f"loadgen observed {len(problems)} inconsistencies "
            f"({report['backend']} backend): {preview}"
        )
    return report
