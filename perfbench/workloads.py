"""The two workload runners, each using only public ``repro`` APIs.

* ``engine-hybrid`` — the paper's hybrid update experiment (Fig. 10 ratio)
  as a single-threaded closed loop over ``SPCEngine.apply``, with
  single-pair reads of the maintained index between the updates, then
  checks and a timed ``rebuild()``.
* ``serve-read`` — an :class:`~repro.serve.SPCService` with a
  closed-loop batch reader on the main thread and an open-loop submitter
  thread.  A write is timed from when it was due until the first snapshot
  publication whose applied count covers it (``set_publish_listener``).

Each runner returns a :class:`RunResult`; with a
:class:`~perfbench.tracing.Tracer` it also feeds the tracer's spans.  With
``repeat_setup=False`` (the passes of a traced run, which report no
setup_s) it sets up once instead of several times.

Timings are scaled to a reference host speed (:mod:`perfbench.hostspeed`):
each set-up by the probes taken around it, each window of a measured phase
by the probes taken in it while the program was idle, and whole-phase
figures by the median of all the phase's probes.  The scaled timings are
CPU times: of the process for a set-up, of the calling thread for an
operation.  On serve-read the figures that are mostly waits (for the
publish timer or the interpreter lock) are neither: they are wall times,
as timed.
"""

import functools
import gc
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field

import repro
from repro.datasets import clear_cache, load_dataset
from repro.exceptions import ReproError
from repro.serve import SPCService
from repro.traversal import bfs_counting_pair
from repro.workloads import DeleteEdge

from perfbench import hostspeed
from perfbench.tracing import quantile, update_key

#: an untraced run sets up at least SETUP_MIN times and, while the set-ups
#: so far took under SETUP_BUDGET_S, up to SETUP_MAX; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 8.0
#: reads are summed up per window (serve-read: of about this many seconds;
#: engine-hybrid: of the reads after WINDOW_UPDATES updates), and the read
#: metrics are medians over the windows, so that a burst of load from
#: outside the process moves one window, not the run.  Latencies are kept
#: as 32-bit floats in one array per window, so that recording them adds
#: little to peak_rss_mb.
READ_WINDOW_S = 2.0
#: engine-hybrid's windows: ten rounds of the stream's 10 inserts : 1
#: delete, so each holds the same mix.
WINDOW_UPDATES = 110
#: serve-read probes only when the next write is due at least this much
#: later (a probe takes about a millisecond).
QUIET_MARGIN_S = 0.005
#: serve-read's writer thread probes after a publish at most this often.
WRITER_PROBE_EVERY_S = 0.3

INF = float("inf")


@dataclass
class RunResult:
    """What one pass of a workload measured.

    ``metrics`` holds the end-to-end metrics and ``extra`` further ones
    printed for reading, both as ``{name: (value, unit, samples)}``; the
    timings among ``metrics`` are at the reference host speed, and
    ``timed`` holds them as timed.  ``slowdown`` is the host's median during
    the measured phase.
    """

    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    timed: dict = field(default_factory=dict)
    slowdown: float = 1.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    main_wall_s: float = 0.0     # measured phase on the driving thread
    main_op_s: float = 0.0       # its mean time per operation
    late_s: list = field(default_factory=list)
    backlog_max: int = 0

    def fail(self, count, what):
        """Count ``count`` failed operations, described by ``what``."""
        if count:
            self.failed += count
            self.problems.append(f"{count} {what}")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _open_engine(dataset, tracer):
    """Generate the dataset graph and build its index (cache off: reads
    measure the index, not a cache)."""
    clear_cache()
    graph = load_dataset(dataset)
    if tracer is None:
        return repro.open(graph, cache_size=0)
    return tracer.traced_build(lambda: repro.open(graph, cache_size=0))


def _keep_nothing(engine):
    """An engine holds nothing to release beyond its memory."""


def _timed_setups(setup, dispose, times, enough, keep):
    """Call ``setup()`` until ``enough(times)``, appending to ``times`` the
    process CPU seconds each call took and the host's slowdown around it;
    returns the last object if ``keep``, else None.

    Each object is released before the next is built, so that peak_rss_mb
    sees one set-up at a time, never two.
    """
    while True:
        before = hostspeed.probes()
        t0 = time.process_time()
        obj = setup()
        elapsed = time.process_time() - t0
        times.append((elapsed, hostspeed.setup_slowdown(
            before, hostspeed.probes())))
        if enough(times):
            break
        dispose(obj)
        obj = None
        gc.collect()
    if not keep:
        dispose(obj)
        obj = None
    gc.collect()
    return obj


# An untraced run sets up about half its times before the measured phase
# and the rest after it: the host's speed changes over seconds, and set-ups
# all made at one moment would catch a single state of it.
def _enough_before(times):
    return (len(times) >= SETUP_MAX // 2
            or sum(t for t, _ in times) >= SETUP_BUDGET_S / 2)


def _enough_after(times):
    return len(times) >= SETUP_MAX or (
        len(times) >= SETUP_MIN
        and sum(t for t, _ in times) >= SETUP_BUDGET_S)


def _once(times):
    return True


def _finish_setups(setup, dispose, times, repeat, result):
    """Make the set-ups due after the measured phase (if ``repeat``) and
    record setup_s: the median set-up time at the reference speed."""
    if repeat:
        _timed_setups(setup, dispose, times, _enough_after, keep=False)
    result.metrics["setup_s"] = (
        statistics.median(t / slowdown for t, slowdown in times), "s",
        len(times))
    result.timed["setup_s"] = statistics.median(t for t, _ in times)


def _scale(metrics, slowdown, timed):
    """Scale ``metrics`` to the reference speed in place: times divided by
    ``slowdown``, rates multiplied; the values as timed go to ``timed``."""
    for name, (value, unit, samples) in metrics.items():
        if unit in ("s", "ms", "us"):
            timed[name] = value
            metrics[name] = (value / slowdown, unit, samples)
        elif unit == "1/s":
            timed[name] = value
            metrics[name] = (value * slowdown, unit, samples)


def _over(windows, slowdowns, summary, rate=False):
    """Median over the windows of ``summary(window)``, each divided by its
    window's slowdown (multiplied, for a ``rate``)."""
    return statistics.median(
        summary(w) * (slow if rate else 1.0 / slow)
        for w, slow in zip(windows, slowdowns) if w)


def _answer_ok(s, t, answer):
    """Shape check of one (sd, spc) answer on a connected-or-not graph."""
    d, c = answer
    if d == INF:
        return c == 0
    return c >= 1 and (d == 0) == (s == t)


def _batch_ok(batch, answers):
    return len(answers) == len(batch) and all(
        _answer_ok(s, t, a) for (s, t), a in zip(batch, answers))


def run_engine_hybrid(inputs, seconds, workdir, tracer=None,
                      repeat_setup=True):
    """The closed-loop IncSPC/DecSPC stream on STA with reads between the
    updates, then checks and a timed rebuild.

    The stream is a fixed amount of work (so its counts repeat exactly);
    ``seconds`` and ``workdir`` are unused.
    """
    del seconds, workdir
    result = RunResult()
    setup = functools.partial(_open_engine, inputs.dataset, tracer)
    times = []
    before = _enough_before if repeat_setup else _once
    engine = _timed_setups(setup, _keep_nothing, times, before, keep=True)
    requests = {update_key(u): i for i, u in enumerate(inputs.updates)}
    if tracer is not None:
        tracer.instrument_engine(engine, requests)

    # Reads are interleaved with the updates, a fixed share after each, so
    # that they sample the whole stream: the host's speed drifts over
    # seconds, and one short read phase would catch a single state of it.
    updates, pairs = inputs.updates, inputs.reads
    per_update = len(pairs) // len(updates)
    windows, write_windows, answers, inserts, deletes = [], [], [], [], []
    speeds = []
    # Calls are timed in the loop's thread CPU time (see hostspeed): the loop
    # is the only thread, so it is the wall time less the waits for a vCPU.
    perf, cpu = time.perf_counter, time.thread_time
    if tracer is not None:
        tracer.start_phase()
    t_phase = perf()
    for k, update in enumerate(updates):
        t0 = cpu()
        try:
            engine.apply(update)
        except ReproError as exc:
            result.fail(1, f"failed apply {update!r}: {exc!r}")
        dt = cpu() - t0
        delete = isinstance(update, DeleteEdge)
        (deletes if delete else inserts).append(dt)
        if k % WINDOW_UPDATES == 0:
            windows.append(array("f"))
            record = windows[-1].append
            write_windows.append([])
            speed = hostspeed.HostSpeed()
            speeds.append(speed)
        write_windows[-1].append((dt, delete))
        last = len(pairs) if k == len(updates) - 1 else (k + 1) * per_update
        for s, t in pairs[k * per_update:last]:
            t0 = cpu()
            answer = engine.query(s, t)
            record(cpu() - t0)
            answers.append(answer)
        speed.maybe_sample(perf())
    result.main_wall_s = perf() - t_phase
    result.main_op_s = sum(inserts + deletes) / len(updates)
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    # Checks: answer shapes; the maintained index against BFS ground truth,
    # its invariants, and a full rebuild on every read pair.
    result.fail(sum(not _answer_ok(s, t, a)
                    for (s, t), a in zip(pairs, answers)), "malformed answers")
    try:
        engine.check(sample_pairs=inputs.check_pairs)
        engine.check_invariants()
    except ReproError as exc:
        result.fail(1, f"failed check of the maintained index: {exc!r}")
    maintained = [engine.query(s, t) for s, t in pairs]
    t0 = cpu()
    engine.rebuild()
    rebuild_s = cpu() - t0
    result.fail(sum(engine.query(s, t) != a
                    for (s, t), a in zip(pairs, maintained)),
                "read pairs differ between the maintained and a rebuilt index")

    result.attempted = len(updates) + len(pairs)
    reads, writes = len(pairs), len(updates)

    def figures(slowdowns):
        """The gated figures at the given per-window slowdowns.  Write
        percentiles are taken over the whole run's inserts (the writes
        serve-read makes), each scaled by its window's slowdown: over all
        writes, p90 would sit on the tenth slowest insert, as the deletes
        are the slowest 9%, and swing with the seed; deletes count in
        updates_per_s."""
        scaled = [(dt / slow, delete)
                  for w, slow in zip(write_windows, slowdowns)
                  for dt, delete in w]
        visible = [dt for dt, delete in scaled if not delete]
        return {
            "read_p50_us": (_over(windows, slowdowns,
                                  lambda w: quantile(w, 0.5)) * 1e6,
                            "us", reads),
            "read_p99_us": (_over(windows, slowdowns,
                                  lambda w: quantile(w, 0.99)) * 1e6,
                            "us", reads),
            "read_pairs_per_s": (_over(windows, slowdowns,
                                       lambda w: len(w) / sum(w), rate=True),
                                 "1/s", reads),
            "write_visible_p50_ms": (quantile(visible, 0.5) * 1e3, "ms",
                                     len(visible)),
            "write_visible_p90_ms": (quantile(visible, 0.9) * 1e3, "ms",
                                     len(visible)),
            "updates_per_s": (writes / sum(dt for dt, _ in scaled), "1/s",
                              writes),
        }

    slowdowns, result.slowdown = hostspeed.slowdowns(speeds)
    result.metrics = dict(figures(slowdowns),
                          peak_rss_mb=(peak_rss_mb, "MB", 1))
    result.timed = {name: value for name, (value, _, _)
                    in figures([1.0] * len(speeds)).items()}
    result.extra = {
        "read_p999_us": (quantile([x for w in windows for x in w], 0.999)
                         * 1e6, "us", reads),
        "insert_p50_ms": (quantile(inserts, 0.5) * 1e3, "ms", len(inserts)),
        "insert_p99_ms": (quantile(inserts, 0.99) * 1e3, "ms", len(inserts)),
        "delete_p50_ms": (quantile(deletes, 0.5) * 1e3, "ms", len(deletes)),
        "delete_p90_ms": (quantile(deletes, 0.9) * 1e3, "ms", len(deletes)),
        "rebuild_s": (rebuild_s, "s", 1),
        "read_windows": (len(windows), "count", len(windows)),
    }
    _scale(result.extra, result.slowdown, result.timed)
    del engine  # one set-up at a time, as before the phase
    _finish_setups(setup, _keep_nothing, times, repeat_setup, result)
    return result


def _open_service(dataset, workdir, tracer):
    engine = _open_engine(dataset, tracer)
    return SPCService(engine, durability_dir=tempfile.mkdtemp(dir=workdir))


def _dispose_service(service):
    service.close()
    shutil.rmtree(service.config.durability_dir, ignore_errors=True)


def run_serve(inputs, seconds, workdir, tracer=None, repeat_setup=True):
    """An SPCService under a closed-loop reader of ``query_many`` batches
    and an open-loop writer; reading stops after ``seconds``, then the run
    waits for every scheduled write to become visible.
    """
    result = RunResult()
    setup = functools.partial(_open_service, inputs.dataset, workdir, tracer)
    times = []
    before = _enough_before if repeat_setup else _once
    service = _timed_setups(setup, _dispose_service, times, before, keep=True)
    try:
        _drive_service(service, inputs, seconds, tracer, result)
    finally:
        if tracer is not None:
            tracer.uninstall()
        _dispose_service(service)
    del service
    _finish_setups(setup, _dispose_service, times, repeat_setup, result)
    return result


def _time_applies(engine):
    """Record the CPU seconds of each ``engine.apply`` on the thread that
    calls it (the service's writer), leaving out its waits for the
    interpreter lock, which the reader holds most of the time."""
    apply, cpu = engine.apply, time.thread_time
    seconds = []

    def timed_apply(update):
        c0 = cpu()
        try:
            return apply(update)
        finally:
            seconds.append(cpu() - c0)

    engine.apply = timed_apply
    return seconds


def _drive_service(service, inputs, seconds, tracer, result):
    updates, due_s = inputs.updates, inputs.due_s
    n = len(updates)
    publishes = []  # (time, updates covered), appended on the writer thread
    # The writer's own probes, taken after a publish (it then waits for the
    # next write): its vCPU's speed is not the reader's.
    writer_speed = hostspeed.HostSpeed(every=WRITER_PROBE_EVERY_S)

    def on_publish():
        stats = service.stats()
        now = time.perf_counter()
        publishes.append((now, stats["applied_updates"]
                          + stats["cancelled_updates"]))
        writer_speed.maybe_sample(now)

    service.set_publish_listener(on_publish)
    submitted = [0.0] * n
    issued = [0]  # writes handed to submit so far
    late = [0.0] * n
    submit_errors = []
    backlog = [0]
    requests = {update_key(u): i for i, u in enumerate(updates)}
    apply_cpu = _time_applies(service.engine)
    if tracer is not None:
        tracer.instrument_service(service, requests, submitted)

    read = service.query_many
    if tracer is not None:
        read = tracer.traced_read(read)
    batches = inputs.reads
    perf = time.perf_counter

    def submitter():
        for i, update in enumerate(updates):
            due = start + due_s[i]
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            now = perf()
            submitted[i], late[i] = now, now - due
            issued[0] = i + 1
            try:
                service.submit(update)
            except ReproError as exc:
                submit_errors.append(exc)
            backlog[0] = max(backlog[0], service.stats()["queue_depth"])

    per_call = len(batches[0])
    window_s = seconds / max(1, round(seconds / READ_WINDOW_S))
    windows = [array("f")]
    record = windows[-1].append
    speeds = [hostspeed.HostSpeed()]
    bad = i = 0
    pool = len(batches)
    if tracer is not None:
        tracer.start_phase()
    start = perf()
    end = start + seconds
    window_end = start + window_s
    thread = threading.Thread(target=submitter, name="perfbench-submitter")
    thread.start()
    try:
        while True:
            t0 = perf()
            if t0 >= end:
                break
            if t0 >= window_end:
                windows.append(array("f"))
                record = windows[-1].append
                speeds.append(hostspeed.HostSpeed())
                skipped = int((t0 - window_end) / window_s)
                window_end += window_s * (1 + skipped)
            batch = batches[i]
            i = i + 1 if i + 1 < pool else 0
            answers = read(batch)
            now = perf()
            record(now - t0)
            if not _batch_ok(batch, answers):
                bad += 1
            # Probe only while the writer is idle: all sent is published
            # and the next write is not due yet.
            k = issued[0]
            if ((k == 0 or (publishes and publishes[-1][1] >= k))
                    and (k == n or start + due_s[k] - now > QUIET_MARGIN_S)):
                speeds[-1].maybe_sample(now)
    finally:
        thread.join()
    result.main_wall_s = perf() - start
    service.flush(timeout=60.0)
    peak_rss_mb = _peak_rss_mb()
    latencies = [x for window in windows for x in window]

    # Visibility: write i shows at the first publish covering i + 1 updates.
    visible, hidden, j = [], 0, 0
    for k in range(n):
        while j < len(publishes) and publishes[j][1] < k + 1:
            j += 1
        if j == len(publishes):
            hidden += 1
        else:
            visible.append(publishes[j][0] - (start + due_s[k]))

    # Final state: the published snapshot must match BFS ground truth.
    snapshot = service.snapshot()
    if tracer is not None:
        tracer.uninstall()
    service.close()
    graph = service.engine.graph
    mismatches = sum(snapshot.query(s, t) != bfs_counting_pair(graph, s, t)
                     for s, t in inputs.check_pairs)
    result.fail(bad, "malformed answers")
    result.fail(hidden, "writes never visible")
    result.fail(len(submit_errors), "refused submissions")
    result.fail(len(service.errors), "writer errors")
    result.fail(mismatches, "check pairs differ from BFS")
    result.fail(int(snapshot.seq != service.applied_seq),
                "final snapshot behind the last applied batch")

    reads = len(latencies)
    pairs = reads * per_call
    result.attempted = reads + n
    result.main_op_s = sum(latencies) / pairs
    result.late_s = late
    result.backlog_max = backlog[0]

    def figures(slowdowns, slowdown):
        """The reader's figures at the given per-window slowdowns, and the
        writer's apply rate at the writer's ``slowdown``."""
        return {
            "read_p50_us": (_over(windows, slowdowns,
                                  lambda w: quantile(w, 0.5)) * 1e6,
                            "us", reads),
            "read_pairs_per_s": (
                _over(windows, slowdowns,
                      lambda w: len(w) * per_call / sum(w), rate=True),
                "1/s", pairs),
            "updates_per_s": (len(apply_cpu) / sum(apply_cpu) * slowdown,
                              "1/s", len(apply_cpu)),
        }

    slowdowns, result.slowdown = hostspeed.slowdowns(speeds)
    writer_slowdown = (writer_speed.slowdown() if writer_speed.samples
                       else result.slowdown)
    ones = [1.0] * len(windows)
    result.timed = {name: value for name, (value, _, _)
                    in figures(ones, 1.0).items()}
    # Reported as timed: the visibility of writes, mostly the service's
    # 50 ms publish staleness timer plus the writer's work beside the
    # reader; and the read tail, a wait for the writer to yield the
    # interpreter lock (its 5 ms switch interval).  Neither scales with the
    # host's speed.
    result.metrics = dict(
        figures(slowdowns, writer_slowdown),
        read_p99_us=(_over(windows, ones, lambda w: quantile(w, 0.99))
                     * 1e6, "us", reads),
        write_visible_p50_ms=(quantile(visible, 0.5) * 1e3, "ms",
                              len(visible)),
        write_visible_p90_ms=(quantile(visible, 0.9) * 1e3, "ms",
                              len(visible)),
        peak_rss_mb=(peak_rss_mb, "MB", 1))
    result.extra = {
        "read_p999_us": (quantile(latencies, 0.999) * 1e6, "us", reads),
        "read_windows": (len(windows), "count", len(windows)),
        "quiet_probes": (sum(len(s.samples) for s in speeds), "count", ""),
        "writer_slowdown": (writer_slowdown, "ratio",
                            len(writer_speed.samples)),
        "writes": (n, "count", n),
    }


RUNNERS = {
    "engine-hybrid": run_engine_hybrid,
    "serve-read": run_serve,
}


def make_workdir(root):
    """A private working directory under ``root`` for durability files."""
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=root)
