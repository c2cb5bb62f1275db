"""The replay engine: pace a precomputed plan against a live fleet.

:func:`run_replay_scenario` interprets one declarative
:class:`~repro.replay.scenario.ReplayScenario`: it loads the scenario's
temporal corpus, builds a deterministic :class:`~repro.replay.plan
.ReplayPlan` (bootstrap cut + batched write tail + full read schedule —
all randomness spent before the clock starts), stands up the scenario's
fleet (:class:`~repro.serve.SPCService`, :class:`~repro.cluster
.SPCCluster` or :class:`~repro.shard.ShardedCluster`) with the audit
stack tapped on the read path, and replays:

* a **writer** submits the tail batches at their virtual deadlines
  (virtual time → wall time via the plan's ``time_scale``), running
  open-loop: a batch whose deadline has passed is submitted immediately
  and its lag *accounted* (``late_batches`` / ``max_lag``), never
  dropped — backpressure shows up in the report, not in the replayed
  sequence;
* **readers** walk round-robin slices of the read schedule the same
  way: every planned query is issued exactly once (a refusal — the
  fleet's designed degraded mode — is counted and *not* retried, so the
  issued sequence stays deterministic);
* the scenario's :class:`~repro.replay.scenario.FaultSpec` schedule
  fires at its run fractions on the threaded harnesses' absolute fault
  loop (:func:`repro.serve.loadgen._fault_loop`): a step that only comes
  around after the run's deadline is a missed injection window.

The state dir, telemetry and teardown are the threaded harnesses'
(:class:`repro.serve.loadgen._Harness`), and the audit is one
:class:`~repro.audit.shadow.AuditSession`.

The strict contract follows the house rule — consistency is judged,
timing never: zero shadow-audit divergences, a non-trivial audit count,
refusals only where a fault schedule explains them, and recovery after
a restart.  Wired into the benchmark CLI as ``repro-bench replay``.
"""

import threading
import time

from repro.audit.shadow import AuditSession
from repro.cluster.cluster import SPCCluster
from repro.engine import EngineConfig, SPCEngine
from repro.exceptions import ClusterError, ServeError
from repro.replay.plan import ReplayPlan
from repro.replay.scenario import ReplayScenario, get_scenario
from repro.serve.loadgen import (
    _check_answer,
    _fault_loop,
    _Harness,
    _latency_ms,
)
from repro.serve.service import ServeConfig, SPCService
from repro.shard.shardcluster import ShardedCluster


class _Fleet:
    """The seams the replay threads need, over a bare service or a fleet.

    A :class:`~repro.serve.fleet.Fleet` already offers submit, read, tap
    and telemetry like a service does; what differs is only whether there
    are followers to converge (``quiesce``) and members to fault.
    """

    def __init__(self, scenario, engine, state_dir):
        self.kind = scenario.fleet
        serve_config = ServeConfig(queue_capacity=4096)
        if self.kind == "service":
            self.impl = self.primary = SPCService(
                engine,
                config=serve_config.replace(durability_dir=state_dir),
                overwrite=True,
            )
        else:
            if self.kind == "cluster":
                fleet_type, size = SPCCluster, {"replicas": scenario.replicas}
            else:
                fleet_type, size = ShardedCluster, {"shards": scenario.shards}
            self.impl = fleet_type(
                engine, state_dir, serve_config=serve_config, overwrite=True,
                **size,
            )
            self.primary = self.impl.primary
        self.submit_many = self.impl.submit_many
        self.query = self.impl.query
        self.set_answer_tap = self.impl.set_answer_tap
        self.set_metrics = self.impl.set_metrics

    def apply_fault(self, fault):
        if self.kind == "service" or fault.action not in (
            "kill_shard", "restart_shard"
        ):
            raise ServeError(
                f"fleet {self.kind!r} cannot apply fault {fault.action!r}"
            )
        if fault.action == "kill_shard":
            self.impl.kill(fault.target)
        else:
            self.impl.restart(fault.target)

    def quiesce(self, timeout=30.0):
        """Apply everything submitted (and converge followers)."""
        if self.kind == "service":
            self.impl.flush(timeout=timeout)
        else:
            self.impl.sync(timeout=timeout)


def _writer_loop(fleet, plan, start, record, pacing_hist=None):
    """Submit every batch at its virtual deadline; account lateness.

    ``pacing_hist`` is the telemetry seam: a :class:`~repro.obs
    .Histogram` that receives every batch's pacing lag (0 for a batch
    submitted on time — the histogram's zero bucket keeps the count per
    batch, so lag coverage is visible, not just lag magnitude).
    """
    problems = []
    submitted = 0
    late = 0
    max_lag = 0.0
    try:
        for virtual_ts, updates in plan.batches:
            due = start + plan.wall_offset(virtual_ts)
            now = time.time()
            lag = 0.0
            if now < due:
                time.sleep(due - now)
            else:
                lag = now - due
                if lag > 0.001:
                    late += 1
                    max_lag = max(max_lag, lag)
            if pacing_hist is not None:
                pacing_hist.observe(lag)
            fleet.submit_many(updates)
            submitted += len(updates)
    except Exception as exc:  # noqa: BLE001 — a dead writer fails the run
        problems.append(f"writer thread crashed: {exc!r}")
    record["submitted"] = submitted
    record["late_batches"] = late
    record["max_lag_s"] = round(max_lag, 4)
    record["problems"] = problems


def _reader_loop(fleet, schedule, plan, start, record):
    """Issue one slice of the read schedule, exactly once per query.

    Refusals (:class:`ClusterError` — :class:`ShardError` included) are
    the fleet's designed degraded mode: counted, never retried, so the
    issued sequence is the planned sequence regardless of faults.
    """
    latencies = []
    problems = []
    answered = 0
    refusals = 0
    try:
        for virtual_ts, s, t in schedule:
            due = start + plan.wall_offset(virtual_ts)
            now = time.time()
            if now < due:
                time.sleep(due - now)
            began = time.perf_counter()
            try:
                answer = fleet.query(s, t)
            except ClusterError:
                refusals += 1
                continue
            latencies.append(time.perf_counter() - began)
            answered += 1
            _check_answer(s, t, answer, problems)
    except Exception as exc:  # noqa: BLE001 — a dead reader fails the run
        problems.append(f"reader thread crashed: {exc!r}")
    record["issued"] = len(schedule)
    record["answered"] = answered
    record["refusals"] = refusals
    record["latencies"] = latencies
    record["problems"] = problems


def run_replay_scenario(scenario, seed=0, duration=None, corpus_kwargs=None,
                        state_dir=None, telemetry=None, strict=True,
                        drain_timeout=30.0):
    """Replay one scenario end to end; returns a report dict.

    ``scenario`` is a name from the library or a
    :class:`~repro.replay.scenario.ReplayScenario`; ``duration``
    overrides the wall seconds the virtual tail is scaled into;
    ``corpus_kwargs`` override the corpus generator (e.g. a smaller
    ``events`` for smoke runs).  Strict mode raises
    :class:`~repro.exceptions.AuditDivergenceError` on any contract
    violation (see the module docstring); the report's ``deterministic``
    block is identical across same-seed runs by construction.  With
    ``telemetry`` set to a directory, the scenario's fleet + audit stack
    are instrumented end to end (including the writer's pacing-lag
    histogram ``repro_replay_pacing_lag_seconds``) and the registry is
    written there as a ``replay-<scenario>.prom``/``.json`` pair.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    elif not isinstance(scenario, ReplayScenario):
        raise ServeError(
            f"expected a scenario name or ReplayScenario, got {scenario!r}"
        )
    if duration is not None:
        scenario = scenario.replace(duration=duration)

    # Lazy import: repro.datasets pulls in this package for the temporal
    # corpora, so the top-level import would be circular.
    from repro.datasets.registry import load_temporal_dataset

    log = load_temporal_dataset(scenario.corpus, **(corpus_kwargs or {}))
    plan = ReplayPlan(scenario, log, seed=seed)

    engine = SPCEngine(
        plan.bootstrap.copy(), config=EngineConfig(backend=scenario.backend)
    )
    events = []
    problems = []

    def fault_step(fault):
        def step():
            fleet.apply_fault(fault)
            events.append({
                "action": fault.action,
                "target": fault.target,
                "at": fault.at,
                "applied_seq": fleet.primary.applied_seq,
            })

        step.__name__ = fault.action
        return fault.at, step

    with _Harness("replay", state_dir, telemetry) as h:
        fleet = _Fleet(scenario, engine, h.state_dir)
        h.own(fleet.impl)
        audit = h.own(AuditSession(
            fleet, h.state_dir, scenario.sample_rate, scenario.reservoir,
            seed + 5, 1024,
        ))
        h.instrument(fleet, audit)
        pacing_hist = None
        if h.registry is not None:
            pacing_hist = h.registry.histogram(
                "repro_replay_pacing_lag_seconds"
            )

        start = time.time()
        writer_record = {}
        reader_records = [{} for _ in range(scenario.readers)]
        stop = threading.Event()
        threads = [threading.Thread(
            target=_writer_loop,
            args=(fleet, plan, start, writer_record, pacing_hist),
            name="replay-writer",
        )]
        for i, schedule in enumerate(plan.reader_slices(scenario.readers)):
            threads.append(threading.Thread(
                target=_reader_loop,
                args=(fleet, schedule, plan, start, reader_records[i]),
                name=f"replay-reader-{i}",
            ))
        if scenario.faults:
            # The threaded harnesses' absolute schedule: a step that comes
            # around only after the deadline is a missed window, not late.
            steps = [fault_step(f)
                     for f in sorted(scenario.faults, key=lambda f: f.at)]
            threads.append(threading.Thread(
                target=_fault_loop,
                args=(steps, start, scenario.duration, stop, problems),
                name="replay-fault-controller",
            ))
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            stop.set()
        elapsed = time.time() - start
        recovered = None
        if any(e["action"].startswith("restart") for e in events):
            # Prove recovery explicitly: a synced fleet must answer again.
            recovered = True
            try:
                fleet.quiesce(timeout=30.0)
                _, s, t = plan.queries[0]
                fleet.query(s, t)
            except ClusterError as exc:
                recovered = False
                problems.append(f"post-restart read failed: {exc}")
        else:
            fleet.quiesce(timeout=30.0)
        audit.drain(problems, drain_timeout)
        telemetry_paths = h.write_telemetry(f"replay-{scenario.name}")
        audit.close(problems)

    problems.extend(writer_record.get("problems", []))
    for rec in reader_records:
        problems.extend(rec.get("problems", []))

    refusals = sum(rec.get("refusals", 0) for rec in reader_records)
    answered = sum(rec.get("answered", 0) for rec in reader_records)
    issued = sum(rec.get("issued", 0) for rec in reader_records)
    killed = any(e["action"].startswith("kill") for e in events)
    if strict:
        if writer_record.get("submitted", 0) != plan.events_to_replay:
            problems.append(
                f"writer submitted {writer_record.get('submitted', 0)} of "
                f"{plan.events_to_replay} planned events"
            )
        if issued != len(plan.queries):
            problems.append(
                f"readers issued {issued} of {len(plan.queries)} planned "
                f"queries"
            )
        audit.judge(problems)
        if killed and not refusals:
            problems.append(
                "a shard was killed but no reader observed a refusal — "
                "the fleet kept serving without a hub slice"
            )
        if refusals and not scenario.faults:
            problems.append(
                f"{refusals} refusal(s) with no fault schedule to "
                f"explain them"
            )

    latencies = sorted(
        lat for rec in reader_records for lat in rec.get("latencies", [])
    )
    result = {
        "scenario": scenario.describe(),
        # Same seed ⇒ this block is identical across runs, by construction.
        "deterministic": dict(plan.describe(), seed=seed),
        "duration_s": round(elapsed, 3),
        "events_submitted": writer_record.get("submitted", 0),
        "late_batches": writer_record.get("late_batches", 0),
        "max_write_lag_s": writer_record.get("max_lag_s", 0.0),
        "queries_issued": issued,
        "queries_answered": answered,
        "refusals": refusals,
        "read_qps": round(answered / elapsed) if elapsed else 0,
        "read_latency_ms": _latency_ms(latencies),
        "sampler": audit.sampler_stats,
        "auditor": audit.auditor_stats,
        "divergences": audit.report.total,
        "fault_injection": events,
        "recovered": recovered,
        "telemetry": telemetry_paths,
        "replay_problems": problems,
    }
    if strict and problems:
        preview = "; ".join(str(p) for p in problems[:5])
        raise audit.report.error(
            f"replay scenario {scenario.name!r} observed {len(problems)} "
            f"problem(s): {preview}"
        )
    return result
