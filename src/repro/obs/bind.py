"""Promote existing per-subsystem ``stats()`` dicts into the registry.

Every layer of the stack already exposes a health accessor
(``SPCService.stats``, ``ClusterRouter.stats``, ``Supervisor.stats``,
...).  Rather than duplicate that bookkeeping, the bind helpers walk
one sample of the dict, and register a **callback gauge** per numeric
leaf: exposition re-reads the live accessor, so the registry can never
disagree with the old surface — parity holds by construction (and is
pinned by ``tests/obs/test_bind.py``).

Naming: leaves flatten with ``_`` joins under a ``repro_<layer>``
prefix, e.g. ``SPCService.stats()["wal_bytes"]`` becomes
``repro_serve_wal_bytes`` and a nested
``Supervisor.stats()["monitor"]["checks"]`` becomes
``repro_resilience_monitor_checks``.  Booleans read as 0/1; strings and
other non-numeric leaves are skipped (their transitions are counted by
the event instrumentation instead — e.g. breaker state *changes*).
"""

import re

_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize(part):
    part = _SANITIZE_RE.sub("_", str(part))
    return part if part else "_"


def _numeric(value):
    """The leaf as a float, or None when it is not a numeric leaf."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _leaf_paths(sample, path=()):
    """Yield the path of every numeric leaf in a nested stats dict."""
    if isinstance(sample, dict):
        for key, value in sample.items():
            yield from _leaf_paths(value, path + (key,))
    elif _numeric(sample) is not None:
        yield path


def _reader(stats_fn, path):
    """A callback navigating a fresh stats() sample down ``path``."""

    def read():
        value = stats_fn()
        for part in path:
            value = value[part]
        return _numeric(value)

    return read


def bind_stats(registry, prefix, stats_fn, **labels):
    """Register one callback gauge per numeric leaf of ``stats_fn()``.

    The leaf set is discovered from a single sample taken now; leaves
    that appear later are not picked up (re-bind if a component grows
    new stats at runtime).  Returns the list of gauge names registered.
    """
    sample = stats_fn()
    names = []
    for path in _leaf_paths(sample):
        name = "_".join([prefix] + [_sanitize(p) for p in path])
        registry.gauge(name, fn=_reader(stats_fn, path), **labels)
        names.append(name)
    return names


# ----------------------------------------------------------------------
# Per-layer promotions (the satellite: old accessors and new exposition
# must agree — each helper is a thin naming wrapper over bind_stats).
# ----------------------------------------------------------------------


def bind_service(registry, service, **labels):
    """``SPCService.stats()`` -> ``repro_serve_*`` gauges (queue depth,
    applied batches, publish lag, WAL bytes, compactions, ...)."""
    return bind_stats(registry, "repro_serve", service.stats, **labels)


def bind_engine(registry, engine, **labels):
    """``SPCEngine.cache_info()`` + stream history -> ``repro_engine_*``
    gauges (cache hits/misses/invalidations/size, applied updates)."""
    names = []
    if engine.cache_info() is not None:
        names += bind_stats(registry, "repro_engine_cache",
                            engine.cache_info, **labels)

    def stream():
        history = engine.history
        return {
            "epoch": engine.epoch,
            "updates": history.updates,
            "insertions": history.insertions,
            "deletions": history.deletions,
            "vertex_ops": history.vertex_ops,
        }

    names += bind_stats(registry, "repro_engine", stream, **labels)
    return names


def bind_sampler(registry, sampler, **labels):
    """``AuditSampler.stats()`` -> ``repro_audit_sampler_*`` gauges
    (rate, seen, sampled, evicted, buffered)."""
    return bind_stats(registry, "repro_audit_sampler", sampler.stats,
                      **labels)


def bind_auditor(registry, auditor, **labels):
    """``ShadowAuditor.stats()`` -> ``repro_audit_*`` gauges (audited,
    pending = audit lag, divergences, healthy)."""
    return bind_stats(registry, "repro_audit", auditor.stats, **labels)


def bind_supervisor(registry, supervisor, **labels):
    """``Supervisor.stats()`` -> ``repro_resilience_*`` gauges (restarts,
    repairs, incidents, MTTR)."""
    return bind_stats(registry, "repro_resilience", supervisor.stats,
                      **labels)
