"""repro.obs — the measurement substrate of the serving stack.

One :class:`MetricsRegistry` of counters / gauges / deterministic
log-bucketed histograms shared by every layer, request-scoped
:class:`QueryTrace` span trees retained by a :class:`Tracer`
(bounded recent ring + always-keep-slow ring), stats-dict promotion
via :mod:`repro.obs.bind`, and Prometheus-text / JSON exposition via
:mod:`repro.obs.export`.  See DESIGN.md §16.
"""

from repro.obs.bind import (
    bind_auditor,
    bind_engine,
    bind_sampler,
    bind_service,
    bind_stats,
    bind_supervisor,
)
from repro.obs.export import to_json, to_prometheus_text, write_files
from repro.obs.registry import (
    SUBBUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper,
    render_key,
)
from repro.obs.trace import QueryTrace, Span, Tracer

__all__ = [
    "SUBBUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryTrace",
    "Span",
    "Tracer",
    "bind_auditor",
    "bind_engine",
    "bind_sampler",
    "bind_service",
    "bind_stats",
    "bind_supervisor",
    "bucket_index",
    "bucket_upper",
    "render_key",
    "to_json",
    "to_prometheus_text",
    "write_files",
]
