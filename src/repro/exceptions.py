"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch library failures with a single except clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Raised for invalid graph operations (duplicate edges, missing vertices...)."""


class VertexNotFound(GraphError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} is not in the graph")


class EdgeNotFound(GraphError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u, v):
        self.edge = (u, v)
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")


class DuplicateEdge(GraphError):
    """Raised when inserting an edge that already exists (simple graphs only)."""

    def __init__(self, u, v):
        self.edge = (u, v)
        super().__init__(f"edge ({u!r}, {v!r}) already exists")


class DuplicateVertex(GraphError):
    """Raised when inserting a vertex id that already exists."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} already exists")


class SelfLoop(GraphError):
    """Raised when inserting a self-loop; the paper's graphs are simple."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex!r} is not allowed")


class IndexCorruption(ReproError):
    """Raised when an index invariant check fails (see repro.verify)."""


class OrderingError(ReproError):
    """Raised for invalid vertex orderings (missing or duplicated vertices)."""


class WorkloadError(ReproError):
    """Raised when a workload generator cannot satisfy its constraints."""


class DatasetError(ReproError):
    """Raised when a dataset name is unknown or a dataset fails to build."""


class EngineError(ReproError):
    """Raised for engine misuse: unknown backends, bad configs, or
    operations the selected backend does not support."""


class ReadOnlyError(ReproError):
    """Raised when a mutation is attempted on an immutable snapshot view.

    :class:`repro.serve.SnapshotView` pins one published epoch of the
    index; writes must go through :meth:`repro.serve.SPCService.submit`
    so the service's writer applies them and publishes a fresh snapshot.
    """


class ServeError(ReproError):
    """Raised for serving-layer misuse or failure: submitting to a closed
    service, a flush/checkpoint timeout, a dead writer thread, or a
    corrupt checkpoint/WAL file."""


class CheckpointMismatchError(ServeError):
    """Raised when a checkpoint and a WAL do not describe the same state:
    the WAL was written by a different backend family than the checkpoint
    restores, or the checkpoint's index payload does not match its declared
    backend.  Replaying such a pair would raise deep inside the engine at
    best and silently diverge at worst, so restore refuses up front."""


class WalCorruptionError(ServeError):
    """Raised when a durably acknowledged storage record fails validation:
    a WAL or label-journal line whose CRC32 stamp does not match its
    content (a bit flip, a torn write glued onto a later append), a
    newline-terminated line that no longer parses, or a checkpoint whose
    checksum disagrees with its payload.

    The typed signal the resilience layer keys on: a tailing follower
    treats it as a stream gap and re-bootstraps, and the
    :class:`~repro.resilience.Supervisor` repairs the stream (fresh
    checkpoint + truncated log) before restarting members that died on
    it — corrupted bytes are *detected and refused*, never served.
    """


class AuditDivergenceError(ServeError):
    """Raised when differential verification catches a served answer that
    does not match the trusted baseline (see :mod:`repro.audit`).

    Carries the offending WAL sequence number and the structured
    :class:`~repro.audit.Divergence` records, so a fail-fast sink or a
    strict harness can report exactly which consistency point went wrong
    instead of a bare assert.
    """

    def __init__(self, message, seq=None, divergences=()):
        self.seq = seq
        self.divergences = list(divergences)
        super().__init__(message)


class ClusterError(ReproError):
    """Raised for cluster-layer misuse or failure: routing when no target
    satisfies the staleness bound, querying a dead replica, a replica that
    failed to bootstrap or diverged from the replication stream, or a
    fault-injection harness observing an inconsistency."""


class ShardError(ClusterError):
    """Raised by the hub-partitioned sharding layer (:mod:`repro.shard`):
    a partitioner that does not cover the hub space, a scatter-gather read
    that cannot assemble a consistent cross-shard cut, or a query routed
    while a shard is down — the router *refuses* rather than serving a
    partial (hence silently wrong) merged answer."""


class ObsError(ReproError):
    """Raised on observability-layer misuse (:mod:`repro.obs`): an invalid
    metric name, one name registered under two instrument kinds, setting a
    callback-bound gauge, or decrementing a counter."""
