"""Engine configuration: one validated dataclass instead of kwarg sprawl.

:class:`EngineConfig` collects every serving- and maintenance-path knob in
one frozen, validated object that any backend can consume; unknown or
nonsensical settings fail at construction time, not deep inside an update.

Two behaviours are not knobs: DecSPC takes the §3.2.3 isolated-vertex
fast path wherever it applies (never on a directed graph), and the SD
backend folds the deletions of one update batch into a single rebuild.
"""

import dataclasses
from dataclasses import dataclass

from repro.exceptions import EngineError


@dataclass(frozen=True)
class EngineConfig:
    """All tunables of an :class:`~repro.engine.SPCEngine`.

    Parameters
    ----------
    backend:
        Explicit backend name (``"core"``, ``"directed"``, ``"weighted"``,
        ``"sd"``).  ``None`` (the default) auto-selects from the graph
        type.
    strategy:
        Vertex-ordering strategy handed to the index builder (§2.2).
    rebuild_every:
        Rebuild the index from scratch after this many edge updates
        (the paper's §6 lazy strategy); ``None`` disables.
    rebuild_drift_threshold:
        Rebuild once the sampled ordering-drift inversion fraction exceeds
        this value (see :mod:`repro.order.drift`); ``None`` disables.
    drift_check_every:
        How often (in updates) the drift threshold is evaluated.
    coalesce_batches:
        Net-effect coalescing in :meth:`SPCEngine.apply_batch` — churn that
        cancels out inside a batch is never applied to the index.
    cache_size:
        Capacity of the epoch-invalidated LRU query cache; ``0`` disables
        caching entirely.

    Example
    -------
    >>> EngineConfig().cache_size
    1024
    >>> EngineConfig(rebuild_every=100).replace(cache_size=0).cache_size
    0
    """

    backend: str = None
    strategy: str = "degree"
    rebuild_every: int = None
    rebuild_drift_threshold: float = None
    drift_check_every: int = 50
    coalesce_batches: bool = True
    cache_size: int = 1024

    def __post_init__(self):
        if self.rebuild_every is not None and self.rebuild_every < 1:
            raise EngineError(
                f"rebuild_every must be a positive int or None, "
                f"got {self.rebuild_every!r}"
            )
        if self.rebuild_drift_threshold is not None and not (
            0 <= self.rebuild_drift_threshold <= 1
        ):
            raise EngineError(
                f"rebuild_drift_threshold must lie in [0, 1] or be None, "
                f"got {self.rebuild_drift_threshold!r}"
            )
        if self.drift_check_every < 1:
            raise EngineError(
                f"drift_check_every must be >= 1, got {self.drift_check_every!r}"
            )
        if self.cache_size < 0:
            raise EngineError(
                f"cache_size must be >= 0 (0 disables caching), "
                f"got {self.cache_size!r}"
            )

    def replace(self, **changes):
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
