"""Shared machinery for the experiment runners.

``PreparedDataset`` bundles a dataset graph with its freshly built index and
the measured construction time; ``prepare`` memoizes per dataset so a full
harness run builds each index exactly once (IND's build dominates the run).
Runners always *copy* the graph/index before applying updates, so prepared
state stays pristine.
"""

import time

from repro.core import build_spc_index
from repro.datasets import load_dataset


class PreparedDataset:
    """A dataset graph plus its SPC-Index and build statistics."""

    def __init__(self, name):
        self.name = name
        self.graph = load_dataset(name)
        start = time.perf_counter()
        self.index = build_spc_index(self.graph)
        self.build_seconds = time.perf_counter() - start
        self.index_entries = self.index.num_entries
        self.index_bytes = self.index.size_bytes

    def fresh(self):
        """Return (graph copy, index copy) safe to mutate."""
        return self.graph.copy(), self.index.copy()


_PREPARED = {}
_WORKLOAD_RUNS = {}


def prepare(name):
    """Memoized dataset preparation."""
    if name not in _PREPARED:
        _PREPARED[name] = PreparedDataset(name)
    return _PREPARED[name]


class WorkloadRun:
    """The outcome of applying one update batch to a fresh dataset copy.

    Shared by every experiment that reports on the same workload — exactly
    like the paper, which times, counts label operations and measures SR/R
    sizes over a single batch of random updates per graph.
    """

    def __init__(self, name, kind, count, seed):
        from repro.workloads import random_deletions, random_insertions

        prep = prepare(name)
        self.graph, self.index = prep.fresh()
        if kind == "insert":
            updates = random_insertions(self.graph, count, seed=seed)
        elif kind == "delete":
            updates = random_deletions(self.graph, count, seed=seed)
        else:
            raise ValueError(f"unknown workload kind {kind!r}")
        self.stats = apply_updates(self.graph, self.index, updates)

    @property
    def elapsed(self):
        """Per-update wall-clock seconds."""
        return [s.elapsed for s in self.stats]


def run_insertions(name, count, seed):
    """Memoized random-insertion batch on dataset ``name``."""
    key = (name, "insert", count, seed)
    if key not in _WORKLOAD_RUNS:
        _WORKLOAD_RUNS[key] = WorkloadRun(name, "insert", count, seed)
    return _WORKLOAD_RUNS[key]


def run_deletions(name, count, seed):
    """Memoized random-deletion batch on dataset ``name``."""
    key = (name, "delete", count, seed)
    if key not in _WORKLOAD_RUNS:
        _WORKLOAD_RUNS[key] = WorkloadRun(name, "delete", count, seed)
    return _WORKLOAD_RUNS[key]


def apply_updates(graph, index, updates):
    """Apply a list of workload updates through the engine, collecting stats.

    Drives an :class:`SPCEngine` over the given (graph, index) pair — the
    backend is auto-selected, so the same harness path times undirected,
    directed and weighted streams.  The query cache is off: these runs
    measure the *update* algorithms, and cache bookkeeping would only add
    noise.  Returns the list of per-update :class:`UpdateStats` with
    ``elapsed`` filled in.
    """
    from repro.engine import EngineConfig, SPCEngine

    engine = SPCEngine(graph, config=EngineConfig(cache_size=0), index=index)
    return engine.apply_stream(updates)
