"""Seeded workload inputs, generated in full before any clock starts.

Every update, its send time and every query a run issues come from
:func:`make_inputs`, a pure function of (workload, seed, seconds).  The
program under test only ever receives these generated inputs, and
:meth:`Inputs.fingerprint` lets two runs prove they replayed identical ones.
"""

import hashlib
import itertools
import random
from dataclasses import dataclass

from repro.datasets import load_dataset
from repro.workloads import hybrid_stream, random_insertions

WORKLOADS = ("engine-hybrid", "serve-read")

#: dataset key of the repository's Table 3 registry, for both workloads.
#: Its index (about 82k entries) leaves serve-read's writer idle part of the
#: time; on a larger one (GOO) publish copies keep the writer busy, and the
#: figures then swing with the host's speed.
DATASET = "STA"

#: engine-hybrid: the Fig. 10 hybrid ratio, 10 inserts : 1 delete.
ENGINE_INSERTS = 1000
ENGINE_DELETES = 100
#: engine-hybrid: single-pair reads on the maintained index between updates.
ENGINE_READS = 20000

#: serve-read: open-loop write rate (updates per second).  A write is
#: visible about 120 ms after it is due on a fast host (the 50 ms publish
#: timer, then apply and publish copy sharing the interpreter lock with the
#: reader), 150 ms or more on a host 1.5x slower; at 5/s that neared the
#: next write's due time and the write and read tails jumped by half.
SERVE_READ_WRITE_RATE = 4.0
#: serve-read: pairs per query_many batch, all sharing one source.
BATCH_PAIRS = 64
#: serve-read: distinct batches, cycled in order by the reader.
BATCH_POOL = 2048
#: serve-read: Zipf exponent of the source popularity (rank = degree rank).
ZIPF_S = 1.0
#: pairs verified against BFS ground truth after every run.
CHECK_PAIRS = 200


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program.

    ``due_s[i]`` is when ``updates[i]`` is due, in seconds after the
    measured phase starts (empty for the closed-loop engine workload).
    ``reads`` holds (s, t) pairs (engine-hybrid) or lists of them, one per
    ``query_many`` batch (serve-read).
    """

    workload: str
    dataset: str
    updates: list
    due_s: list
    reads: list
    check_pairs: list

    def fingerprint(self):
        """A short hash of every input, identical for identical runs."""
        h = hashlib.sha256()
        h.update(f"{self.workload} {self.dataset}\n".encode())
        for u in self.updates:
            h.update(f"{type(u).__name__} {u.u} {u.v}\n".encode())
        h.update(repr(self.due_s).encode())
        h.update(repr(self.reads).encode())
        h.update(repr(self.check_pairs).encode())
        return h.hexdigest()[:16]


def make_inputs(workload, seed, seconds):
    """Generate the inputs of one run of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    graph = load_dataset(DATASET, copy=False)
    vertices = sorted(graph.vertices())
    rng = random.Random(f"{workload}:{seed}")

    def uniform_pairs(k):
        return [(rng.choice(vertices), rng.choice(vertices)) for _ in range(k)]

    if workload == "engine-hybrid":
        updates = hybrid_stream(graph, insertions=ENGINE_INSERTS,
                                deletions=ENGINE_DELETES, seed=seed)
        due_s = []
        reads = uniform_pairs(ENGINE_READS)
    else:  # serve-read
        n = max(1, int(SERVE_READ_WRITE_RATE * seconds))
        updates = random_insertions(graph, n, seed=seed)
        due_s = [i / SERVE_READ_WRITE_RATE for i in range(n)]
        # Popularity follows degree (well-connected users ask most), so the
        # seed changes which batches are drawn but not who the hot sources
        # are — the read cost then varies little from seed to seed.
        popularity = sorted(vertices, key=lambda v: (-graph.degree(v), v))
        cum = list(itertools.accumulate(
            1.0 / (k + 1) ** ZIPF_S for k in range(len(popularity))))
        sources = rng.choices(popularity, cum_weights=cum, k=BATCH_POOL)
        reads = [[(s, rng.choice(vertices)) for _ in range(BATCH_PAIRS)]
                 for s in sources]
    return Inputs(workload, DATASET, updates, due_s, reads,
                  uniform_pairs(CHECK_PAIRS))
