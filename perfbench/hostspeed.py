"""How fast the host runs the interpreter, sampled during a run.

The benchmark shares its machine with other tenants, and the machine's
speed for the same Python code drifts by a quarter or more over minutes:
every timing of a run then moves together, on every workload.  To keep
that drift out of the gated figures, a run times a fixed unit of pure
Python work (label merges over a synthetic index with labels as long as
the STA index's), in thread CPU time, whenever the program is idle:
around each set-up and between the operations of a single-threaded loop.
The median of the probes of a stretch of the run over
:data:`REFERENCE_S` is that stretch's *slowdown*; the timings made in the
stretch are reported divided by it (rates multiplied), i.e. at the
reference speed.  The figures as timed are printed beside them.  Timed
alternately with STA's engine.query on a 2-vCPU VM whose speed varied
1.8x over a minute and a half, the probe's time moved with the query's at
a slope of 1.0 (correlation 0.98 over 1 s chunks); over 90 s of STA
set-ups, timed in process CPU time between 8 probes before and 8 after
each, the set-up moved with the probe at a slope of 0.98.

The program's own timings that are scaled are CPU times too (of its
thread, or of the process for a set-up): CPU time leaves out the time the
thread waited for a vCPU, whether another process in the machine or the
hypervisor had it (the kernel accounts steal time), which the probe would
not see.

In a service's measured phase the writer thread runs beside the reader,
and a probe that runs while the writer works slows down with that work,
which would tie the scale to the program.  There the reader probes only
while the writer is idle: every write sent so far is published and the
next is not yet due.  The writer thread probes for itself, in the publish
listener, when it has just published and waits for the next write: the
two threads run on two vCPUs, whose speeds differ.  Waits on a timer (the
service's publish staleness, the interpreter's switch interval) do not
scale with the host's speed and are reported as timed.

The probe is the benchmark's own code and runs while its thread runs no
``repro`` code, so a change to the program moves the scaled figures as
much as the timed ones.
"""

import random
import statistics
import time

#: the probe's median thread CPU time on an Intel Xeon vCPU of a shared
#: 2-vCPU VM (Python 3.11), in calm hours; only a scale for the figures.
REFERENCE_S = 0.0012
#: probe at most this often during a measured phase.
PROBE_EVERY_S = 0.1
#: probes taken right before and right after each set-up.
PROBES_PER_SETUP = 8
#: the reference for the probes around a set-up: run in a row, they find
#: their data in cache and take about two thirds of the time of a lone
#: probe between the program's operations.
SETUP_REFERENCE_S = 0.0008

_rng = random.Random(20240)
_VERTICES = 600
#: synthetic labels: vertex -> sorted (hub, distance, count) entries.
_LABELS = [
    [(h, _rng.randrange(1, 8), _rng.randrange(1, 50))
     for h in sorted(_rng.sample(range(4 * _VERTICES), 80))]
    for _ in range(_VERTICES)
]
_PAIRS = [(_rng.randrange(_VERTICES), _rng.randrange(_VERTICES))
          for _ in range(50)]


def _merge(ls, lt):
    """Shortest distance and its path count over two sorted labels."""
    i = j = count = 0
    best = 99
    while i < len(ls) and j < len(lt):
        hs, ht = ls[i][0], lt[j][0]
        if hs == ht:
            d = ls[i][1] + lt[j][1]
            if d < best:
                best, count = d, ls[i][2] * lt[j][2]
            elif d == best:
                count += ls[i][2] * lt[j][2]
            i += 1
            j += 1
        elif hs < ht:
            i += 1
        else:
            j += 1
    return best, count


def _work():
    return sum(_merge(_LABELS[s], _LABELS[t])[1] for s, t in _PAIRS)


def probe_s():
    """Thread CPU seconds of one fixed unit of work."""
    c0 = time.thread_time()
    _work()
    return time.thread_time() - c0


def slowdowns(speeds):
    """Each stretch's slowdown, and the median over all their probes (which
    stands in for a stretch that has none)."""
    samples = [x for speed in speeds for x in speed.samples]
    overall = statistics.median(samples or [probe_s()]) / REFERENCE_S
    return [speed.slowdown() if speed.samples else overall
            for speed in speeds], overall


class HostSpeed:
    """Probe samples of one stretch of a measured phase."""

    def __init__(self, every=PROBE_EVERY_S):
        self.samples = []
        self.every = every
        self._due = 0.0

    def maybe_sample(self, now):
        """Probe once if ``every`` seconds passed since the last one."""
        if now >= self._due:
            self._due = now + self.every
            self.samples.append(probe_s())

    def slowdown(self):
        """The stretch's median probe time over :data:`REFERENCE_S`."""
        return statistics.median(self.samples) / REFERENCE_S


def setup_slowdown(before, after):
    """Slowdown of one set-up, from the probes taken around it."""
    return statistics.median(before + after) / SETUP_REFERENCE_S


def probes():
    """The probes taken on one side of a set-up."""
    return [probe_s() for _ in range(PROBES_PER_SETUP)]
