"""Divergence records, severity classification and the report sink.

The comparator is the shared vocabulary of every differential check in
the repo: the serve/cluster load harnesses, the progressive WAL-replay
oracle and the :class:`~repro.audit.ShadowAuditor` all funnel their
expected-vs-served comparisons through :func:`classify_divergence`, so
"what counts as wrong" is defined exactly once.

Severity classes (most to least alarming):

* ``refusal`` — the served answer is structurally impossible (a finite
  distance with no paths, a negative distance, an unreachable pair with
  a path count, or not an answer pair at all).  No baseline is needed to
  condemn it.
* ``dist-mismatch`` — the served distance differs from the trusted
  baseline's.  Distances are the half every backend family serves, so a
  distance mismatch means the labels are wrong for *every* consumer.
* ``count-mismatch`` — the distance agrees but the path count differs;
  the classic failure mode of a mis-maintained counting index (the
  paper's whole contribution is keeping this half right under updates).

A ``None`` count on either side (the distance-only SD family) restricts
the comparison to distances — an ``(sd, None)`` answer can only ever be
a ``dist-mismatch`` or a ``refusal``.
"""

from dataclasses import dataclass

from repro.exceptions import AuditDivergenceError

INF = float("inf")

#: severity class names, most severe first.
REFUSAL = "refusal"
DIST_MISMATCH = "dist-mismatch"
COUNT_MISMATCH = "count-mismatch"
SEVERITIES = (REFUSAL, DIST_MISMATCH, COUNT_MISMATCH)


#: the neutral element of :func:`merge_partial_answers` — "no hubs in my
#: slice": unreachable, zero paths.
IDENTITY_PARTIAL = (INF, 0)


def merge_partial_answers(a, b):
    """Combine two partial ``(distance, count)`` answers into one.

    The single associative, commutative combiner behind every answer
    merge in the repo: the shard router folds per-shard partials with it
    (each shard probes only the hubs in its slice, and the slices
    partition the hub space, so equal-distance counts *add* and never
    double-count), and the audit comparator's callers use it to build
    expected merged answers.  A ``None`` count on either side (the
    distance-only SD family) is absorbing: the merged answer can only
    promise a distance.  :data:`IDENTITY_PARTIAL` is the identity.
    """
    da, ca = a
    db, cb = b
    if da < db:
        return a
    if db < da:
        return b
    if ca is None or cb is None:
        return (da, None)
    return (da, ca + cb)


def check_answer_shape(answer):
    """Why ``answer`` is structurally impossible, or ``None`` when sound.

    The single definition of "malformed" shared by the serve loadgen, the
    cluster harness and the shadow auditor: an answer must be a
    ``(distance, count)`` pair with a non-negative distance, a count of
    at least 1 when the distance is finite (``None`` for distance-only
    backends), and a count of 0 or ``None`` when it is infinite.
    """
    try:
        d, c = answer
    except (TypeError, ValueError):
        return f"not a (distance, count) pair: {answer!r}"
    if not isinstance(d, (int, float)):
        # Catches e.g. a 2-char string unpacking "successfully".
        return f"impossible distance {d!r}"
    if c is not None and not isinstance(c, (int, float)):
        return f"impossible path count {c!r}"
    if d == INF:
        if c not in (0, None):
            return f"unreachable pair with path count {c!r}"
        return None
    if d is None or d < 0:
        return f"impossible distance {d!r}"
    if c is not None and c < 1:
        return f"finite distance {d!r} with path count {c!r}"
    return None


def classify_divergence(expected, got):
    """Compare a baseline answer to a served one; returns a severity or
    ``None`` when they agree.

    ``expected`` is trusted (the auditor recomputed it by traversal), so
    a malformed *expected* is a programming error and raises; a malformed
    ``got`` classifies as :data:`REFUSAL`.  A ``None`` count on either
    side restricts the comparison to distances.
    """
    bad = check_answer_shape(expected)
    if bad is not None:
        raise AuditDivergenceError(
            f"trusted baseline produced a malformed answer ({bad})"
        )
    if check_answer_shape(got) is not None:
        return REFUSAL
    ed, ec = expected
    gd, gc = got
    if ed != gd:
        return DIST_MISMATCH
    if ec is None or gc is None:
        return None
    if ec != gc:
        return COUNT_MISMATCH
    return None


@dataclass(frozen=True)
class Divergence:
    """One audited answer that failed differential verification."""

    query: tuple          # the (s, t) pair
    seq: int              # the answer's claimed WAL sequence number
    expected: tuple       # the trusted baseline's (sd, spc)
    got: object           # what was actually served
    backend: str          # backend family of the audited stream
    epoch: int            # snapshot epoch the answer was served from
    severity: str         # one of SEVERITIES
    target: str = ""      # which serving target answered (replica name)

    def describe(self):
        """One-line human-readable account of the divergence."""
        return (
            f"{self.severity}: query {self.query} at seq {self.seq} "
            f"(backend {self.backend}, epoch {self.epoch}"
            f"{', target ' + self.target if self.target else ''}) "
            f"served {self.got!r}, baseline says {self.expected!r}"
        )


class DivergenceReport:
    """Collects classified divergences and routes them to a sink.

    Parameters
    ----------
    sink:
        ``None`` — collect silently; ``"log"`` — emit one warning per
        divergence via :mod:`logging`; ``"raise"`` — fail fast with
        :class:`~repro.exceptions.AuditDivergenceError` on the first
        divergence recorded; any callable — invoked with each
        :class:`Divergence`.
    keep:
        Retain at most this many full records (counters keep counting
        past the cap, so a divergence storm cannot eat unbounded memory).
    """

    def __init__(self, sink=None, keep=256):
        if sink not in (None, "log", "raise") and not callable(sink):
            raise AuditDivergenceError(
                f"unknown sink {sink!r}; use None, 'log', 'raise' "
                f"or a callable"
            )
        self._sink = sink
        self._keep = keep
        self.divergences = []
        self.by_severity = {s: 0 for s in SEVERITIES}
        self.total = 0

    def record(self, divergence):
        """File one :class:`Divergence` and feed the sink."""
        self.total += 1
        self.by_severity[divergence.severity] += 1
        if len(self.divergences) < self._keep:
            self.divergences.append(divergence)
        if self._sink == "log":
            import logging

            logging.getLogger("repro.audit").warning(divergence.describe())
        elif self._sink == "raise":
            raise AuditDivergenceError(
                f"differential verification failed: {divergence.describe()}",
                seq=divergence.seq,
                divergences=[divergence],
            )
        elif callable(self._sink):
            self._sink(divergence)

    def severities_seen(self):
        """The severity classes recorded so far, most severe first."""
        return [s for s in SEVERITIES if self.by_severity[s]]

    def summary(self):
        """A JSON-safe digest: totals, per-severity counts, first records."""
        return {
            "total": self.total,
            "by_severity": dict(self.by_severity),
            "divergences": [d.describe() for d in self.divergences[:16]],
        }

    def error(self, message):
        """An :class:`AuditDivergenceError` with ``message``, carrying the
        first retained divergence's seq (``None`` when there is none)."""
        first = self.divergences[0] if self.divergences else None
        return AuditDivergenceError(
            message, seq=first.seq if first else None,
            divergences=self.divergences,
        )

    def raise_if_any(self):
        """Raise :class:`AuditDivergenceError` when anything was recorded."""
        if self.total:
            first = self.divergences[0] if self.divergences else None
            raise self.error(
                f"differential verification recorded {self.total} "
                f"divergence(s) ({', '.join(self.severities_seen())}); "
                f"first: {first.describe() if first else 'not retained'}"
            )

    def __len__(self):
        return self.total

    def __repr__(self):
        return (
            f"DivergenceReport(total={self.total}, "
            f"by_severity={ {s: n for s, n in self.by_severity.items() if n} })"
        )
