"""Instrumentation for the update algorithms.

The paper's Figures 8 and 9 report the average number of label operations
per update, broken down exactly as counted here:

* ``renew_count`` (RenewC) — counting renewed, distance unchanged;
* ``renew_dist`` (RenewD)  — distance renewed (count may change too);
* ``inserted``   (Insert)  — label newly inserted;
* ``removed``    (Remove)  — label deleted (decremental only).

Table 5 reports the affected-set cardinalities |SRa|, |SRb|, |Ra|, |Rb|,
also tracked here.  Every IncSPC / DecSPC call returns an
:class:`UpdateStats` so the benchmark harness reads these numbers directly
off the return value.
"""

from dataclasses import dataclass, field


@dataclass
class UpdateStats:
    """Counters describing one index update."""

    kind: str = ""  # "insert" | "delete"
    edge: tuple = ()
    renew_count: int = 0
    renew_dist: int = 0
    inserted: int = 0
    removed: int = 0
    # DecUPDATE region pairs (h, u) left alone because u's entry provably
    # survives the delete (decremental.drop_kept).
    kept: int = 0
    bfs_visits: int = 0
    affected_hubs: int = 0
    sr_a: int = 0
    sr_b: int = 0
    r_a: int = 0
    r_b: int = 0
    isolated_fast_path: bool = False
    elapsed: float = 0.0
    # Per-phase wall seconds (one clock pair per phase or per hub, never
    # per visit): DecSPC's SrrSEARCH, its DecUPDATE BFS (PreQUERY scan
    # included) and its removal pass; IncSPC's BFS.
    srr_s: float = 0.0
    bfs_s: float = 0.0
    removal_s: float = 0.0

    @property
    def total_label_ops(self):
        """All label mutations performed by the update."""
        return self.renew_count + self.renew_dist + self.inserted + self.removed

    @property
    def net_entry_change(self):
        """Net change in the number of label entries (Insert - Remove)."""
        return self.inserted - self.removed

    def merge(self, other):
        """Accumulate another update's counters into this one (for streams)."""
        self.renew_count += other.renew_count
        self.renew_dist += other.renew_dist
        self.inserted += other.inserted
        self.removed += other.removed
        self.kept += other.kept
        self.bfs_visits += other.bfs_visits
        self.affected_hubs += other.affected_hubs
        self.sr_a += other.sr_a
        self.sr_b += other.sr_b
        self.r_a += other.r_a
        self.r_b += other.r_b
        self.elapsed += other.elapsed
        self.srr_s += other.srr_s
        self.bfs_s += other.bfs_s
        self.removal_s += other.removal_s
        return self


@dataclass
class StreamStats:
    """Aggregated counters over a stream of updates (Figure 10)."""

    updates: int = 0
    insertions: int = 0
    deletions: int = 0
    vertex_ops: int = 0
    totals: UpdateStats = field(default_factory=UpdateStats)
    per_update: list = field(default_factory=list)

    def record(self, stats):
        """Append one update's stats to the stream history."""
        self.updates += 1
        if stats.kind == "insert":
            self.insertions += 1
        elif stats.kind == "delete":
            self.deletions += 1
        else:
            self.vertex_ops += 1
        self.totals.merge(stats)
        self.per_update.append(stats)

    @property
    def accumulated_time(self):
        """Total elapsed seconds across all recorded updates."""
        return self.totals.elapsed

    @property
    def net_entry_change(self):
        """Net index entry growth over the stream."""
        return self.totals.inserted - self.totals.removed
