"""Table 5 bench: affected-set cardinalities |SRa|, |SRb|, |Ra|, |Rb|.

The paper's claim: the affected-hub set SR the algorithm runs BFSs from is
(on most graphs) much smaller than the receiver-only set R, which is what
makes DecSPC tractable.  (The paper's own EUA row is an outlier where SR
exceeds R — so the assertion is about the majority of datasets.)
"""

from repro.bench.experiments.common import prepare
from repro.core.decremental import srr_search
from repro.workloads import random_deletions


def test_table5_report(run_and_record, config, benchmark):
    result = benchmark.pedantic(
        lambda: run_and_record("table5", config), rounds=1, iterations=1
    )
    table = result.table("Table 5")
    ratios = table.column("|SR| / (|SR|+|R|)")
    # SRb (the smaller hub side) stays tiny, as in the paper.
    srb = table.column("SRb")
    assert all(x < 100 for x in srb), srb
    # On at least half the datasets the hub set is the minority share.
    assert sum(1 for r in ratios if r < 0.5) >= len(ratios) / 2, ratios


def test_benchmark_srr_search(benchmark):
    prep = prepare("EUA")
    graph, index = prep.fresh()
    edge = random_deletions(graph, 1, seed=3)[0]
    u, v = edge.u, edge.v
    la = index.label_set(u)
    lb = index.label_set(v)
    lab = set(la.hubs) & set(lb.hubs)

    def search():
        return srr_search(graph.neighbors, u, v, lab, index.order.rank_map())

    sr, r, _ = benchmark(search)
    # u itself always meets Condition B: sd(u, v) = 1 over the one path.
    assert u in sr
