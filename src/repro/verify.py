"""Index verification: the ESPC cover constraint and structural invariants.

Theorems 3.7 and 3.16 claim the updated index obeys Exact Shortest Paths
Covering — every query answers (sd, spc) exactly.  ``verify_espc`` checks
that claim on every graph family against ground truth picked from the
graph's type (BFS, directed BFS or Dijkstra), exhaustively on small graphs
or over a random pair sample on larger ones, and raises
:class:`IndexCorruption` with a precise diagnosis on the first mismatch.

``check_invariants`` validates the structural well-formedness that every
SPC-Index must satisfy regardless of the graph: per-vertex self-labels,
rank-sorted hub arrays, the rank constraint (hubs rank at least as high as
the label owner), positive counts and non-negative distances — plus the
reverse-hub-map consistency rule: every (v, h) label entry appears in
holders(h), and every holders entry is backed by a label.  It applies the
same rules to each side of the index: L, or L_in and L_out of a directed
one.  ``check_sd_invariants`` / ``verify_sd`` are the distance-only
siblings for the SD backend.
"""

import random

from repro.exceptions import IndexCorruption
from repro.graph.directed import DiGraph
from repro.graph.weighted import WeightedGraph
from repro.traversal.bfs import bfs_counting_sssp, directed_bfs_counting_sssp
from repro.traversal.dijkstra import dijkstra_counting_sssp

INF = float("inf")


def _ground_truth(graph):
    """Return (counting SSSP, exhaustive threshold) for ``graph``'s family.

    A Dijkstra source costs more than a BFS one, so weighted graphs switch
    to a pair sample sooner.
    """
    if isinstance(graph, WeightedGraph):
        return dijkstra_counting_sssp, 200
    if isinstance(graph, DiGraph):
        return directed_bfs_counting_sssp, 300
    return bfs_counting_sssp, 400


def _pairs_by_source(vertices, sample_pairs, seed, exhaustive_threshold):
    """Return the (s, t) pairs a check covers, grouped by source.

    With ``sample_pairs`` None: every ordered pair of ``vertices`` when
    there are at most ``exhaustive_threshold`` of them, else ``4 * n``
    random pairs.  An int requests that many random pairs (drawn with
    ``seed``); an iterable of (s, t) pairs is used verbatim.  The result
    maps each source to its targets, so one traversal or one source scan
    serves them all.
    """
    if sample_pairs is None and len(vertices) <= exhaustive_threshold:
        return {s: vertices for s in vertices}
    if sample_pairs is None:
        sample_pairs = 4 * len(vertices)
    if isinstance(sample_pairs, int):
        rng = random.Random(seed)
        pairs = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(sample_pairs)]
    else:
        pairs = sample_pairs
    by_source = {}
    for s, t in pairs:
        by_source.setdefault(s, []).append(t)
    return by_source


def verify_espc(graph, index, sample_pairs=None, seed=0):
    """Check SpcQUERY against ground truth for ``graph``'s family.

    Parameters
    ----------
    graph, index:
        The graph and the index claimed to cover it.  The ground truth is
        picked from the graph's type: BFS for a :class:`Graph`, directed
        BFS for a :class:`DiGraph` (pairs are s → t), Dijkstra for a
        :class:`WeightedGraph`.
    sample_pairs:
        If None, verify all pairs when n is at most 400 (directed 300,
        weighted 200), else sample ``4 * n`` random pairs.  An int
        requests that many sampled pairs (drawn with ``seed``); an
        iterable of (s, t) pairs is used verbatim.
    """
    sssp, exhaustive_threshold = _ground_truth(graph)
    vertices = sorted(graph.vertices())
    by_source = _pairs_by_source(vertices, sample_pairs, seed, exhaustive_threshold)
    for s, ts in by_source.items():
        dist, count = sssp(graph, s)
        for t in ts:
            expected = (dist.get(t, INF), count.get(t, 0)) if s != t else (0, 1)
            got = index.query(s, t)
            if got != expected:
                raise IndexCorruption(
                    f"ESPC violated for pair ({s}, {t}): index answers "
                    f"(sd={got[0]}, spc={got[1]}) but ground truth is "
                    f"(sd={expected[0]}, spc={expected[1]})"
                )
    return True


def check_invariants(index):
    """Validate structural invariants of an SPC-Index, side by side.

    Walks each of the index's sides (``SPCIndex.sides``): L on a one-sided
    index, L_in and L_out on a directed one.  Each side's label family is
    checked, and so is its reverse hub map when the index maintains one:
    the map and the label sets must describe exactly the same
    (holder, hub) relation.
    """
    sides = index.sides()
    families = ("L_in", "L_out") if len(sides) == 2 else ("L",)
    for family, (labels, holders) in zip(families, sides):
        _check_label_family(index.order, index.vertices(), labels.__getitem__,
                            family)
        if holders is not None:
            _check_holders_consistency(holders, labels, family)
    return True


def _check_label_family(order, vertices, label_of, family):
    """Per-label-set structural checks shared by every index family."""
    for v in vertices:
        ls = label_of(v)
        rv = order.rank(v)
        hubs = ls.hubs
        if sorted(hubs) != hubs:
            raise IndexCorruption(
                f"{family}({v}) hubs are not sorted by rank: {hubs}"
            )
        if len(set(hubs)) != len(hubs):
            raise IndexCorruption(
                f"{family}({v}) contains duplicate hubs: {hubs}"
            )
        entry = ls.get(rv)
        if entry != (0, 1):
            raise IndexCorruption(
                f"{family}({v}) self-label is {entry}, expected (0, 1)"
            )
        for h, d, c in ls:
            if h > rv:
                raise IndexCorruption(
                    f"rank constraint violated in {family}({v}): hub rank {h} "
                    f"is lower than owner rank {rv}"
                )
            if d < 0:
                raise IndexCorruption(
                    f"{family}({v}) hub {h} has negative distance {d}"
                )
            if c <= 0:
                raise IndexCorruption(
                    f"{family}({v}) hub {h} has non-positive count {c}"
                )
            if (d == 0) != (h == rv):
                raise IndexCorruption(
                    f"{family}({v}) hub {h} has distance 0 but is not the "
                    f"self-label"
                )
    return True


def _check_holders_consistency(holders, label_sets, family):
    """Check holders == {h: {v | h in label_sets[v]}} in both directions."""
    for v, ls in label_sets.items():
        for h in ls.hubs:
            if v not in holders.get(h, ()):
                raise IndexCorruption(
                    f"reverse hub map missing {family}({v}) entry for hub "
                    f"rank {h}"
                )
    for h, vs in holders.items():
        if not vs:
            raise IndexCorruption(
                f"reverse hub map keeps an empty holder set for hub rank {h}"
            )
        for v in vs:
            ls = label_sets.get(v)
            if ls is None or h not in ls:
                raise IndexCorruption(
                    f"reverse hub map claims {v} holds hub rank {h} in "
                    f"{family}, but no such label exists"
                )
    return True


def check_sd_invariants(index):
    """Structural invariants of the distance-only SD-Index."""
    order = index.order
    for v in order:
        hubs, dists = index.label_arrays(v)
        rv = order.rank(v)
        if sorted(hubs) != hubs:
            raise IndexCorruption(f"SD L({v}) hubs are not sorted by rank: {hubs}")
        if len(set(hubs)) != len(hubs):
            raise IndexCorruption(f"SD L({v}) contains duplicate hubs: {hubs}")
        if rv not in hubs:
            raise IndexCorruption(f"SD L({v}) is missing its self-label")
        for h, d in zip(hubs, dists):
            if h > rv:
                raise IndexCorruption(
                    f"rank constraint violated in SD L({v}): hub rank {h} is "
                    f"lower than owner rank {rv}"
                )
            if d < 0:
                raise IndexCorruption(f"SD L({v}) hub {h} has negative distance {d}")
            if (d == 0) != (h == rv):
                raise IndexCorruption(
                    f"SD L({v}) hub {h} has distance 0 but is not the self-label"
                )
    return True


def verify_sd(graph, index, sample_pairs=None, seed=0):
    """Check SD-Index distances against BFS ground truth.

    Pairs are chosen as in :func:`verify_espc`; only sd(s, t) is compared
    (the SD-Index carries no counts).
    """
    vertices = sorted(graph.vertices())
    by_source = _pairs_by_source(vertices, sample_pairs, seed, 400)
    for s, ts in by_source.items():
        dist, _ = bfs_counting_sssp(graph, s)
        for t in ts:
            expected = dist.get(t, INF)
            got = index.distance(s, t)
            if got != expected:
                raise IndexCorruption(
                    f"SD-Index violated for pair ({s}, {t}): index answers "
                    f"sd={got} but ground truth is sd={expected}"
                )
    return True


def indexes_equivalent(index_a, index_b, graph, sample_pairs=None, seed=0):
    """Check that two indexes answer identically on ``graph``'s pairs.

    Used to compare a dynamically-maintained index against a rebuilt one:
    label *sets* may legitimately differ (IncSPC retains stale entries) but
    query answers must agree.  Pairs are chosen as in :func:`verify_espc`,
    exhaustively up to 60 vertices.
    """
    vertices = sorted(graph.vertices())
    by_source = _pairs_by_source(vertices, sample_pairs, seed, 60)
    for s, ts in by_source.items():
        for t in ts:
            if index_a.query(s, t) != index_b.query(s, t):
                return False
    return True
