"""Update-stream workload generators (§4.1.1, §4.4, §4.5).

The paper's update experiments draw from four workload shapes:

* random **edge insertions** — 1,000 random new edges per graph (§4.1.1);
* random **edge deletions** — k ∈ {50, 100} random existing edges (§4.1.1);
* **hybrid streams** — 100 insertions mixed with 10 deletions (§4.4);
* **degree-skewed** updates — edges picked by deg(u)·deg(v) buckets (§4.5).

Updates are small objects with an ``apply(dynamic)`` method so streams can
be replayed against any oracle exposing the :class:`SPCEngine` mutation
API.

The generators are weight-aware: when the target graph is weighted (it
exposes ``set_weight``), insertions carry a sampled weight, deletions
record the deleted weight (so ``undo()`` reconstructs an applicable
insertion), and :func:`hybrid_stream` mixes in :class:`SetWeight` updates —
so the same stream machinery drives all three engine backends.
"""

import random
from dataclasses import dataclass

from repro.exceptions import WorkloadError

#: default (min, max) for integer weights drawn by the weight-aware
#: generators — small ints keep shortest-path ties exact.
DEFAULT_WEIGHT_RANGE = (1, 10)


def is_weighted_graph(graph):
    """True when ``graph`` takes edge weights (duck-typed on set_weight)."""
    return hasattr(graph, "set_weight")


def _edge_pairs(graph):
    """Sorted (u, v) pairs of ``graph``'s edges, weights stripped."""
    if is_weighted_graph(graph):
        return sorted((u, v) for u, v, _ in graph.edges())
    return sorted(graph.edges())


@dataclass(frozen=True)
class InsertEdge:
    """Insert edge (u, v); ``weight`` only applies on weighted graphs."""

    u: int
    v: int
    weight: float = None

    def apply(self, dynamic):
        """Apply to an SPCEngine-like oracle."""
        if self.weight is None:
            return dynamic.insert_edge(self.u, self.v)
        return dynamic.insert_edge(self.u, self.v, self.weight)

    def undo(self):
        """The inverse update (carries the weight so undo round-trips)."""
        return DeleteEdge(self.u, self.v, self.weight)

    def __repr__(self):
        suffix = f", weight={self.weight!r}" if self.weight is not None else ""
        return f"InsertEdge(u={self.u!r}, v={self.v!r}{suffix})"


@dataclass(frozen=True)
class DeleteEdge:
    """Delete edge (u, v).

    ``weight`` is never needed to apply the deletion; it exists so that on
    weighted graphs the caller can record the deleted edge's weight and
    ``undo()`` can reconstruct an applicable insertion.
    """

    u: int
    v: int
    weight: float = None

    def apply(self, dynamic):
        """Apply to an SPCEngine-like oracle."""
        return dynamic.delete_edge(self.u, self.v)

    def undo(self):
        """The inverse update (carries the weight when one was recorded)."""
        return InsertEdge(self.u, self.v, self.weight)

    def __repr__(self):
        suffix = f", weight={self.weight!r}" if self.weight is not None else ""
        return f"DeleteEdge(u={self.u!r}, v={self.v!r}{suffix})"


@dataclass(frozen=True)
class SetWeight:
    """Set edge (u, v)'s weight (weighted graphs only)."""

    u: int
    v: int
    weight: float

    def apply(self, dynamic):
        """Apply to an SPCEngine-like oracle."""
        return dynamic.set_weight(self.u, self.v, self.weight)


@dataclass(frozen=True)
class InsertVertex:
    """Insert vertex v with optional initial edges."""

    v: int
    edges: tuple = ()

    def apply(self, dynamic):
        """Apply to an SPCEngine-like oracle."""
        return dynamic.insert_vertex(self.v, edges=self.edges)


@dataclass(frozen=True)
class DeleteVertex:
    """Delete vertex v and all incident edges."""

    v: int

    def apply(self, dynamic):
        """Apply to an SPCEngine-like oracle."""
        return dynamic.delete_vertex(self.v)


def random_insertions(graph, k, seed=0, max_tries_factor=200,
                      weight_range=DEFAULT_WEIGHT_RANGE):
    """Sample ``k`` distinct non-edges of ``graph`` as InsertEdge updates.

    The sampled pairs are disjoint from existing edges and from each other,
    so the whole batch can be applied in any order.  On weighted graphs
    each insertion carries an integer weight drawn from ``weight_range``.
    """
    vertices = list(graph.vertices())
    if len(vertices) < 2:
        raise WorkloadError("need at least two vertices to insert edges")
    weighted = is_weighted_graph(graph)
    rng = random.Random(seed)
    chosen = set()
    updates = []
    tries = 0
    limit = max_tries_factor * max(k, 1)
    while len(updates) < k:
        tries += 1
        if tries > limit:
            raise WorkloadError(
                f"could not find {k} absent edges after {limit} tries "
                f"(graph too dense?)"
            )
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        if u == v:
            continue
        key = (u, v) if u <= v else (v, u)
        if key in chosen or graph.has_edge(*key):
            continue
        chosen.add(key)
        if weighted:
            updates.append(InsertEdge(*key, weight=rng.randint(*weight_range)))
        else:
            updates.append(InsertEdge(*key))
    return updates


def random_deletions(graph, k, seed=0):
    """Sample ``k`` distinct existing edges of ``graph`` as DeleteEdge updates.

    On weighted graphs the deleted weight is recorded on the update so
    ``undo()`` can reconstruct an applicable insertion.
    """
    edges = _edge_pairs(graph)
    if k > len(edges):
        raise WorkloadError(f"cannot delete {k} edges from a graph with {len(edges)}")
    rng = random.Random(seed)
    picked = rng.sample(edges, k)
    if is_weighted_graph(graph):
        return [DeleteEdge(u, v, weight=graph.weight(u, v)) for u, v in picked]
    return [DeleteEdge(u, v) for u, v in picked]


def random_weight_changes(graph, k, seed=0, weight_range=DEFAULT_WEIGHT_RANGE,
                          exclude=()):
    """Sample ``k`` SetWeight updates on distinct existing edges.

    ``exclude`` lists normalized (u, v) pairs to skip (e.g. edges already
    scheduled for deletion in the same stream).  The new weight is drawn
    from ``weight_range`` and nudged off the current weight so the update
    is never a no-op (unless the range is a single value).
    """
    if not is_weighted_graph(graph):
        raise WorkloadError("weight changes need a weighted graph")
    excluded = {(u, v) if u <= v else (v, u) for u, v in exclude}
    edges = [e for e in _edge_pairs(graph) if e not in excluded]
    if k > len(edges):
        raise WorkloadError(
            f"cannot change {k} weights: only {len(edges)} eligible edges"
        )
    rng = random.Random(seed)
    picked = rng.sample(edges, k)
    lo, hi = weight_range
    updates = []
    for u, v in picked:
        w = rng.randint(lo, hi)
        if w == graph.weight(u, v) and lo != hi:
            w = w + 1 if w < hi else w - 1
        updates.append(SetWeight(u, v, w))
    return updates


def hybrid_stream(graph, insertions=100, deletions=10, seed=0,
                  set_weights=None, weight_range=DEFAULT_WEIGHT_RANGE):
    """An interleaved stream of insertions and deletions (Figure 10).

    Deletions are spread evenly through the insertion stream.  Inserted
    edges are fresh non-edges; deleted edges are sampled from the original
    edge set (disjoint from the insertions, so order cannot conflict).

    On weighted graphs the stream is weight-aware: insertions carry
    weights, and ``set_weights`` :class:`SetWeight` updates (defaulting to
    the deletion count) on surviving edges are interleaved alongside the
    deletions.  ``set_weights`` is rejected on unweighted graphs.
    """
    weighted = is_weighted_graph(graph)
    if set_weights is None:
        set_weights = deletions if weighted else 0
    elif set_weights and not weighted:
        raise WorkloadError("set_weights requires a weighted graph")
    ins = random_insertions(graph, insertions, seed=seed,
                            weight_range=weight_range)
    dels = random_deletions(graph, deletions, seed=seed + 1)
    mixers = list(dels)
    if set_weights:
        mixers.extend(random_weight_changes(
            graph, set_weights, seed=seed + 2, weight_range=weight_range,
            exclude=[(d.u, d.v) for d in dels],
        ))
    if not mixers:
        return list(ins)
    stream = []
    gap = max(1, insertions // max(len(mixers), 1))
    mi = 0
    for i, upd in enumerate(ins):
        stream.append(upd)
        if (i + 1) % gap == 0 and mi < len(mixers):
            stream.append(mixers[mi])
            mi += 1
    stream.extend(mixers[mi:])
    return stream


def edge_degree(graph, u, v):
    """The paper's §4.5 notion of edge degree: deg(u) * deg(v)."""
    return graph.degree(u) * graph.degree(v)


def skewed_insertions(graph, k, seed=0, bucket="high",
                      weight_range=DEFAULT_WEIGHT_RANGE):
    """Sample ``k`` absent edges skewed by endpoint-degree product.

    ``bucket`` selects the skew: "high" favours high-degree endpoints,
    "low" favours low-degree ones, "uniform" matches random_insertions.
    Used by the Figure 11 experiment, which sorts updates by edge degree.
    Weighted graphs get weighted insertions, as in :func:`random_insertions`.
    """
    if bucket == "uniform":
        return random_insertions(graph, k, seed=seed, weight_range=weight_range)
    weighted = is_weighted_graph(graph)
    vertices = list(graph.vertices())
    rng = random.Random(seed)
    reverse = bucket == "high"
    by_degree = sorted(vertices, key=graph.degree, reverse=reverse)
    pool = by_degree[: max(2, len(by_degree) // 5)]
    chosen = set()
    updates = []
    tries = 0
    while len(updates) < k and tries < 500 * max(k, 1):
        tries += 1
        u = rng.choice(pool)
        v = rng.choice(vertices)
        if u == v:
            continue
        key = (u, v) if u <= v else (v, u)
        if key in chosen or graph.has_edge(*key):
            continue
        chosen.add(key)
        if weighted:
            updates.append(InsertEdge(*key, weight=rng.randint(*weight_range)))
        else:
            updates.append(InsertEdge(*key))
    if len(updates) < k:
        raise WorkloadError(f"could not find {k} skewed absent edges")
    return updates


def skewed_deletions(graph, k, seed=0, bucket="high"):
    """Sample ``k`` existing edges skewed by deg(u)·deg(v) (Figure 11).

    Weighted graphs get the deleted weight recorded, as in
    :func:`random_deletions`.
    """
    edges = _edge_pairs(graph)
    if k > len(edges):
        raise WorkloadError(f"cannot delete {k} edges from a graph with {len(edges)}")
    if bucket == "uniform":
        return random_deletions(graph, k, seed=seed)
    scored = sorted(edges, key=lambda e: edge_degree(graph, *e),
                    reverse=(bucket == "high"))
    pool = scored[: max(k, len(scored) // 5)]
    rng = random.Random(seed)
    picked = rng.sample(pool, k)
    if is_weighted_graph(graph):
        return [DeleteEdge(u, v, weight=graph.weight(u, v)) for u, v in picked]
    return [DeleteEdge(u, v) for u, v in picked]


def vertex_churn(graph, inserts=10, deletes=10, seed=0, attach=3):
    """A vertex-level workload: new vertices with edges, plus removals.

    Exercises the §3 vertex-insertion/deletion paths of the dynamic facade.
    New vertex ids continue after the current maximum id.
    """
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    if not vertices:
        raise WorkloadError("vertex churn needs a non-empty graph")
    next_id = max(vertices) + 1
    updates = []
    for i in range(inserts):
        targets = tuple(rng.sample(vertices, min(attach, len(vertices))))
        updates.append(InsertVertex(next_id + i, targets))
    victims = rng.sample(vertices, min(deletes, len(vertices)))
    updates.extend(DeleteVertex(v) for v in victims)
    rng.shuffle(updates)
    return updates
