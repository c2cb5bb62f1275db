"""Hypothesis strategies for graphs and update sequences."""

from hypothesis import strategies as st

from repro.graph import DiGraph, Graph, WeightedGraph
from repro.workloads import DeleteEdge, DeleteVertex, InsertEdge, InsertVertex


@st.composite
def small_graphs(draw, min_vertices=2, max_vertices=12, connected_bias=True):
    """An undirected simple graph with a random subset of possible edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    if connected_bias and pairs:
        # Stitch a random spanning arrangement so most graphs are connected
        # (disconnected cases are still generated via the unbiased branch).
        if draw(st.booleans()):
            chain = [(i, i + 1) for i in range(n - 1)]
            edges = list({*edges, *chain})
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in edges:
        g.add_edge(u, v)
    return g


@st.composite
def small_digraphs(draw, min_vertices=2, max_vertices=9):
    """A directed simple graph with a random subset of possible arcs."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = DiGraph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in set(arcs):
        g.add_edge(u, v)
    return g


@st.composite
def small_weighted_graphs(draw, min_vertices=2, max_vertices=9, max_weight=4):
    """A weighted simple graph with small integer weights (exact ties)."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                  if pairs else st.just([]))
    g = WeightedGraph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in set(chosen):
        g.add_edge(u, v, draw(st.integers(1, max_weight)))
    return g


@st.composite
def update_scripts(draw, max_ops=10):
    """A script of abstract update ops to replay on any graph.

    Each op is ("ins", i) or ("del", i) where i indexes into the current
    candidate list (absent edges for ins, present edges for del); indices
    are taken modulo the list length at replay time so scripts compose with
    any graph.
    """
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 10_000)),
            max_size=max_ops,
        )
    )


def replay_script(graph, script, do_insert, do_delete):
    """Replay an abstract script against a live graph via callbacks."""
    n_applied = 0
    for kind, idx in script:
        if kind == "ins":
            candidates = _absent_edges(graph)
            if not candidates:
                continue
            u, v = candidates[idx % len(candidates)]
            do_insert(u, v)
        else:
            candidates = sorted(graph.edges())
            if not candidates:
                continue
            u, v = candidates[idx % len(candidates)][:2]
            do_delete(u, v)
        n_applied += 1
    return n_applied


def _absent_edges(graph):
    vs = sorted(graph.vertices())
    return [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1:]
        if not graph.has_edge(u, v)
    ]


def next_update(engine, kind, i):
    """Materialize one abstract op against the live graph, or None."""
    g = engine.graph
    directed = isinstance(g, DiGraph)
    weighted = isinstance(g, WeightedGraph)
    vs = sorted(g.vertices())
    if kind == "addv":
        return InsertVertex(vs[-1] + 1 if vs else 0)
    if kind == "delv":
        return DeleteVertex(vs[i % len(vs)]) if len(vs) > 2 else None
    if kind == "ins":
        pairs = [(u, v) for u in vs for v in vs
                 if (u != v if directed else u < v) and not g.has_edge(u, v)]
        if not pairs:
            return None
        u, v = pairs[i % len(pairs)]
        return InsertEdge(u, v, i % 4 + 1 if weighted else None)
    edges = sorted(g.edges())
    if not edges:
        return None
    u, v = edges[i % len(edges)][:2]
    return DeleteEdge(u, v)
