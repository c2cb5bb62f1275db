"""Small graph-algorithm toolkit used across the library and the harness.

Connected components (the ESPC verifier needs them to assert that
disconnected pairs answer (inf, 0)), largest-component extraction (dataset
construction), degree statistics and a sampled diameter/effective-diameter
estimate (dataset reporting for the Table 3 analogue).
"""

from collections import deque

from repro.graph.base import degree_histogram
from repro.graph.undirected import Graph


def connected_components(graph):
    """Return a list of vertex sets, one per connected component."""
    seen = set()
    components = []
    for start in graph.vertices():
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        components.append(comp)
    return components


def largest_component(graph):
    """Return the subgraph induced by the largest connected component.

    Vertex ids are preserved.  The paper's update experiments implicitly
    assume a mostly-connected graph; the dataset registry extracts the giant
    component of each synthetic analogue.
    """
    comps = connected_components(graph)
    if not comps:
        return Graph()
    biggest = max(comps, key=len)
    return induced_subgraph(graph, biggest)


def induced_subgraph(graph, vertices):
    """Return the subgraph induced by ``vertices`` (ids preserved)."""
    keep = set(vertices)
    sub = Graph()
    for v in keep:
        sub.add_vertex(v)
    for u, v in graph.edges():
        if u in keep and v in keep:
            sub.add_edge(u, v)
    return sub


def is_connected(graph):
    """Return True if the graph has exactly one connected component."""
    if graph.num_vertices == 0:
        return True
    return len(connected_components(graph)) == 1


def approximate_diameter(graph, samples=8, seed=0):
    """Lower-bound the diameter by double-sweep BFS from sampled sources."""
    import random

    vertices = list(graph.vertices())
    if not vertices:
        return 0
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        start = rng.choice(vertices)
        # Double sweep: BFS to the farthest vertex, then BFS again from it.
        far, _ = _farthest(graph, start)
        _, ecc = _farthest(graph, far)
        best = max(best, ecc)
    return best


def _farthest(graph, source):
    dist = {source: 0}
    queue = deque([source])
    far, ecc = source, 0
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                if dist[w] > ecc:
                    ecc = dist[w]
                    far = w
                queue.append(w)
    return far, ecc


def degree_stats(graph):
    """Return a dict with min/max/mean degree and the degree histogram."""
    degs = list(graph.degrees().values())
    if not degs:
        return {"min": 0, "max": 0, "mean": 0.0, "histogram": {}}
    return {
        "min": min(degs),
        "max": max(degs),
        "mean": sum(degs) / len(degs),
        "histogram": degree_histogram(degs),
    }
