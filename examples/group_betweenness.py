"""Group betweenness via shortest-path counting (the paper's §1 application).

Group betweenness of a vertex set C is

    B(C) = sum over pairs s, t not in C of  delta_st(C) / delta_st

where delta_st counts all shortest s-t paths and delta_st(C) those passing
through C.  Since delta_st(C) = delta_st − delta_st(G \\ C), both terms are
pairwise SPC queries: one on G, one on G with C removed — and removing C is
just a few SPCEngine.delete_vertex calls, no rebuild.

Run with:  python examples/group_betweenness.py
"""

import repro
from repro.applications import group_betweenness
from repro.graph import watts_strogatz


def main():
    graph = watts_strogatz(60, k=4, rewire_prob=0.2, seed=5)
    dyn = repro.open(graph)
    vertices = sorted(graph.vertices())

    def betweenness(group):
        return group_betweenness(dyn.graph, dyn.index, group)

    # Rank single vertices by group betweenness (classic betweenness).
    scored = []
    for v in vertices[:20]:
        scored.append((betweenness([v]), v))
    scored.sort(reverse=True)
    print("top-5 single-vertex betweenness:")
    for score, v in scored[:5]:
        print(f"  vertex {v}: {score:.1f}")

    # Greedy group of size 3: extend the best singleton.
    best_single = scored[0][1]
    best_pair = max(
        ((betweenness([best_single, v]), v) for _, v in scored[1:8]),
    )
    group = [best_single, best_pair[1]]
    print(f"\ngreedy group of 2: {group} with B = {best_pair[0]:.1f}")

    # The graph changes; betweenness follows without any rebuild.
    u, v = next(iter(sorted(dyn.graph.edges())))
    dyn.delete_edge(u, v)
    print(f"\nafter deleting edge ({u}, {v}):")
    print(f"  B({group}) = {betweenness(group):.1f}")


if __name__ == "__main__":
    main()
