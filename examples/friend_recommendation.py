"""Friend recommendation by shortest-path counting (the paper's §1 example).

Distance alone cannot rank candidates: in the intro's graph H, users b and c
are both at distance 2 from a, but c shares more mutual friends — i.e. more
shortest paths — so c should rank first.  This example scales that idea to a
synthetic social network and keeps recommendations fresh while friendships
form and dissolve, without ever rebuilding the index.

Run with:  python examples/friend_recommendation.py
"""

import random

import repro
from repro.applications import recommend_friends
from repro.graph import powerlaw_cluster


def main():
    rng = random.Random(7)
    graph = powerlaw_cluster(300, attach=3, triangle_prob=0.6, seed=7)
    dyn = repro.open(graph)

    user = max(graph.vertices(), key=graph.degree)
    print(f"user {user} has {graph.degree(user)} friends")
    print("top recommendations (candidate, mutual friends):")
    for other, mutual in recommend_friends(dyn.graph, dyn, user):
        print(f"  {other}: {mutual}")

    # The user accepts the top recommendation; the index updates in-place.
    top, _ = recommend_friends(dyn.graph, dyn, user)[0]
    stats = dyn.insert_edge(user, top)
    print(f"\nuser {user} befriends {top} "
          f"({stats.elapsed * 1e3:.2f} ms index update)")

    # Someone unfollows; DecSPC repairs the affected labels only.
    victim = next(iter(dyn.graph.neighbors(user)))
    stats = dyn.delete_edge(user, victim)
    print(f"user {user} unfollows {victim} "
          f"({stats.elapsed * 1e3:.2f} ms index update)")

    print("\nrefreshed recommendations:")
    for other, mutual in recommend_friends(dyn.graph, dyn, user):
        print(f"  {other}: {mutual}")

    # Consistency check: ranking by counts matches online BFS counting.
    from repro import bfs_counting_pair

    for other, mutual in recommend_friends(dyn.graph, dyn, user):
        assert bfs_counting_pair(dyn.graph, user, other) == (2, mutual)
    print("\nrecommendations verified against BFS ground truth")


if __name__ == "__main__":
    main()
