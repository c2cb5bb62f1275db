"""Shared fixtures: the paper's example graphs.

``paper_graph`` is the 12-vertex graph of Figure 2, reconstructed from the
SPC-Index printed in Table 2 (every (h, 1, 1) entry pins an edge; the
remaining entries cross-check distances and counts).  ``PAPER_INDEX`` is
Table 2 verbatim, in vertex-id space.

``no_leaked_spc_threads`` (autouse) fails any test that leaves a thread
it started — one whose name begins ``spc-``: a service writer, replica,
shard or auditor — still running after a 1 s grace.

The suite runs with ``-W error::DeprecationWarning``.  When a hypothesis
test fails, hypothesis imports ``hypothesis.extra._patching`` to print an
explicit-example patch; with libcst installed that import warns
``mypy_extensions.TypedDict is deprecated``, and the error turns the
report into an INTERNALERROR with no test name or falsifying example.  The
module is imported once here with only that warning ignored, so the later
import is cached and silent.  Without libcst there is nothing to import.
"""

import threading
import time
import warnings

import pytest

from repro.graph import Graph
from repro.order import VertexOrder

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Figure 2 example graph: v0..v11 with the ordering v0 <= v1 <= ... <= v11.
PAPER_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 8), (0, 11),
    (1, 2), (1, 5), (1, 6),
    (2, 3), (2, 5),
    (3, 7), (3, 8),
    (4, 5), (4, 7), (4, 9),
    (6, 10),
    (9, 10),
]

# Table 2: the SPC-Index of the example graph (hub id, distance, count).
PAPER_INDEX = {
    0: [(0, 0, 1)],
    1: [(0, 1, 1), (1, 0, 1)],
    2: [(0, 1, 1), (1, 1, 1), (2, 0, 1)],
    3: [(0, 1, 1), (1, 2, 1), (2, 1, 1), (3, 0, 1)],
    4: [(0, 3, 3), (1, 2, 1), (2, 2, 1), (3, 2, 1), (4, 0, 1)],
    5: [(0, 2, 2), (1, 1, 1), (2, 1, 1), (4, 1, 1), (5, 0, 1)],
    6: [(0, 2, 1), (1, 1, 1), (4, 3, 1), (6, 0, 1)],
    7: [(0, 2, 1), (1, 3, 2), (2, 2, 1), (3, 1, 1), (4, 1, 1), (7, 0, 1)],
    8: [(0, 1, 1), (2, 2, 1), (3, 1, 1), (8, 0, 1)],
    9: [(0, 4, 4), (1, 3, 2), (2, 3, 1), (3, 3, 1), (4, 1, 1), (6, 2, 1), (9, 0, 1)],
    10: [(0, 3, 1), (1, 2, 1), (3, 4, 1), (4, 2, 1), (6, 1, 1), (9, 1, 1), (10, 0, 1)],
    11: [(0, 1, 1), (11, 0, 1)],
}


@pytest.fixture(autouse=True)
def no_leaked_spc_threads():
    """Fail the test if a ``spc-`` thread it started outlives it."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    while True:
        leaked = [
            t.name for t in threading.enumerate()
            if t not in before and t.name.startswith("spc-")
        ]
        if not leaked or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    if leaked:
        pytest.fail(f"test leaked running threads: {sorted(leaked)}")


@pytest.fixture
def paper_graph():
    """A fresh copy of the Figure 2 graph (12 vertices, 17 edges)."""
    return Graph.from_edges(PAPER_EDGES)


@pytest.fixture
def paper_order():
    """The prescribed ordering v0 <= v1 <= ... <= v11."""
    return VertexOrder(range(12))


@pytest.fixture
def paper_index(paper_graph, paper_order):
    """The SPC-Index built over the paper graph with the paper ordering."""
    from repro.core import build_spc_index

    return build_spc_index(paper_graph, order=paper_order)


# Figure 4 toy graph for the decremental motivation example (Example 3.9).
# Reconstructed from the printed labels: h is adjacent to w and a; the main
# line is h - a - b - u; the detour chain w - w1 - w2 - w3 - w4 - u gives
# sd(h, u) = 6 and the new label (w, 5, 1) in L(u) once (a, b) is deleted.
# Ordering: h <= w <= a <= b <= u <= w1 <= w2 <= w3 <= w4.
TOY_VERTICES = ["h", "w", "a", "b", "u", "w1", "w2", "w3", "w4"]
TOY_EDGES = [
    ("h", "w"), ("h", "a"),
    ("a", "b"),
    ("b", "u"),
    ("w", "w1"), ("w1", "w2"), ("w2", "w3"), ("w3", "w4"), ("w4", "u"),
]


@pytest.fixture
def toy_graph():
    """The Figure 4 toy graph used by Example 3.9."""
    return Graph.from_edges(TOY_EDGES)


@pytest.fixture
def toy_order():
    """Ordering h <= w <= a <= b <= u <= w1 <= w2 <= w3 <= w4."""
    return VertexOrder(TOY_VERTICES)
