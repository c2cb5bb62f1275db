"""Checkpoints written before two config knobs were removed still restore.

Older checkpoints carry ``use_isolated_fast_path`` and
``sd_defer_rebuilds`` in their ``config`` block: DecSPC now decides the
§3.2.3 fast path itself, and the SD backend always folds one batch's
deletes into a single rebuild.  ``config_from_payload`` drops keys this
version does not know, so such a checkpoint restores on every backend
and the restored engine answers like the one that wrote it.
"""

import json

import pytest

from repro.engine import EngineConfig, SPCEngine
from repro.graph.generators import erdos_renyi, random_directed, random_weighted
from repro.serve import engine_from_payload, engine_to_payload
from repro.workloads import DeleteEdge, random_insertions

MAKERS = {
    "core": erdos_renyi,
    "directed": random_directed,
    "weighted": random_weighted,
    "sd": erdos_renyi,
}

REMOVED_KEYS = {"use_isolated_fast_path": True, "sd_defer_rebuilds": True}


@pytest.mark.parametrize("backend", sorted(MAKERS))
def test_checkpoint_with_removed_config_keys_restores(backend):
    engine = SPCEngine(MAKERS[backend](14, 28, seed=3),
                       config=EngineConfig(backend=backend, cache_size=0))
    first = sorted(engine.graph.edges())[0]
    engine.apply_batch(random_insertions(engine.graph, 4, seed=2)
                       + [DeleteEdge(*first[:2])])
    payload = engine_to_payload(engine)
    assert not REMOVED_KEYS.keys() & payload["config"].keys()
    payload["config"].update(REMOVED_KEYS)

    restored = engine_from_payload(json.loads(json.dumps(payload)))

    assert restored.backend_name == backend
    assert restored.config == engine.config
    vertices = sorted(engine.graph.vertices())
    pairs = [(s, t) for s in vertices for t in vertices]
    assert restored.query_many(pairs) == engine.query_many(pairs)
    assert restored.check()
