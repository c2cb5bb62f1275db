"""Core: the SPC-Index, HP-SPC construction, and the DSPC update algorithms,
for undirected, directed (Appendix C.1) and weighted (Appendix C.2) graphs."""

from repro.core.builder import build_spc_index
from repro.core.decremental import dec_spc
from repro.core.incremental import inc_spc
from repro.core.index import DirectedSPCIndex, SPCIndex
from repro.core.labels import ENTRY_BYTES, LabelSet, pack_entry, unpack_entry
from repro.core.paths import (
    count_paths_through,
    enumerate_shortest_paths,
    is_on_some_shortest_path,
    shortest_path,
)
from repro.core.stats import StreamStats, UpdateStats

__all__ = [
    "SPCIndex",
    "DirectedSPCIndex",
    "LabelSet",
    "build_spc_index",
    "inc_spc",
    "dec_spc",
    "UpdateStats",
    "StreamStats",
    "pack_entry",
    "unpack_entry",
    "ENTRY_BYTES",
    "shortest_path",
    "enumerate_shortest_paths",
    "is_on_some_shortest_path",
    "count_paths_through",
]
