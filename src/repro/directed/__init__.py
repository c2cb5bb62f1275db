"""Directed extension (Appendix C.1): L_in/L_out labeling and its maintenance."""

from repro.directed.builder import build_directed_spc_index
from repro.directed.decremental import dec_spc_directed
from repro.directed.incremental import inc_spc_directed
from repro.directed.index import DirectedSPCIndex

__all__ = [
    "DirectedSPCIndex",
    "build_directed_spc_index",
    "inc_spc_directed",
    "dec_spc_directed",
]
