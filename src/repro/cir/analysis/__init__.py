"""Static analyses over mini-C ASTs.

These are the analyses the paper's tools depend on:

- :mod:`repro.cir.analysis.cfg` -- per-function control-flow graphs;
- :mod:`repro.cir.analysis.dataflow` -- reaching definitions, liveness and
  def-use chains (the "advanced dataflow analysis" of MAPS, section IV);
- :mod:`repro.cir.analysis.dependence` -- the counted-loop reader and
  chunker, loop dependence testing and DOALL/reduction classification,
  used by both the MAPS partitioner and the Source Recoder (section VI);
- :mod:`repro.cir.analysis.cost` -- static cost estimation for task weights.
"""

from repro.cir.analysis.cfg import CFG, CFGNode, build_cfg
from repro.cir.analysis.dataflow import (
    DataflowResult,
    analyze_dataflow,
    stmt_defs,
    stmt_uses,
)
from repro.cir.analysis.dependence import (
    AccessInfo,
    CountedLoop,
    Dependence,
    LoopInfo,
    LoopClass,
    analyze_loop,
    chunk_loop,
    collect_array_accesses,
    counted_loop,
)
from repro.cir.analysis.cost import estimate_cost, estimate_function_cost

__all__ = [
    "AccessInfo", "CFG", "CFGNode", "CountedLoop", "DataflowResult",
    "Dependence", "LoopClass", "LoopInfo", "analyze_dataflow",
    "analyze_loop", "build_cfg", "chunk_loop", "collect_array_accesses",
    "counted_loop", "estimate_cost", "estimate_function_cost", "stmt_defs",
    "stmt_uses",
]
