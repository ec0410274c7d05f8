"""Tests for the one serialization protocol (`repro.core.serde`).

Every structured object crossing a process boundary travels as its
class's own ``to_dict`` encoded by ``canonical_json``; decoding with
``json.loads`` and rebuilding with ``from_dict`` must give it back.
"""

import json

from repro.core.serde import canonical_json
from repro.faults import FaultPlan
from repro.gen.firmware import BiasKnobs
from repro.hopes.runtime import ExecutionReport
from repro.manycore.machine import ManyCoreConfig
from repro.maps.spec import PEClass, PlatformSpec
from repro.maps.taskgraph import TaskGraph
from repro.vp import SoC, SoCConfig

COUNTER = """
    li r1, 0
    li r2, 20
loop:
    addi r1, r1, 3
    sw r1, 40(r0)
    addi r2, r2, -1
    bne r2, r0, loop
    halt
"""


def _task_graph():
    graph = TaskGraph("serde")
    graph.add_task("a", 4.0)
    graph.add_task("b", 6.0)
    graph.connect("a", "b", words=8)
    return graph


def _snapshot():
    soc = SoC(SoCConfig(n_cores=1, backend="compiled", quantum=8),
              {0: COUNTER})
    soc.run(until=30)
    return soc.checkpoint(note="serde")


def _instances():
    return [
        FaultPlan(seed=3).flip_ram_bit(addr=16, bit=2, at=50.0),
        _task_graph(),
        PlatformSpec.symmetric(2, PEClass.RISC),
        ExecutionReport(target="smp2", end_time=12.5,
                        sink_outputs={"sink": [1, 2, 3]}),
        _snapshot(),
        BiasKnobs(),
        ManyCoreConfig(n_cores=4),
    ]


def test_every_class_round_trips_through_canonical_json():
    for obj in _instances():
        cls = type(obj)
        again = cls.from_dict(json.loads(canonical_json(obj.to_dict())))
        assert type(again) is cls, cls.__name__
        assert again.to_dict() == obj.to_dict(), cls.__name__
