"""Tests for the versioned serialization protocol (`repro.core.serde`).

Every registered ``to_dict``/``from_dict`` pair must round-trip through
the tagged envelope codec byte-for-byte; version mismatches are hard
errors unless the class ships a ``serde_upgrade`` migration hook; tags
are wire-stable names that can never be rebound.
"""

import pytest

from repro.core.serde import (
    DATA_KEY, ReproDeprecationWarning, SERDE_KEY, SerdeError, VERSION_KEY,
    canonical_json, dump, dumps, is_envelope, load, loads, serde, serde_tag,
)
from repro.faults import FaultPlan
from repro.gen.firmware import BiasKnobs
from repro.hopes.runtime import ExecutionReport
from repro.manycore.machine import ManyCoreConfig
from repro.maps.spec import PEClass, PlatformSpec
from repro.maps.taskgraph import TaskGraph
from repro.snap import Snapshot
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
        FaultPlan(seed=3).flip_ram(addr=16, bit=2, at=50.0),
        _task_graph(),
        PlatformSpec.symmetric(2, PEClass.RISC),
        ExecutionReport(target="smp2", end_time=12.5,
                        sink_outputs={"sink": [1, 2, 3]}),
        _snapshot(),
        BiasKnobs(),
        ManyCoreConfig(n_cores=4),
    ]


class TestEnvelopeRoundTrip:
    def test_every_registered_class_round_trips(self):
        for obj in _instances():
            again = loads(dumps(obj))
            assert type(again) is type(obj), serde_tag(obj)
            assert again.to_dict() == obj.to_dict(), serde_tag(obj)

    def test_envelope_shape_and_detection(self):
        plan = FaultPlan(seed=1)
        envelope = dump(plan)
        assert envelope[SERDE_KEY] == "fault-plan"
        assert envelope[VERSION_KEY] == 1
        assert envelope[DATA_KEY] == plan.to_dict()
        assert is_envelope(envelope)
        assert not is_envelope(plan.to_dict())
        assert not is_envelope([1, 2])

    def test_envelope_text_is_canonical(self):
        plan = FaultPlan(seed=1).flip_ram(addr=4, bit=0, at=1.0)
        assert dumps(plan) == canonical_json(dump(plan))
        assert load(dump(plan)).to_dict() == plan.to_dict()


class TestEnvelopeErrors:
    def test_unknown_tag_rejected(self):
        with pytest.raises(SerdeError, match="unknown serde tag"):
            load({SERDE_KEY: "no-such-tag", VERSION_KEY: 1, DATA_KEY: {}})

    def test_non_envelope_rejected(self):
        with pytest.raises(SerdeError, match="not a serde envelope"):
            load({"seed": 1})
        with pytest.raises(SerdeError, match="invalid serde JSON"):
            loads("{not json")

    def test_missing_data_rejected(self):
        with pytest.raises(SerdeError, match="no data dict"):
            load({SERDE_KEY: "fault-plan", VERSION_KEY: 1})

    def test_version_mismatch_without_hook_is_hard_error(self):
        envelope = dump(FaultPlan(seed=1))
        envelope[VERSION_KEY] = 99
        with pytest.raises(SerdeError, match="serde_upgrade"):
            load(envelope)

    def test_unregistered_object_has_no_tag(self):
        with pytest.raises(SerdeError, match="not @serde-registered"):
            serde_tag(object())


class TestRegistry:
    def test_tag_cannot_be_rebound(self):
        with pytest.raises(SerdeError, match="cannot rebind"):
            @serde("fault-plan")
            class Impostor:
                def to_dict(self):
                    return {}

                @classmethod
                def from_dict(cls, data):
                    return cls()

    def test_decorator_validates_tag_version_and_pair(self):
        with pytest.raises(SerdeError, match="non-empty string"):
            serde("")
        with pytest.raises(SerdeError, match="int >= 1"):
            serde("x", version=0)
        with pytest.raises(SerdeError, match="to_dict/from_dict"):
            @serde("test-serde-pairless")
            class Pairless:
                pass

    def test_upgrade_hook_migrates_old_payloads(self):
        @serde("test-serde-upgradable", version=2)
        class Upgradable:
            def __init__(self, value):
                self.value = value

            def to_dict(self):
                return {"value": self.value}

            @classmethod
            def from_dict(cls, data):
                return cls(data["value"])

            @classmethod
            def serde_upgrade(cls, data, version):
                assert version == 1
                return {"value": data["old_value"] * 10}

        old = {SERDE_KEY: "test-serde-upgradable", VERSION_KEY: 1,
               DATA_KEY: {"old_value": 7}}
        assert load(old).value == 70
        # current-version payloads bypass the hook entirely
        assert load(dump(Upgradable(3))).value == 3

    def test_registered_classes_expose_tag_and_version(self):
        assert FaultPlan.__serde_tag__ == "fault-plan"
        assert FaultPlan.__serde_version__ == 1
        assert serde_tag(FaultPlan(seed=0)) == "fault-plan"


def test_repro_deprecation_warning_category():
    # tier-1 promotes exactly this category to an error; it must stay a
    # DeprecationWarning subclass so stdlib tooling treats it as one.
    assert issubclass(ReproDeprecationWarning, DeprecationWarning)
