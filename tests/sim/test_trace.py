"""Trace recording."""

import pytest

from repro.hw import SA1100_TABLE, ItsyNode
from repro.hw.battery import LinearBattery
from repro.hw.power import PAPER_POWER_MODEL, PowerMode
from repro.obs import EnergyLedger
from repro.sim import Segment, TraceRecorder


@pytest.fixture
def trace():
    t = TraceRecorder()
    t.add("n1", 0.0, 1.0, "recv", frequency_mhz=59.0, current_ma=30.0)
    t.add("n1", 1.0, 2.0, "proc", frequency_mhz=206.4, current_ma=130.0)
    t.add("n2", 0.5, 1.5, "idle", frequency_mhz=59.0, current_ma=30.0)
    return t


class TestSegment:
    def test_duration(self):
        seg = Segment("a", 1.0, 3.5, "proc")
        assert seg.duration == 2.5


class TestRecorder:
    def test_actors_in_first_seen_order(self, trace):
        assert trace.actors == ["n1", "n2"]

    def test_segments_per_actor(self, trace):
        assert len(trace.segments("n1")) == 2
        assert len(trace.segments("n2")) == 1

    def test_unknown_actor_empty(self, trace):
        assert trace.segments("nope") == []

    def test_total_charge(self, sim):
        """The timeline carries no charge account of its own: the charge
        under a node's recorded segments is what its ledger booked."""
        trace, ledger = TraceRecorder(), EnergyLedger()
        node = ItsyNode(
            sim, "n1", LinearBattery(100.0), PAPER_POWER_MODEL, SA1100_TABLE,
            trace=trace, ledger=ledger,
        )
        for mode, level, seconds in (
            (PowerMode.COMMUNICATION, SA1100_TABLE.min, 1.0),
            (PowerMode.COMPUTATION, SA1100_TABLE.max, 2.0),
            (PowerMode.IDLE, SA1100_TABLE.min, 0.5),
        ):
            node.set_state(mode, level)
            sim.run(until=sim.now + seconds)
        node.set_state(PowerMode.IDLE, SA1100_TABLE.min)
        timeline_mah = sum(
            s.current_ma * s.duration for s in trace.segments("n1")
        ) / 3600.0
        assert len(trace.segments("n1")) == 3
        assert ledger.node_totals_mah()["n1"] == pytest.approx(timeline_mah)

    def test_clear(self, trace):
        trace.clear()
        assert trace.actors == []

    def test_all_segments(self, trace):
        assert len(trace.all_segments()) == 3
