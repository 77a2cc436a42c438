"""Battery telemetry: the node's ``battery.draw`` samples and its ledger.

Itsy's on-board power monitor (§4.4) is modelled by the node itself:
per-mode charge and time land in the run's :class:`EnergyLedger`, and
state-of-charge samples are ``battery.draw`` events on the bus.
"""

import pytest

from repro.hw import SA1100_TABLE, ItsyNode
from repro.hw.battery import LinearBattery
from repro.hw.power import PAPER_POWER_MODEL, PowerMode
from repro.obs import EnergyLedger, EventLog
from repro.obs.events import discharge_curves

MAX = SA1100_TABLE.max
MIN = SA1100_TABLE.min


@pytest.fixture
def monitored(sim):
    log, ledger = EventLog(), EnergyLedger()
    node = ItsyNode(
        sim, "n1", LinearBattery(100.0), PAPER_POWER_MODEL, SA1100_TABLE,
        obs=log, ledger=ledger, monitor_interval_s=10.0,
    )
    return sim, node, log, ledger


def _hold(sim, node, mode, level, seconds):
    """Enter ``mode`` now and stay there for ``seconds``; returns the draw."""
    node.set_state(mode, level)
    current = node.current_ma
    sim.run(until=sim.now + seconds)
    return current


def _draws(log):
    return list(log.stream({"battery.draw"}))


def _time_by_mode(ledger, node):
    times: dict[str, float] = {}
    for row in ledger.rows():
        if row.node == node:
            times[row.mode] = times.get(row.mode, 0.0) + row.time_s
    return times


class TestAccounting:
    def test_charge_by_mode(self, monitored):
        sim, node, _, ledger = monitored
        comp = _hold(sim, node, PowerMode.COMPUTATION, MAX, 10.0)
        comm = _hold(sim, node, PowerMode.COMMUNICATION, MIN, 5.0)
        node.set_state(PowerMode.IDLE, MIN)  # closes the last segment
        totals = ledger.mode_totals_mah("n1")
        assert totals["computation"] == pytest.approx(comp * 10.0 / 3600.0)
        assert totals["communication"] == pytest.approx(comm * 5.0 / 3600.0)
        assert sum(totals.values()) == pytest.approx(node.battery.delivered_mah)

    def test_time_by_mode(self, monitored):
        sim, node, _, ledger = monitored
        _hold(sim, node, PowerMode.IDLE, MIN, 10.0)
        _hold(sim, node, PowerMode.IDLE, MIN, 10.0)
        node.set_state(PowerMode.IDLE, MIN)
        assert _time_by_mode(ledger, "n1") == {"idle": pytest.approx(20.0)}

    def test_mode_share(self, monitored):
        sim, node, _, ledger = monitored
        comp = _hold(sim, node, PowerMode.COMPUTATION, MAX, 1.0)
        idle_ma = PAPER_POWER_MODEL.current_ma(PowerMode.IDLE, MIN)
        # Three times the computation charge, spent idling.
        _hold(sim, node, PowerMode.IDLE, MIN, 3.0 * comp / idle_ma)
        node.set_state(PowerMode.IDLE, MIN)
        totals = ledger.mode_totals_mah("n1")
        share = totals["computation"] / sum(totals.values())
        assert share == pytest.approx(0.25)

    def test_mode_share_empty(self, monitored):
        _, node, log, ledger = monitored
        node.set_state(PowerMode.COMPUTATION, MAX)  # zero-length segment
        assert ledger.mode_totals_mah("n1") == {}
        assert _draws(log) == []


class TestSampling:
    def test_samples_respect_interval(self, monitored):
        sim, node, log, _ = monitored
        for _ in range(100):
            _hold(sim, node, PowerMode.IDLE, MIN, 1.0)
        node.set_state(PowerMode.IDLE, MIN)
        # 100 s of 1 s segments at >= 10 s spacing: at most 11 samples.
        times = [event.ts for event in _draws(log)]
        assert 2 <= len(times) <= 11
        assert all(b - a >= 10.0 for a, b in zip(times, times[1:]))

    def test_discharge_curve_is_nonincreasing(self, monitored):
        sim, node, log, _ = monitored
        for _ in range(30):  # 65 of the cell's 100 mAh
            _hold(sim, node, PowerMode.COMPUTATION, MAX, 60.0)
        node.set_state(PowerMode.IDLE, MIN)
        fractions = [f for _, f in discharge_curves(log)["n1"]]
        assert len(fractions) == 30
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == pytest.approx(node.battery.charge_fraction())

    def test_samples_carry_mode(self, monitored):
        sim, node, log, _ = monitored
        comm = _hold(sim, node, PowerMode.COMMUNICATION, MIN, 1.0)
        node.set_state(PowerMode.IDLE, MIN)
        first = _draws(log)[0]
        assert first.actor == "n1" and first.ts == 1.0
        assert first.data["mode"] == "communication"
        assert first.data["current_ma"] == comm

    def test_no_samples_without_interval(self, sim):
        log = EventLog()
        node = ItsyNode(
            sim, "n1", LinearBattery(100.0), PAPER_POWER_MODEL, SA1100_TABLE,
            obs=log,
        )
        _hold(sim, node, PowerMode.COMPUTATION, MAX, 60.0)
        node.set_state(PowerMode.IDLE, MIN)
        assert _draws(log) == []
