"""Null-sink contract: disabled telemetry does no recording work.

With ``Telemetry(events=False)`` every emit site is one falsy branch,
and the engine attaches no energy ledger to the nodes. The test below
checks that contract by counting, not by timing: wall-time cost is
measured by the end-to-end benchmark (``benchmarks/e2e/``), whose
bounds come from measured noise.
"""

from __future__ import annotations

from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
from repro.obs import Telemetry
from repro.obs.energy import EnergyLedger

from tests.conftest import tiny_battery_factory


def test_null_sink_produces_no_events_but_live_metrics(monkeypatch):
    adds = []
    real_add = EnergyLedger.add

    def counting_add(self, *args):
        adds.append(args)
        real_add(self, *args)

    monkeypatch.setattr(EnergyLedger, "add", counting_add)
    obs = Telemetry(events=False)
    run_experiment(
        PAPER_EXPERIMENTS["2A"],
        battery_factory=tiny_battery_factory,
        max_frames=5,
        telemetry=obs,
    )
    assert adds == []
    assert len(obs.energy) == 0
    assert len(obs.events) == 0
    assert obs.events.dropped == 0
    assert obs.metrics.counter("frames.completed").value == 5
