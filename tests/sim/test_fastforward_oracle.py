"""Fast == exact on configs drawn from the explore space.

A tier-1 slice of the differential oracle: 400 configs are drawn by
index from the 1,296-config small-cell space (the default space's
policy, cut, rotation, bandwidth and I/O axes, with capacities at 1/25
of the paper's cell), each by a counter-based hash, so a failure
reproduces from its draw number alone. Every runnable draw is simulated
in both modes, and the two runs must agree on everything
:func:`repro.sim.fastforward.divergence` compares: frames and lifetime,
deaths, the run's end, deadline misses and monitor verdicts.

The tier-2 slice holds the same contract at the paper's capacity, on
the explore benchmark's frontier members and a few hash-drawn configs,
each simulated as the explore ladder simulates it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.experiments import run_experiment
from repro.errors import ConfigurationError, InfeasiblePartitionError
from repro.explore import halving
from repro.explore.space import Axis, SpaceSpec, default_space
from repro.hw.battery.kibam import PAPER_KIBAM_PARAMETERS
from repro.sim.fastforward import divergence

DRAWS = 400


def _space() -> SpaceSpec:
    cap = PAPER_KIBAM_PARAMETERS.capacity_mah / 25.0
    small = Axis.grid("capacity_mah", cap / 4.0, cap, 3)
    axes = default_space(2, 3, 3).axes
    return SpaceSpec(axes=tuple(small if a.name == "capacity_mah" else a for a in axes))


def _draw(i: int, size: int, salt: str = "fuzz") -> int:
    digest = hashlib.sha256(f"{salt}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % size


def test_fast_equals_exact_on_drawn_configs():
    space = _space()
    assert space.size() == 1296
    runnable = jumped = 0
    divergences = []
    for i in range(DRAWS):
        config = space.config_at(_draw(i, space.size()))
        kwargs = dict(
            battery_factory=config.battery_factory(),
            power_model=config.power_model(),
            timing=config.timing(),
            telemetry=True,
        )
        try:
            exact = run_experiment(config.experiment_spec(), mode="exact", **kwargs)
        except (InfeasiblePartitionError, ConfigurationError):
            continue
        fast = run_experiment(config.experiment_spec(), mode="fast", **kwargs)
        runnable += 1
        jumped += fast.pipeline.ff_jumps > 0
        problem = divergence(exact, fast)
        if problem is not None:
            divergences.append(f"draw {i} ({config.label}): {problem}")
    assert divergences == []
    # The slice must exercise the jump, not just exact fallbacks.
    assert runnable >= 150
    assert jumped >= 30


#: (deadline, index) of the explore benchmark's frontier member at each
#: deadline a benchmark seed can pick, in ``default_space(deadlines=(d,))``.
FRONTIER_MEMBERS = ((2.2, 70548), (2.3, 70548), (2.4, 70548), (2.5, 70260))
#: Hash-drawn configs of the paper-capacity space, beside the members.
PAPER_DRAWS = 4


def _paper_capacity_space() -> SpaceSpec:
    cap = Axis.choice("capacity_mah", PAPER_KIBAM_PARAMETERS.capacity_mah)
    axes = default_space().axes
    return SpaceSpec(axes=tuple(cap if a.name == "capacity_mah" else a for a in axes))


def _ladder_divergence(config):
    """Fast vs exact for one config, each run as the explore ladder runs it."""
    exact = halving._sim_job((config, "exact", None))
    return divergence(exact, halving._sim_job((config, "fast", None)))


@pytest.mark.tier2
def test_fast_equals_exact_at_paper_capacity():
    cap = PAPER_KIBAM_PARAMETERS.capacity_mah
    checked = {}
    for d, index in FRONTIER_MEMBERS:
        config = default_space(deadlines=(d,)).config_at(index)
        assert config.capacity_mah == cap
        checked[f"{config.label} at {d} s"] = _ladder_divergence(config)
    space = _paper_capacity_space()
    i = 0
    while len(checked) < len(FRONTIER_MEMBERS) + PAPER_DRAWS:
        config = space.config_at(_draw(i, space.size(), "paper"))
        try:
            checked[f"draw {i} ({config.label})"] = _ladder_divergence(config)
        except (InfeasiblePartitionError, ConfigurationError):
            pass
        i += 1
    assert {name: p for name, p in checked.items() if p is not None} == {}
