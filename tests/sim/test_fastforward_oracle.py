"""Fast == exact on configs drawn from the explore space.

A tier-1 slice of the differential oracle: 400 configs are drawn by
index from the 1,296-config small-cell space (the default space's
policy, cut, rotation, bandwidth and I/O axes, with capacities at 1/25
of the paper's cell), each by a counter-based hash, so a failure
reproduces from its draw number alone. Every runnable draw is simulated
in both modes; the two runs must deliver the same frames and lifetime,
see the same deaths, and end on the same event at the same time.
"""

from __future__ import annotations

import hashlib

from repro.core.experiments import run_experiment
from repro.errors import ConfigurationError, InfeasiblePartitionError
from repro.explore.space import Axis, SpaceSpec, default_space
from repro.hw.battery.kibam import PAPER_KIBAM_PARAMETERS

DRAWS = 400


def _space() -> SpaceSpec:
    cap = PAPER_KIBAM_PARAMETERS.capacity_mah / 25.0
    small = Axis.grid("capacity_mah", cap / 4.0, cap, 3)
    axes = default_space(2, 3, 3).axes
    return SpaceSpec(axes=tuple(small if a.name == "capacity_mah" else a for a in axes))


def _draw(i: int, size: int) -> int:
    digest = hashlib.sha256(f"fuzz:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % size


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * abs(a)


def _divergence(exact, fast) -> str | None:
    """What differs between the two modes' runs, or None."""
    ex, ff = exact.pipeline, fast.pipeline
    if fast.frames != exact.frames or fast.t_hours != exact.t_hours:
        return f"frames {exact.frames} vs {fast.frames}"
    if fast.death_times_s.keys() != exact.death_times_s.keys() or not all(
        _close(t, fast.death_times_s[name]) for name, t in exact.death_times_s.items()
    ):
        return f"deaths {exact.death_times_s} vs {fast.death_times_s}"
    if ff.end_reason != ex.end_reason or not _close(ex.end_time_s, ff.end_time_s):
        return (
            f"end {ex.end_reason}@{ex.end_time_s!r} vs {ff.end_reason}@{ff.end_time_s!r}"
        )
    return None


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
        )
        try:
            exact = run_experiment(config.experiment_spec(), mode="exact", **kwargs)
        except (InfeasiblePartitionError, ConfigurationError):
            continue
        fast = run_experiment(config.experiment_spec(), mode="fast", **kwargs)
        runnable += 1
        jumped += fast.pipeline.ff_jumps > 0
        problem = _divergence(exact, fast)
        if problem is not None:
            divergences.append(f"draw {i} ({config.label}): {problem}")
    assert divergences == []
    # The slice must exercise the jump, not just exact fallbacks.
    assert runnable >= 150
    assert jumped >= 30
