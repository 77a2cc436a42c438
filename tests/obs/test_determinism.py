"""Telemetry determinism: identical seeds yield identical event logs.

The event log records *simulated* time only, and metric aggregation is
exact, so a run's telemetry must be bit-identical whether the suite ran
serially, fanned over worker processes, or decoded from the result
cache. Wall-clock span records are the documented exception and are
excluded from these comparisons.
"""

from __future__ import annotations

import json

from repro.core.experiments import run_paper_suite
from repro.exec import ResultCache

from tests.conftest import tiny_battery_factory

_LABELS = ["1A", "2", "2A"]
_KW = dict(
    battery_factory=tiny_battery_factory,
    max_frames=15,
    telemetry=True,
    trace=True,
    monitor_interval_s=60.0,
)


def _fingerprint(runs):
    """Deterministic digest of each run's telemetry (spans excluded)."""
    out = {}
    for label, run in runs.items():
        obs = run.obs
        assert obs is not None and run.trace is not None
        out[label] = json.dumps(
            {
                "events": obs.events.as_dict(),
                "metrics": obs.metrics.as_dict(),
                "trace": run.trace.as_dict(),
                "energy": obs.energy.as_dict(),
                "remaining_mah": run.pipeline.remaining_mah
                if run.pipeline is not None
                else None,
            },
            sort_keys=True,
        )
    return out


def test_event_logs_identical_serial_vs_parallel():
    runs = run_paper_suite(_LABELS, jobs=1, **_KW)
    assert all(run.obs.events.of_kind("battery.draw") for run in runs.values())
    serial = _fingerprint(runs)
    parallel = _fingerprint(run_paper_suite(_LABELS, jobs=4, **_KW))
    assert serial == parallel


def test_event_logs_identical_through_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = _fingerprint(run_paper_suite(_LABELS, jobs=2, cache=cache, **_KW))
    assert cache.misses == len(_LABELS) and cache.hits == 0
    second = _fingerprint(run_paper_suite(_LABELS, jobs=2, cache=cache, **_KW))
    assert cache.hits == len(_LABELS)
    assert first == second


def test_same_seed_same_events_repeated_in_process():
    a = _fingerprint(run_paper_suite(_LABELS, jobs=1, **_KW))
    b = _fingerprint(run_paper_suite(_LABELS, jobs=1, **_KW))
    assert a == b
