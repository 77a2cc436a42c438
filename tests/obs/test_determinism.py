"""Telemetry determinism: identical seeds yield identical telemetry.

Every collector in :class:`~repro.obs.Telemetry` (event log, metrics,
energy ledger) records *simulated* time only, and metric aggregation is
exact, so a run's whole telemetry payload must be bit-identical whether
the work ran serially, fanned over worker processes, or decoded from
the result cache.
"""

from __future__ import annotations

import json

from repro.batch.sweep import BatchSweepSpec, batch_sweep
from repro.core.experiments import run_paper_suite
from repro.exec import ResultCache
from repro.obs import Telemetry

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
    """Digest of each run's whole telemetry, trace and remaining charge."""
    out = {}
    for label, run in runs.items():
        assert run.obs is not None and run.trace is not None
        out[label] = json.dumps(
            {
                "obs": run.obs.as_dict(),
                "trace": run.trace.as_dict(),
                "remaining_mah": run.pipeline.remaining_mah
                if run.pipeline is not None
                else None,
            },
            sort_keys=True,
        )
    return out


def test_event_logs_identical_serial_vs_parallel():
    runs = run_paper_suite(_LABELS, jobs=1, **_KW)
    assert all(list(run.obs.events.stream({"battery.draw"})) for run in runs.values())
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


def test_batch_sweep_telemetry_identical_cold_warm_and_parallel(tmp_path):
    spec = BatchSweepSpec(grid=2)
    cache = ResultCache(tmp_path / "cache")

    def sweep(**kw):
        obs = Telemetry()
        result = batch_sweep(spec, obs=obs, events=True, chunk_size=4, **kw)
        return result, obs.as_dict()

    cold, cold_obs = sweep(cache=cache)
    warm, warm_obs = sweep(cache=cache)
    assert (cold.stats.executed, warm.stats.cache_hits) == (4, 4)
    _, parallel_obs = sweep(jobs=2)
    assert len(Telemetry.from_dict(cold_obs).events)
    assert warm_obs == cold_obs
    assert parallel_obs == cold_obs
