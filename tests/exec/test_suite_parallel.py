"""Suite-level guarantees: parallel determinism and cache round-trips."""

import pytest

from repro.core.experiments import run_paper_suite
from repro.exec import ResultCache
from tests.conftest import tiny_battery_factory

LABELS = ["1", "2"]


def _fingerprint(run):
    p = run.pipeline
    return (
        run.frames,
        run.t_hours,
        tuple(sorted(run.death_times_s.items())),
        tuple(p.result_times_s) if p else None,
        tuple(sorted(p.link_transactions.items())) if p else None,
        tuple(sorted(p.stage_stalls.items())) if p else None,
        p.events_processed if p else None,
    )


def test_parallel_bit_identical_to_serial():
    serial = run_paper_suite(LABELS, battery_factory=tiny_battery_factory)
    parallel = run_paper_suite(
        LABELS, battery_factory=tiny_battery_factory, jobs=2
    )
    assert list(serial) == list(parallel)
    for label in serial:
        assert _fingerprint(serial[label]) == _fingerprint(parallel[label])


def test_cache_round_trip_returns_identical_metrics(tmp_path):
    cache = ResultCache(root=tmp_path, salt="s")
    kwargs = dict(battery_factory=tiny_battery_factory, cache=cache)
    fresh = run_paper_suite(LABELS, **kwargs)
    assert cache.misses == len(LABELS)
    cached = run_paper_suite(LABELS, **kwargs)
    assert cache.hits == len(LABELS)
    baseline = fresh["1"].t_hours
    for label in LABELS:
        assert _fingerprint(fresh[label]) == _fingerprint(cached[label])
        assert fresh[label].metrics(baseline) == cached[label].metrics(baseline)


def test_cache_misses_on_config_change(tmp_path):
    cache = ResultCache(root=tmp_path, salt="s")
    run_paper_suite(["1"], battery_factory=tiny_battery_factory,
                    cache=cache, max_frames=5)
    run_paper_suite(["1"], battery_factory=tiny_battery_factory,
                    cache=cache, max_frames=6)
    assert cache.hits == 0
    assert cache.misses == 2


def test_explicit_default_seed_hits_cache(tmp_path):
    cache = ResultCache(root=tmp_path, salt="s")
    run_paper_suite(["1"], battery_factory=tiny_battery_factory,
                    cache=cache, max_frames=5)
    run_paper_suite(["1"], battery_factory=tiny_battery_factory,
                    cache=cache, max_frames=5, seed=0)
    assert cache.hits == 1


def test_monitored_runs_are_cached(tmp_path):
    """battery.draw samples and end-of-run charge round-trip through the
    payload, so monitored runs cache."""
    cache = ResultCache(root=tmp_path, salt="s")
    kwargs = dict(battery_factory=tiny_battery_factory, cache=cache,
                  max_frames=5, telemetry=True, monitor_interval_s=60.0)
    first = run_paper_suite(["1"], **kwargs)
    second = run_paper_suite(["1"], **kwargs)
    assert cache.misses == 1 and cache.hits == 1
    draws1 = list(first["1"].obs.events.stream({"battery.draw"}))
    draws2 = list(second["1"].obs.events.stream({"battery.draw"}))
    assert draws2 and draws1 == draws2
    # A decoded run has no live battery; what it left is on record.
    assert second["1"].pipeline.remaining_mah == first["1"].pipeline.remaining_mah


def test_traced_runs_are_cached_and_parallel(tmp_path):
    """trace=True no longer forces serial, uncached execution."""
    cache = ResultCache(root=tmp_path, salt="s")
    kwargs = dict(battery_factory=tiny_battery_factory, cache=cache,
                  max_frames=5, trace=True, jobs=2)
    first = run_paper_suite(LABELS, **kwargs)
    second = run_paper_suite(LABELS, **kwargs)
    assert cache.misses == len(LABELS) and cache.hits == len(LABELS)
    for label in LABELS:
        t1, t2 = first[label].trace, second[label].trace
        assert t1 is not None and t2 is not None
        assert t1.as_dict() == t2.as_dict()
        assert t1.all_segments()  # the recorder actually recorded


def test_unknown_label_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_paper_suite(["nope"], jobs=2)


@pytest.mark.tier2
def test_full_suite_parallel_bit_identical_on_paper_battery():
    """Acceptance: the calibrated eight-experiment suite, serial vs jobs=4."""
    serial = run_paper_suite()
    parallel = run_paper_suite(jobs=4)
    assert list(serial) == list(parallel)
    for label in serial:
        assert _fingerprint(serial[label]) == _fingerprint(parallel[label])
