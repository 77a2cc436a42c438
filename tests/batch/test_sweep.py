"""batch_sweep: spec enumeration, scalar equivalence, executor wiring."""

import pytest

from repro.batch.sweep import (
    PARAMETERS,
    BatchSweepSpec,
    SweepPoint,
    batch_sweep,
    evaluate_tasks_batch,
    task_reference_scalar,
    verify_sample,
)
from repro.errors import ConfigurationError
from repro.exec import executor
from repro.exec.cache import ResultCache
from repro.obs import Telemetry


class TestBatchSweepSpec:
    def test_grid_point_count(self):
        assert len(BatchSweepSpec(grid=3).points()) == 81
        assert len(BatchSweepSpec(grid=2).points()) == 16
        assert len(BatchSweepSpec(grid=1).points()) == 1

    def test_one_at_a_time_matches_classic_shape(self):
        points = BatchSweepSpec(grid=3, mode="one_at_a_time").points()
        assert points[0].label == "nominal"
        assert len(points) == 1 + 2 * len(PARAMETERS)

    def test_parameter_subset_restricts_axes(self):
        spec = BatchSweepSpec(grid=3, parameters=("capacity", "c"))
        assert len(spec.points()) == 9
        for point in spec.points():
            assert point.factors[2] == 1.0 and point.factors[3] == 1.0

    def test_axis_factors_span(self):
        factors = BatchSweepSpec(grid=3, rel_span=0.10).axis_factors()
        assert factors == (0.9, 1.0, 1.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid": 0},
            {"rel_span": 0.0},
            {"rel_span": 1.0},
            {"mode": "sideways"},
            {"parameters": ("capacity", "bogus")},
            {"parameters": ()},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchSweepSpec(**kwargs)

    def test_nominal_point_resolves_to_calibrated_constants(self):
        from repro.hw.battery.kibam import PAPER_KIBAM_PARAMETERS
        from repro.hw.power import PAPER_POWER_MODEL

        _, battery, power = SweepPoint("nominal", (1.0, 1.0, 1.0, 1.0)).task()
        assert battery == PAPER_KIBAM_PARAMETERS
        assert power.io_activity == PAPER_POWER_MODEL.io_activity


class TestScalarEquivalence:
    def test_one_at_a_time_matches_task_reference_scalar(self):
        """The classic nine-row table: labels and outcomes equal the
        scalar reference per point, bit for bit."""
        spec = BatchSweepSpec(grid=3, rel_span=0.10, mode="one_at_a_time")
        result = batch_sweep(spec)
        assert [o.label for o in result.outcomes] == [
            "nominal",
            *(f"{p} {c}" for p in PARAMETERS for c in ("-10%", "+10%")),
        ]
        for point, outcome in zip(result.points, result.outcomes):
            assert outcome == task_reference_scalar(point.task())[0], point.label

    def test_grid_matches_point_reference_scalar(self):
        """Every config of a 16-point grid: outcome and frame identity."""
        spec = BatchSweepSpec(grid=2, rel_span=0.10)
        points = spec.points()
        batch = evaluate_tasks_batch([point.task() for point in points])
        for i, point in enumerate(points):
            outcome, cycles = task_reference_scalar(point.task())
            assert batch.outcomes[i] == outcome, point.label
            assert batch.cycles[i] == cycles, point.label

    def test_verify_sample_passes(self):
        result = batch_sweep(BatchSweepSpec(grid=2))
        report = verify_sample(result, sample=4)
        assert report.ok
        assert report.checked == 4
        assert report.frames_identical
        assert report.max_rel_err == 0.0
        assert report.mismatches == ()


class TestExecutorWiring:
    SPEC = BatchSweepSpec(grid=2)  # 16 configs

    def test_chunking_is_invisible(self):
        whole = batch_sweep(self.SPEC, chunk_size=100)
        chunked = batch_sweep(self.SPEC, chunk_size=5)
        assert chunked.stats.chunks == 4
        assert whole.outcomes == chunked.outcomes
        assert whole.cycles == chunked.cycles

    def test_parallel_matches_serial(self, monkeypatch):
        # Fan-out is checked by counting, not timing: jobs=2 over four
        # chunks must build a two-worker pool, so a regression that
        # quietly runs jobs>1 serially fails here on any host.
        pools = []
        real_pool = executor.ProcessPoolExecutor

        def spy_pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor", spy_pool)
        serial = batch_sweep(self.SPEC, jobs=1, chunk_size=4)
        assert pools == []
        parallel = batch_sweep(self.SPEC, jobs=2, chunk_size=4)
        assert parallel.stats.chunks == 4
        assert pools == [2]
        assert serial.outcomes == parallel.outcomes
        assert serial.cycles == parallel.cycles

    def test_cache_replay_is_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = batch_sweep(self.SPEC, cache=cache, chunk_size=4)
        assert first.stats.executed == 4 and first.stats.cache_hits == 0
        replay = batch_sweep(self.SPEC, cache=cache, chunk_size=4)
        assert replay.stats.executed == 0 and replay.stats.cache_hits == 4
        assert replay.outcomes == first.outcomes
        assert replay.cycles == first.cycles

    def test_telemetry_folds_identically_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")

        def epoch_events(obs):
            return [
                (e.kind, e.ts, e.actor, sorted(e.data.items()))
                for e in obs.events.records
                if e.kind == "batch.epoch"
            ]

        live = Telemetry()
        batch_sweep(self.SPEC, cache=cache, chunk_size=4, obs=live, events=True)
        cached = Telemetry()
        batch_sweep(self.SPEC, cache=cache, chunk_size=4, obs=cached, events=True)
        assert epoch_events(live) == epoch_events(cached)
        assert len(epoch_events(live)) > 0

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError):
            batch_sweep(self.SPEC, chunk_size=0)

    def test_stats_and_summary(self):
        result = batch_sweep(self.SPEC, chunk_size=8)
        assert result.stats.configs == 16
        assert result.stats.cells == 64
        assert result.stats.configs_per_sec > 0
        summary = result.summary()
        assert summary["configs"] == 16
        # The paper's ordering is robust across +/-10% perturbations.
        assert summary["ordering_fraction"] == 1.0
        assert summary["frames"] == sum(sum(c) for c in result.cycles)
