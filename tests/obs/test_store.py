"""Run registry: persistence, dedup, diffing, and mode-independence.

The acceptance bar for the registry is strict: the database contents
must be *byte-identical* whether a suite ran serially, fanned over
worker processes, or replayed from the result cache. That forbids
wall-clock columns and scheduling-dependent ordering, and it is what
these tests pin down alongside the ordinary CRUD behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.experiments import (
    PAPER_EXPERIMENTS,
    experiment_fingerprint,
    run_experiment,
    run_paper_suite,
)
from repro.errors import ConfigurationError
from repro.exec import ResultCache
from repro.obs import RunRegistry, build_run_record, diff_records
from repro.obs.store import git_revision

from tests.conftest import tiny_battery_factory

_KW = dict(
    battery_factory=tiny_battery_factory,
    max_frames=15,
    telemetry=True,
    monitor_interval_s=60.0,
)
_LABELS = ["1A", "2", "2A"]


@pytest.fixture()
def run_2a():
    return run_experiment(PAPER_EXPERIMENTS["2A"], **_KW)


def _record(run, label="2A"):
    return build_run_record(
        run, experiment_fingerprint(PAPER_EXPERIMENTS[label], _KW)
    )


class TestRunRecord:
    def test_summary_carries_headline_scalars(self, run_2a):
        record = _record(run_2a)
        assert record.label == "2A"
        assert record.summary["frames"] == run_2a.frames
        assert record.summary["t_hours"] == run_2a.t_hours
        assert record.summary["tnorm_hours"] == run_2a.t_hours / 2
        assert set(record.summary["death_times_s"]) <= {"node1", "node2"}
        assert record.summary["late_results"] == run_2a.pipeline.late_results
        assert record.summary["delivered_mah"].keys() == {"node1", "node2"}

    def test_metrics_snapshot_and_event_digest(self, run_2a):
        record = _record(run_2a)
        assert record.n_events == len(run_2a.obs.events)
        assert record.n_events > 0
        assert record.event_digest is not None
        assert record.metrics == run_2a.obs.metrics.as_dict()

    def test_run_id_is_deterministic_and_config_sensitive(self, run_2a):
        a = _record(run_2a)
        b = _record(run_2a)
        assert a.run_id == b.run_id
        other = build_run_record(run_2a, "different-fingerprint")
        assert other.run_id != a.run_id

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_run_id_survives_the_cache_payload_round_trip(self, mode):
        # The cache stores _run_payload as JSON: tuples come back as
        # lists and every event lands in the columns, yet the event
        # digest, and so the run_id, must not move.
        import json
        import pickle

        from repro.core.experiments import _run_from_payload, _run_payload

        kwargs = dict(_KW, mode=mode, max_frames=None)
        run = run_experiment(PAPER_EXPERIMENTS["2"], **kwargs)
        if mode == "fast":
            assert run.obs.events.counts_by_kind().get("ff.epoch")
        fingerprint = experiment_fingerprint(PAPER_EXPERIMENTS["2"], kwargs)
        payload = json.loads(json.dumps(_run_payload(run)))
        replayed = _run_from_payload(run.spec, payload)
        shipped = pickle.loads(pickle.dumps(run))
        want = build_run_record(run, fingerprint)
        for other in (replayed, shipped):
            got = build_run_record(other, fingerprint)
            assert got.event_digest == want.event_digest
            assert got.run_id == want.run_id

    def test_no_telemetry_run_registers_without_events(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["2"],
            battery_factory=tiny_battery_factory,
            max_frames=5,
        )
        record = build_run_record(
            run, experiment_fingerprint(PAPER_EXPERIMENTS["2"], {})
        )
        assert record.n_events == 0
        assert record.event_digest is None
        assert record.metrics == {}


class TestRunRegistry:
    def test_record_and_reload(self, tmp_path, run_2a):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        record = _record(run_2a)
        assert registry.record(record) is True
        assert len(registry) == 1
        loaded = registry.get(record.run_id[:10])
        assert loaded == record

    def test_reregistration_is_a_noop(self, tmp_path, run_2a):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        record = _record(run_2a)
        assert registry.record(record) is True
        assert registry.record(record) is False
        assert len(registry) == 1

    def test_get_rejects_unknown_and_ambiguous(self, tmp_path, run_2a):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        with pytest.raises(ConfigurationError, match="no registered run"):
            registry.get("feedface")
        registry.record(_record(run_2a))
        with pytest.raises(ConfigurationError, match="empty run id"):
            registry.get("")
        # A prefix shared by nothing else resolves; the full id too.
        record = registry.list_runs()[0]
        assert registry.get(record.run_id).run_id == record.run_id

    def test_latest_filters_by_label_and_fingerprint(self, tmp_path, run_2a):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        record = _record(run_2a)
        registry.record(record)
        assert registry.latest("2A") == record
        assert registry.latest("2C") is None
        assert registry.latest("2A", fingerprint=record.fingerprint) == record
        assert registry.latest("2A", fingerprint="something-else") is None

    def test_list_runs_paginates(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        for label in _LABELS:
            run = run_experiment(PAPER_EXPERIMENTS[label], **_KW)
            registry.record(_record(run, label))
        everything = registry.list_runs()
        assert [r.label for r in everything] == list(reversed(_LABELS))
        assert registry.list_runs(limit=2) == everything[:2]
        assert registry.list_runs(limit=2, offset=1) == everything[1:3]
        # A bare offset pages without a limit; past-the-end is empty.
        assert registry.list_runs(offset=2) == everything[2:]
        assert registry.list_runs(offset=10) == []
        with pytest.raises(ConfigurationError, match="offset"):
            registry.list_runs(offset=-1)

    def test_reset_empties_the_registry(self, tmp_path, run_2a):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        registry.record(_record(run_2a))
        assert registry.reset() == 1
        assert len(registry) == 0
        assert registry.list_runs() == []
        # Resetting a registry whose file never existed is fine too.
        assert RunRegistry(tmp_path / "missing.sqlite").reset() == 0

    def test_missing_database_reads_as_empty(self, tmp_path):
        registry = RunRegistry(tmp_path / "never-created.sqlite")
        assert len(registry) == 0
        assert registry.list_runs() == []
        assert registry.dump_rows() == []
        assert not (tmp_path / "never-created.sqlite").exists()


class TestModeIndependence:
    """The acceptance criterion: registry bytes == across execution modes."""

    def _dump(self, tmp_path, name, **suite_kwargs):
        registry = RunRegistry(tmp_path / f"{name}.sqlite")
        run_paper_suite(_LABELS, registry=registry, **suite_kwargs, **_KW)
        return registry.dump_rows()

    def test_serial_parallel_and_cached_registries_identical(self, tmp_path):
        serial = self._dump(tmp_path, "serial", jobs=1)
        parallel = self._dump(tmp_path, "parallel", jobs=4)
        cache = ResultCache(tmp_path / "cache")
        filled = self._dump(tmp_path, "cache-fill", jobs=2, cache=cache)
        assert cache.misses == len(_LABELS)
        replayed = self._dump(tmp_path, "cache-replay", jobs=2, cache=cache)
        assert cache.hits == len(_LABELS)
        assert serial == parallel == filled == replayed
        assert len(serial) == len(_LABELS)

    def test_registry_param_does_not_change_fingerprints(self, tmp_path):
        spec = PAPER_EXPERIMENTS["2A"]
        with_registry = dict(_KW, registry=RunRegistry(tmp_path / "r.sqlite"))
        assert experiment_fingerprint(spec, _KW) == experiment_fingerprint(
            spec, with_registry
        )

    def test_run_experiment_accepts_registry_path(self, tmp_path):
        db = tmp_path / "direct.sqlite"
        run_experiment(PAPER_EXPERIMENTS["2A"], registry=str(db), **_KW)
        registry = RunRegistry(db)
        assert len(registry) == 1
        assert registry.latest("2A").summary["frames"] > 0


class TestDiffRecords:
    def test_different_policies_produce_nonzero_deltas(self, tmp_path):
        runs = run_paper_suite(["2", "2A"], **_KW)
        a = build_run_record(
            runs["2"], experiment_fingerprint(PAPER_EXPERIMENTS["2"], _KW)
        )
        b = build_run_record(
            runs["2A"], experiment_fingerprint(PAPER_EXPERIMENTS["2A"], _KW)
        )
        rows = diff_records(a, b)
        nonzero = [r for r in rows if r["delta"]]
        assert nonzero, "different DVS policies must differ in some metric"
        by_name = {r["metric"]: r for r in rows}
        # 2A switches DVS levels during I/O; 2 never does.
        assert by_name["counter:events.dvs.switch"]["delta"] != 0

    def test_identical_records_diff_to_zero(self, run_2a):
        record = _record(run_2a)
        rows = diff_records(record, record, threshold_pct=1.0)
        assert rows
        assert all(r["delta"] == 0.0 for r in rows)
        assert not any(r["regression"] for r in rows)

    def test_threshold_flags_regressions(self, run_2a):
        record = _record(run_2a)
        bumped = build_run_record(run_2a, record.fingerprint)
        summary = dict(bumped.summary)
        summary["frames"] = summary["frames"] * 2
        import dataclasses

        bumped = dataclasses.replace(bumped, summary=summary)
        rows = diff_records(record, bumped, threshold_pct=5.0)
        flagged = {r["metric"] for r in rows if r["regression"]}
        assert "frames" in flagged


def test_git_revision_in_a_repo_or_none():
    sha = git_revision()
    assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))
