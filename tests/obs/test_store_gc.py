"""Registry lifecycle: gc by count and age, migration of legacy DBs."""

import sqlite3

import pytest

from repro.errors import ConfigurationError, RegistryError
from repro.obs import RunRegistry
from repro.obs.store import RunRecord, build_explore_record


def fake_record(i: int, label: str = "2A") -> RunRecord:
    return RunRecord(
        run_id=f"{i:064x}",
        label=label,
        fingerprint="f" * 64,
        version="1.0.0",
        git_sha=None,
        n_events=0,
        event_digest=None,
        summary={"t_hours": float(i), "frames": i},
        metrics={},
    )


@pytest.fixture()
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs.sqlite")


class TestGcKeepLast:
    def test_keeps_newest_n(self, registry):
        for i in range(10):
            registry.record(fake_record(i))
        removed = registry.gc(keep_last=3)
        assert removed == 7
        remaining = registry.list_runs()
        assert [r.summary["frames"] for r in remaining] == [9, 8, 7]

    def test_label_scoped(self, registry):
        for i in range(4):
            registry.record(fake_record(i, label="2A"))
        for i in range(4, 8):
            registry.record(fake_record(i, label="2C"))
        removed = registry.gc(keep_last=1, label="2A")
        assert removed == 3
        assert len(registry.list_runs(label="2A")) == 1
        assert len(registry.list_runs(label="2C")) == 4

    def test_trims_explore_sessions_too(self, registry):
        for i in range(5):
            registry.record_explore(
                build_explore_record("fp", i, "predict", [{"name": "predict"}])
            )
        registry.gc(keep_last=2)
        assert len(registry.list_explore_sessions()) == 2

    def test_keep_more_than_present_removes_nothing(self, registry):
        registry.record(fake_record(0))
        assert registry.gc(keep_last=10) == 0


class TestGcByAge:
    def test_young_rows_survive(self, registry):
        registry.record(fake_record(0))
        assert registry.gc(older_than_days=1.0) == 0
        assert len(registry.list_runs()) == 1

    def test_zero_days_removes_everything(self, registry):
        for i in range(3):
            registry.record(fake_record(i))
        assert registry.gc(older_than_days=0.0) == 3
        assert registry.list_runs() == []

    def test_legacy_rows_without_timestamp_count_as_old(self, registry):
        registry.record(fake_record(0))
        with sqlite3.connect(registry.path) as conn:
            conn.execute("UPDATE runs SET created_at = NULL")
        assert registry.gc(older_than_days=365.0) == 1

    def test_age_respects_label_scope(self, registry):
        registry.record(fake_record(0, label="2A"))
        registry.record(fake_record(1, label="2C"))
        assert registry.gc(older_than_days=0.0, label="2A") == 1
        assert len(registry.list_runs(label="2C")) == 1


class TestGcValidation:
    def test_needs_a_criterion(self, registry):
        with pytest.raises(ConfigurationError, match="gc needs"):
            registry.gc()

    def test_negative_values_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.gc(keep_last=-1)
        with pytest.raises(ConfigurationError):
            registry.gc(older_than_days=-1.0)

    def test_missing_db_is_empty(self, registry):
        assert registry.gc(keep_last=5) == 0


class TestMigration:
    def test_pre_timestamp_database_gains_created_at(self, tmp_path):
        path = tmp_path / "old.sqlite"
        # A database created by the previous schema (no created_at, no
        # explore_sessions table).
        with sqlite3.connect(path) as conn:
            conn.execute(
                "CREATE TABLE runs (run_id TEXT PRIMARY KEY, label TEXT "
                "NOT NULL, fingerprint TEXT NOT NULL, version TEXT NOT "
                "NULL, git_sha TEXT, n_events INTEGER NOT NULL, "
                "event_digest TEXT, summary TEXT NOT NULL, metrics TEXT "
                "NOT NULL, seq INTEGER NOT NULL)"
            )
            conn.execute(
                "INSERT INTO runs VALUES ('a'*1, '2A', 'f', '0.9', NULL, "
                "0, NULL, '{}', '{}', 1)"
            )
        registry = RunRegistry(path)
        records = registry.list_runs()
        assert len(records) == 1
        # Legacy row has no timestamp: age-based gc treats it as old...
        assert registry.gc(older_than_days=9999.0) == 1
        # ...and new writes stamp created_at so they survive the same gc.
        registry.record(fake_record(1))
        assert registry.gc(older_than_days=9999.0) == 0

    def test_dump_rows_excludes_created_at(self, registry):
        registry.record(fake_record(0))
        rows = registry.dump_rows()
        assert len(rows) == 1
        # 9 content columns + seq; the wall-clock column must not leak
        # into the determinism dump.
        assert len(rows[0]) == 10


def _not_a_database(path):
    path.write_text("this is not a database\n" * 100)


def _torn(path):
    registry = RunRegistry(path)
    for i in range(200):
        registry.record(fake_record(i))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


class TestTornRegistry:
    """A damaged registry file raises a typed error naming it, never a
    bare ``sqlite3.DatabaseError``, through the library and the CLI."""

    CASES = [(_not_a_database, "file is not a database"),
             (_torn, "database disk image is malformed")]

    @pytest.mark.parametrize("damage, message", CASES, ids=["not-a-db", "torn"])
    def test_library_raises_registry_error(self, tmp_path, damage, message):
        path = tmp_path / "runs.sqlite"
        damage(path)
        registry = RunRegistry(path)
        for call in (RunRegistry.list_runs, len, lambda r: r.record(fake_record(0))):
            with pytest.raises(RegistryError, match=message) as info:
                call(registry)
            assert str(path) in str(info.value)
            assert isinstance(info.value.__cause__, sqlite3.DatabaseError)

    @pytest.mark.parametrize("damage, message", CASES, ids=["not-a-db", "torn"])
    def test_cli_prints_an_error_and_exits_1(self, tmp_path, capsys, damage, message):
        from repro.cli import main

        path = tmp_path / "runs.sqlite"
        damage(path)
        assert main(["runs", "--db", str(path), "list"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run registry ") and str(path) in err
        assert message in err and "Traceback" not in err
