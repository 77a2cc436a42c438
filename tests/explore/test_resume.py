"""Resume determinism: SIGKILL an exploration mid-rung, resume, compare.

The contract under test is the one ``repro explore --resume`` sells:
kill the process at any point, resume from the registry's latest cursor
against the same result cache, and the frontier export and registry
dumps come out byte-identical to a run that was never interrupted —
with at most the one in-flight chunk re-executed, because the executor
persists each chunk's payload the moment it settles.

The kill is deterministic, not timing-based: a subprocess driver wraps
``ResultCache.put`` and raises ``SIGKILL`` around the N-th write, so
each test pins exactly which rung (and which chunk within it) dies.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec import ResultCache
from repro.explore import explore
from repro.explore import halving
from repro.explore.halving import RUNGS
from repro.obs.store import RunRegistry
from tests.explore.test_halving import small_space

KEEP = (8, 4, 2)
CHUNK = 2
NAMES = [rung.name for rung in RUNGS]

#: A version-1 cursor exactly as the registry stored it after rung
#: "cohort" of ``explore(small_space(), keep=KEEP, chunk_size=CHUNK,
#: guided=True)``, written by the build that still had the exhaustive
#: rung-0 driver beside the guided one.
V1_COHORT_CURSOR = {
    "candidates": [
        [96, 0.20926352690955133, 0.0, 0.20926352690955133, 327, 0, ""],
        [97, 0.2068133371849105, 0.0, 0.2068133371849105, 323, 0, ""],
        [98, 0.20439767046446913, 0.0, 0.20439767046446913, 319, 0, ""],
        [99, 0.20226746342680282, 0.0, 0.20226746342680282, 316, 0, ""],
    ],
    "disqualified": {},
    "keep": [8, 4, 2],
    "limit": None,
    "mode": "guided",
    "n_configs": 120,
    "rung": "cohort",
    "rungs": [
        {"disqualified": 0, "entered": 120, "evaluated": 120,
         "name": "predict", "promoted": 8},
        {"disqualified": 0, "entered": 8, "evaluated": 8,
         "name": "cohort", "promoted": 4},
    ],
    "sampler": {
        "probed": 120,
        "proposals": 120,
        "rounds": 1,
        "stop_reason": "exhausted",
        "universe": 120,
    },
    "version": 1,
}

#: A version-2 cursor exactly as the registry stored it after rung
#: "fast" of ``explore(small_space(), keep=KEEP, chunk_size=CHUNK)``,
#: written by the build whose last rung re-ran every entrant in exact
#: mode. Its run ids name fast-mode runs, which this build reproduces.
V2_FAST_CURSOR = {
    "candidates": [
        [96, 0.20891666666666664, 0.20926352690955133, 0.20891666666666664,
         327, 0,
         "83abb450528bfe6b9cf9474fbae3aeb98a2562b8b9afad4467280d3fe2ff9a71"],
        [97, 0.2063611111111111, 0.2068133371849105, 0.2063611111111111,
         323, 0,
         "f037ff070eb1b78c35766f9e9c79d859c32f5926edad38eed50f982c4710dca0"],
    ],
    "disqualified": {},
    "keep": [8, 4, 2],
    "limit": None,
    "mode": "guided",
    "n_configs": 120,
    "rung": "fast",
    "rungs": [
        {"disqualified": 0, "entered": 120, "evaluated": 120,
         "name": "predict", "promoted": 8},
        {"disqualified": 0, "entered": 8, "evaluated": 8,
         "name": "cohort", "promoted": 4},
        {"disqualified": 0, "entered": 4, "evaluated": 4,
         "name": "fast", "promoted": 2},
    ],
    "sampler": {
        "probed": 120,
        "proposals": 120,
        "rounds": 1,
        "stop_reason": "exhausted",
        "universe": 120,
    },
    "version": 2,
}

_DRIVER = """
import os, signal, sys

sys.path.insert(0, {src!r})

from repro.exec.cache import ResultCache
from repro.explore import Axis, SpaceSpec
from repro.explore.halving import explore
from repro.obs.store import RunRegistry

kill_after = int(sys.argv[1])
before = sys.argv[2] == "before"


class KillingCache(ResultCache):
    puts = 0

    def put(self, key, payload):
        KillingCache.puts += 1
        if before and KillingCache.puts == kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        super().put(key, payload)
        if not before and KillingCache.puts == kill_after:
            os.kill(os.getpid(), signal.SIGKILL)


space = SpaceSpec(axes=(
    Axis.choice("policy", "baseline", "slowest", "dvs_io"),
    Axis.choice("cut", (), (2,)),
    Axis.grid("capacity_mah", 30.0, 70.0, 5),
    Axis.grid("io_activity", 0.1, 0.6, 4),
))
explore(
    space,
    keep={keep!r},
    cache=KillingCache(sys.argv[3]),
    registry=RunRegistry(sys.argv[4]),
    chunk_size={chunk},
)
"""


def _run_driver(tmp_path: Path, kill_after: int, when: str) -> None:
    """Run one exploration in a subprocess, SIGKILLed at the N-th put."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _DRIVER.format(src=src, keep=KEEP, chunk=CHUNK),
            str(kill_after),
            when,
            str(tmp_path / "cache"),
            str(tmp_path / "runs.sqlite"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr


def _control(tmp_path: Path):
    """An uninterrupted run in its own cache/registry, plus put counts."""
    puts: list[str] = []

    class CountingCache(ResultCache):
        def put(self, key, payload):
            puts.append(key)
            super().put(key, payload)

    registry = RunRegistry(tmp_path / "control.sqlite")
    result = explore(
        small_space(),
        keep=KEEP,
        cache=CountingCache(tmp_path / "control-cache"),
        registry=registry,
        chunk_size=CHUNK,
    )
    # One put per executed item: the accounting below leans on it.
    assert len(puts) == sum(r.executed for r in result.rungs[1:])
    return result, registry, puts


def _resume(tmp_path: Path):
    registry = RunRegistry(tmp_path / "runs.sqlite")
    record = registry.latest_explore_cursor()
    assert record is not None and record.cursor is not None
    result = explore(
        small_space(),
        keep=KEEP,
        cache=ResultCache(tmp_path / "cache"),
        registry=registry,
        chunk_size=CHUNK,
        resume=record.cursor,
    )
    return result, registry, record


def _frontier_blob(result) -> str:
    return json.dumps(result.frontier_payload()["frontier"], sort_keys=True)


@pytest.fixture(scope="module")
def control(tmp_path_factory):
    return _control(tmp_path_factory.mktemp("control"))


class TestKillMidRung:
    def _check(self, tmp_path, control, kill_after, when, dead_rung):
        result, control_registry, puts = control
        _run_driver(tmp_path, kill_after, when)

        killed_registry = RunRegistry(tmp_path / "runs.sqlite")
        snapshots = killed_registry.list_explore_sessions()
        # The killed session left a clean prefix: every completed rung
        # snapshotted, nothing from the rung that died.
        assert [s.rung for s in snapshots] == list(
            reversed(NAMES[: NAMES.index(dead_rung)])
        )

        resumed, resumed_registry, record = _resume(tmp_path)
        assert resumed.resumed_rungs == NAMES.index(dead_rung)
        assert _frontier_blob(resumed) == _frontier_blob(result)

        # Registry contents byte-identical to the uninterrupted run's.
        assert resumed_registry.dump_rows() == control_registry.dump_rows()
        assert (
            resumed_registry.dump_explore_rows()
            == control_registry.dump_explore_rows()
        )

        # Work accounting. The killed session executed ``kill_after``
        # items and persisted each one's payload as it settled (minus
        # the in-flight one in the "before" variant); restored rungs
        # never touch the cache again, so the resumed session hits the
        # dead rung's persisted items and executes everything else.
        total = len(puts)
        persisted = kill_after if when == "after" else kill_after - 1
        skipped = sum(
            r.executed
            for r in result.rungs[1 : NAMES.index(dead_rung)]
        )
        executed = sum(r.executed for r in resumed.rungs[1:])
        hits = sum(r.cache_hits for r in resumed.rungs[1:])
        assert hits == persisted - skipped
        assert executed == total - persisted
        # Items executed by both sessions — at most the in-flight one.
        re_executed = kill_after + executed - total
        assert re_executed == (0 if when == "after" else 1)

    def test_sigkill_mid_rung1_resumes_identically(self, tmp_path, control):
        # Rung 1 writes the first cache entries; die mid-way through
        # them, after the second chunk's payload landed on disk.
        _, _, puts = control
        assert len(puts) >= 4
        self._check(tmp_path, control, 2, "after", "cohort")

    def test_sigkill_mid_rung1_in_flight_chunk_lost(self, tmp_path, control):
        # Die *before* the second chunk's payload persists: that chunk
        # was in flight, and it alone re-executes on resume.
        self._check(tmp_path, control, 2, "before", "cohort")

    def test_sigkill_mid_rung2_resumes_identically(self, tmp_path, control):
        # Past rung 1's chunk writes, into rung 2's per-config sims.
        result, _, puts = control
        rung1_chunks = result.rungs[1].executed
        assert len(puts) > rung1_chunks + 1
        self._check(tmp_path, control, rung1_chunks + 2, "after", "fast")

    def test_completed_session_resume_is_noop(self, tmp_path, control):
        result, _, _ = control
        registry = RunRegistry(tmp_path / "runs.sqlite")
        uninterrupted = explore(
            small_space(),
            keep=KEEP,
            cache=ResultCache(tmp_path / "cache"),
            registry=registry,
            chunk_size=CHUNK,
        )
        record = registry.latest_explore_cursor()
        assert record.rung == "frontier"
        resumed = explore(
            small_space(),
            keep=KEEP,
            cache=ResultCache(tmp_path / "cache"),
            registry=registry,
            chunk_size=CHUNK,
            resume=record.cursor,
        )
        assert resumed.resumed_rungs == len(RUNGS)
        assert sum(r.executed for r in resumed.rungs) == 0
        assert _frontier_blob(resumed) == _frontier_blob(uninterrupted)
        assert _frontier_blob(resumed) == _frontier_blob(result)


class TestVersionOneCursor:
    def test_stored_cohort_cursor_resumes_to_same_frontier(self, control):
        result, _, _ = control
        resumed = explore(
            small_space(),
            keep=KEEP,
            chunk_size=CHUNK,
            resume=json.loads(json.dumps(V1_COHORT_CURSOR)),
        )
        assert resumed.resumed_rungs == 2
        assert [r.content() for r in resumed.rungs[:2]] == (
            V1_COHORT_CURSOR["rungs"]
        )
        assert _frontier_blob(resumed) == _frontier_blob(result)


class TestVersionTwoCursor:
    def test_stored_fast_cursor_resumes_to_same_frontier(self, control):
        result, _, _ = control
        resumed = explore(
            small_space(),
            keep=KEEP,
            chunk_size=CHUNK,
            resume=json.loads(json.dumps(V2_FAST_CURSOR)),
        )
        assert resumed.resumed_rungs == 3
        assert _frontier_blob(resumed) == _frontier_blob(result)
        # The frontier keeps the stored cursor's fast-run ids.
        stored = {row[0]: row[6] for row in V2_FAST_CURSOR["candidates"]}
        for member in resumed.frontier:
            assert member.run_id == stored[member.config.index]

    def test_audit_after_resume_reruns_the_fast_runs(self, control, monkeypatch):
        # A cursor holds no runs, so the audit simulates the audited
        # entrants' fast runs again to compare their exact runs with.
        monkeypatch.setattr(halving, "AUDIT_EVERY", 1)
        result, _, _ = control
        resumed = explore(
            small_space(),
            keep=KEEP,
            chunk_size=CHUNK,
            resume=json.loads(json.dumps(V2_FAST_CURSOR)),
        )
        last = resumed.rungs[-1]
        assert last.evaluated == last.entered == 2
        assert last.executed == 4  # two fast runs again, two exact runs
        assert _frontier_blob(resumed) == _frontier_blob(result)

    @pytest.mark.parametrize("rung", ["predict", "cohort", "fast"])
    def test_cursor_before_the_last_rung_resumes(self, rung, control):
        result, registry, _ = control
        cursor = next(
            s.cursor for s in registry.list_explore_sessions() if s.rung == rung
        )
        resumed = explore(
            small_space(),
            keep=KEEP,
            chunk_size=CHUNK,
            resume=dict(cursor, version=2),
        )
        assert resumed.resumed_rungs == NAMES.index(rung) + 1
        assert _frontier_blob(resumed) == _frontier_blob(result)

    def test_cursor_at_the_last_rung_refused(self, control):
        # Its candidates carry the run ids of exact-mode runs, which no
        # frontier of this build names.
        from repro.errors import ConfigurationError

        _, registry, _ = control
        cursors = [
            s.cursor for s in registry.list_explore_sessions()
            if s.cursor["rung"] == "exact"
        ]
        assert len(cursors) == 2  # the last rung's snapshot and the frontier's
        for cursor in cursors:
            with pytest.raises(ConfigurationError, match="version 2"):
                explore(
                    small_space(), keep=KEEP, chunk_size=CHUNK,
                    resume=dict(cursor, version=2),
                )


class TestCursorValidation:
    def test_mismatched_arguments_rejected(self, tmp_path, control):
        from repro.errors import ConfigurationError

        registry = RunRegistry(tmp_path / "runs.sqlite")
        explore(
            small_space(),
            keep=KEEP,
            registry=registry,
            chunk_size=CHUNK,
        )
        cursor = registry.latest_explore_cursor().cursor
        with pytest.raises(ConfigurationError, match="keep"):
            explore(
                small_space(), keep=(9, 4, 2), resume=cursor
            )
        with pytest.raises(ConfigurationError, match="limit"):
            explore(small_space(), keep=KEEP, limit=100, resume=cursor)

    def test_cursor_writes_version_three(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        explore(small_space(), keep=KEEP, registry=registry, chunk_size=CHUNK)
        assert registry.latest_explore_cursor().cursor["version"] == 3

    @pytest.mark.parametrize("rung", ["fast", "exact"])
    def test_version_one_cursor_past_a_simulated_rung_refused(self, rung):
        # Its run_ids hash the old event digest: resuming would mix two
        # run_id schemes into one frontier export.
        from repro.errors import ConfigurationError

        cursor = dict(V1_COHORT_CURSOR, rung=rung)
        with pytest.raises(ConfigurationError, match="version"):
            explore(small_space(), keep=KEEP, chunk_size=CHUNK, resume=cursor)

    @pytest.mark.parametrize("version", ["missing", 0, 4, "2"])
    def test_missing_or_unknown_version_refused(self, version):
        from repro.errors import ConfigurationError

        cursor = dict(V1_COHORT_CURSOR)
        if version == "missing":
            del cursor["version"]
        else:
            cursor["version"] = version
        with pytest.raises(ConfigurationError, match="version"):
            explore(small_space(), keep=KEEP, chunk_size=CHUNK, resume=cursor)

    def test_exhaustive_driver_cursor_refused(self):
        # A session stored by a build that still had the exhaustive
        # rung-0 driver cannot resume: its rung-0 accounting differs.
        from repro.errors import ConfigurationError

        cursor = dict(V1_COHORT_CURSOR, mode="full", sampler=None)
        with pytest.raises(ConfigurationError, match="mode"):
            explore(
                small_space(), keep=KEEP, chunk_size=CHUNK, resume=cursor
            )
