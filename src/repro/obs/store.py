"""The run registry: persistent, queryable records of every experiment.

The paper's evidence is longitudinal — eight configurations compared by
battery lifetime (Fig. 10) — yet a simulation run's telemetry normally
evaporates with the process. :class:`RunRegistry` is the persistence
layer above :mod:`repro.obs`: every ``run_experiment`` /
``run_paper_suite`` invocation can deposit a :class:`RunRecord`
(config fingerprint, version/git metadata, metrics snapshot, summary
scalars, event-log digest) into an SQLite database, from which runs can
be listed, inspected, and diffed against each other or against paper
expectations long after the process exited.

Determinism contract
--------------------
A record is derived *only* from the run payload — the same data that
round-trips through worker pickling and the content-addressed result
cache — never from wall clocks or scheduling. Identical configurations
therefore produce byte-identical records whether executed serially,
fanned over worker processes, or replayed from the cache, and
:attr:`RunRecord.run_id` (a digest over fingerprint + results) makes
re-registration a no-op instead of a duplicate row.

The registry file defaults to ``.repro-runs.sqlite`` in the working
directory (override with ``REPRO_RUNS_DB`` or ``--db``); deleting the
file — or ``repro runs reset`` — clears all history.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import sqlite3
import subprocess
import time
import typing as t

import repro
from repro.errors import ConfigurationError, RegistryError

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.experiments import ExperimentRun

__all__ = [
    "DEFAULT_DB",
    "RunRecord",
    "ExploreRecord",
    "RunRegistry",
    "build_run_record",
    "build_explore_record",
    "diff_records",
    "git_revision",
]

#: Default registry location (overridable via the REPRO_RUNS_DB
#: environment variable, which the CLI honours).
DEFAULT_DB = ".repro-runs.sqlite"

# ``created_at`` is housekeeping only — it powers ``runs gc
# --older-than`` and never enters record content, digests, or
# determinism dumps (wall clocks must not leak into anything compared
# across execution modes).
_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    label        TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    version      TEXT NOT NULL,
    git_sha      TEXT,
    n_events     INTEGER NOT NULL,
    event_digest TEXT,
    summary      TEXT NOT NULL,
    metrics      TEXT NOT NULL,
    seq          INTEGER NOT NULL,
    created_at   REAL
)
"""

_EXPLORE_SCHEMA = """
CREATE TABLE IF NOT EXISTS explore_sessions (
    session_id  TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    version     TEXT NOT NULL,
    git_sha     TEXT,
    n_configs   INTEGER NOT NULL,
    rung        TEXT NOT NULL,
    rungs       TEXT NOT NULL,
    frontier    TEXT NOT NULL,
    cursor      TEXT,
    seq         INTEGER NOT NULL,
    created_at  REAL
)
"""

# The flight recorder's execution journal (see :mod:`repro.obs.flight`).
# The first eight columns are record *content* — deterministic across
# serial/parallel/cache-replay executions and the only columns the
# determinism dumps compare; the rest are honest telemetry (wall
# clocks, worker ids, RSS) that naturally differ per execution.
_JOURNAL_SCHEMA = """
CREATE TABLE IF NOT EXISTS exec_journal (
    journal_id   TEXT PRIMARY KEY,
    map_id       TEXT NOT NULL,
    map_ordinal  INTEGER NOT NULL,
    idx          INTEGER NOT NULL,
    key          TEXT,
    outcome      TEXT NOT NULL,
    stage        TEXT,
    error        TEXT,
    status       TEXT NOT NULL,
    worker       TEXT,
    attempts     INTEGER NOT NULL,
    wall_s       REAL NOT NULL,
    cpu_s        REAL NOT NULL,
    peak_rss_kb  INTEGER NOT NULL,
    seq          INTEGER NOT NULL,
    created_at   REAL
)
"""

# Live fleet progress: one REPLACE'd row per fleet label holding the
# latest FleetSnapshot JSON — the plane ``repro top`` attaches to.
# Pure telemetry (never compared across modes).
_PROGRESS_SCHEMA = """
CREATE TABLE IF NOT EXISTS exec_progress (
    label       TEXT PRIMARY KEY,
    snapshot    TEXT NOT NULL,
    updated_at  REAL NOT NULL
)
"""


def _canonical_json(payload: t.Any) -> str:
    """Key-sorted, separator-stable JSON; the hashed/stored form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def git_revision(cwd: str | os.PathLike | None = None) -> str | None:
    """The working tree's commit sha, or None outside a git checkout.

    Resolved once per process and directory: every registered run would
    otherwise fork ``git``.
    """
    return _git_revision(os.path.abspath(os.curdir if cwd is None else cwd))


@functools.lru_cache(maxsize=None)
def _git_revision(cwd: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One registered run.

    Attributes
    ----------
    run_id:
        Content digest over (label, fingerprint, summary, metrics,
        event_digest) — identical configuration and results hash to the
        identical id, so replays deduplicate.
    label:
        Experiment label ("1A", "2C", ...).
    fingerprint:
        Digest of the full effective ``run_experiment`` configuration
        (defaults applied), independent of jobs/cache settings.
    version, git_sha:
        Code provenance (package version; commit sha when available).
    n_events, event_digest:
        Size and digest of the structured event log (None/0 when the
        run carried no telemetry) — enough to *compare* event streams
        across runs without storing them.
    summary:
        Scalar outcomes: lifetime, frames, deadline misses, per-node
        final charge, end reason...
    metrics:
        The run's :class:`~repro.obs.metrics.MetricsRegistry` snapshot
        (``as_dict`` form).
    created_at:
        Registration wall-clock (epoch seconds), populated on records
        read back from a registry. Housekeeping/display only — it never
        enters ``run_id``, determinism dumps, or record equality (a
        reloaded record compares equal to the one that was stored).
    """

    run_id: str
    label: str
    fingerprint: str
    version: str
    git_sha: str | None
    n_events: int
    event_digest: str | None
    summary: dict[str, t.Any]
    metrics: dict[str, t.Any]
    created_at: float | None = dataclasses.field(default=None, compare=False)

    def as_row(self) -> dict[str, t.Any]:
        """Flat list-view row (id prefix, label, headline scalars)."""
        return {
            "run_id": self.run_id[:12],
            "label": self.label,
            "T_hours": self.summary.get("t_hours"),
            "frames": self.summary.get("frames"),
            "late": self.summary.get("late_results"),
            "events": self.n_events,
            "end": self.summary.get("end_reason"),
        }


def build_run_record(
    run: "ExperimentRun",
    fingerprint: str,
    version: str | None = None,
    git_sha: str | None = None,
) -> RunRecord:
    """Derive the registry record for one executed experiment.

    Every field comes from the run payload (which round-trips through
    worker pickling and the result cache bit-identically), so serial,
    parallel, and cache-replayed executions of the same configuration
    produce the same record.
    """
    version = version if version is not None else repro.__version__
    summary: dict[str, t.Any] = {
        "label": run.spec.label,
        "t_hours": run.t_hours,
        "frames": run.frames,
        "n_nodes": run.spec.n_nodes,
        "tnorm_hours": run.t_hours / run.spec.n_nodes,
        "deadline_s": run.spec.deadline_s,
        "death_times_s": dict(sorted(run.death_times_s.items())),
    }
    p = run.pipeline
    if p is not None:
        summary.update(
            end_reason=p.end_reason,
            end_time_s=p.end_time_s,
            late_results=p.late_results,
            max_lateness_s=p.max_lateness_s,
            delivered_mah=dict(sorted(p.delivered_mah.items())),
            migrations=len(p.migrations),
            level_switches=sum(p.level_switches.values()),
            stage_stalls=sum(p.stage_stalls.values()),
            link_transactions=p.total_link_transactions,
            link_bytes=p.total_link_bytes,
            events_processed=p.events_processed,
        )
    else:
        summary.update(end_reason="all-dead", late_results=0)

    metrics: dict[str, t.Any] = {}
    n_events = 0
    event_digest: str | None = None
    if run.obs is not None:
        metrics = run.obs.metrics.as_dict()
        if run.obs.events:
            # sha256 of the log's typed columns (EventLog.digest).
            event_digest = run.obs.events.digest()
            n_events = len(run.obs.events)

    run_id = hashlib.sha256(
        _canonical_json(
            [run.spec.label, fingerprint, summary, metrics, event_digest]
        ).encode("utf-8")
    ).hexdigest()
    return RunRecord(
        run_id=run_id,
        label=run.spec.label,
        fingerprint=fingerprint,
        version=version,
        git_sha=git_sha,
        n_events=n_events,
        event_digest=event_digest,
        summary=summary,
        metrics=metrics,
    )


@dataclasses.dataclass(frozen=True)
class ExploreRecord:
    """One explore-session snapshot (a rung boundary or the final frontier).

    The halving scheduler streams its progress by registering one of
    these after every completed rung; ``rung`` names the latest rung and
    ``rungs``/``frontier`` carry the cumulative deterministic state.
    ``cursor`` is the scheduler's resume state (promoted set + scores)
    as of this snapshot — pure content, what ``repro explore --resume``
    replays. ``session_id`` is a content digest, so replaying the same
    exploration (serial, parallel, or from cache) deduplicates instead
    of appending.
    """

    session_id: str
    fingerprint: str
    version: str
    git_sha: str | None
    n_configs: int
    rung: str
    rungs: list[dict[str, t.Any]]
    frontier: list[dict[str, t.Any]]
    cursor: dict[str, t.Any] | None = None

    def as_row(self) -> dict[str, t.Any]:
        """Flat list-view row for the CLI."""
        return {
            "session_id": self.session_id[:12],
            "configs": self.n_configs,
            "rung": self.rung,
            "rungs": len(self.rungs),
            "frontier": len(self.frontier),
        }


def build_explore_record(
    fingerprint: str,
    n_configs: int,
    rung: str,
    rungs: t.Sequence[dict[str, t.Any]],
    frontier: t.Sequence[dict[str, t.Any]] = (),
    version: str | None = None,
    git_sha: str | None = None,
    cursor: dict[str, t.Any] | None = None,
) -> ExploreRecord:
    """Derive the registry record for one explore-session snapshot.

    Like :func:`build_run_record`, every identity-bearing field is
    content — the session id digests the configuration fingerprint plus
    the deterministic rung/frontier/cursor state, never wall clocks —
    so all execution modes produce byte-identical records. A ``None``
    cursor digests exactly as records did before cursors existed, so
    pre-cursor session ids remain stable.
    """
    rungs = [dict(r) for r in rungs]
    frontier = [dict(f) for f in frontier]
    identity: list[t.Any] = [fingerprint, n_configs, rung, rungs, frontier]
    if cursor is not None:
        cursor = dict(cursor)
        identity.append(cursor)
    session_id = hashlib.sha256(
        _canonical_json(identity).encode("utf-8")
    ).hexdigest()
    return ExploreRecord(
        session_id=session_id,
        fingerprint=fingerprint,
        version=version if version is not None else repro.__version__,
        git_sha=git_sha,
        n_configs=n_configs,
        rung=rung,
        rungs=rungs,
        frontier=frontier,
        cursor=cursor,
    )


class RunRegistry:
    """SQLite-backed store of :class:`RunRecord` rows.

    Connections are opened per operation, so one registry object can be
    shared freely and the database can be inspected concurrently with
    standard SQLite tooling. Records are append-only and keyed by
    content (``run_id``): re-registering an identical run is a no-op,
    which is what keeps the registry byte-identical across ``--jobs``
    settings and cache replays.
    """

    def __init__(self, path: str | os.PathLike = DEFAULT_DB):
        self.path = pathlib.Path(path)

    @contextlib.contextmanager
    def _connect(self) -> t.Iterator[sqlite3.Connection]:
        """One transaction on the database, schema ensured first. A file
        that is not a sound SQLite database raises :class:`RegistryError`."""
        try:
            conn = sqlite3.connect(self.path)
            with conn:
                self._migrate(conn)
                yield conn
        except sqlite3.DatabaseError as exc:
            raise RegistryError(f"run registry {self.path}: {exc}") from exc

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        conn.execute(_SCHEMA)
        conn.execute(_EXPLORE_SCHEMA)
        conn.execute(_JOURNAL_SCHEMA)
        conn.execute(_PROGRESS_SCHEMA)
        # Databases created before the created_at column existed gain it
        # in place; content columns are untouched, so old ids stay valid.
        columns = {row[1] for row in conn.execute("PRAGMA table_info(runs)")}
        if "created_at" not in columns:
            conn.execute("ALTER TABLE runs ADD COLUMN created_at REAL")
        # Likewise for the explore resume cursor: pre-cursor databases
        # gain a NULL column; old session ids (digested without a
        # cursor) stay valid because a None cursor stays out of digests.
        explore_columns = {
            row[1]
            for row in conn.execute("PRAGMA table_info(explore_sessions)")
        }
        if "cursor" not in explore_columns:
            conn.execute("ALTER TABLE explore_sessions ADD COLUMN cursor TEXT")

    # -- writes ----------------------------------------------------------
    def record(self, record: RunRecord) -> bool:
        """Persist one record; returns True if it was newly inserted."""
        with self._connect() as conn:
            cur = conn.execute("SELECT COALESCE(MAX(seq), 0) + 1 FROM runs")
            next_seq = cur.fetchone()[0]
            cur = conn.execute(
                "INSERT OR IGNORE INTO runs "
                "(run_id, label, fingerprint, version, git_sha, n_events, "
                " event_digest, summary, metrics, seq, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.run_id,
                    record.label,
                    record.fingerprint,
                    record.version,
                    record.git_sha,
                    record.n_events,
                    record.event_digest,
                    _canonical_json(record.summary),
                    _canonical_json(record.metrics),
                    next_seq,
                    time.time(),
                ),
            )
            return cur.rowcount == 1

    def record_explore(self, record: ExploreRecord) -> bool:
        """Persist one explore snapshot; True if newly inserted."""
        with self._connect() as conn:
            cur = conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM explore_sessions"
            )
            next_seq = cur.fetchone()[0]
            cur = conn.execute(
                "INSERT OR IGNORE INTO explore_sessions "
                "(session_id, fingerprint, version, git_sha, n_configs, "
                " rung, rungs, frontier, cursor, seq, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.session_id,
                    record.fingerprint,
                    record.version,
                    record.git_sha,
                    record.n_configs,
                    record.rung,
                    _canonical_json(record.rungs),
                    _canonical_json(record.frontier),
                    None
                    if record.cursor is None
                    else _canonical_json(record.cursor),
                    next_seq,
                    time.time(),
                ),
            )
            return cur.rowcount == 1

    def record_run(self, run: "ExperimentRun", fingerprint: str) -> RunRecord:
        """Build and persist the record for one run; returns it."""
        record = build_run_record(run, fingerprint, git_sha=git_revision())
        self.record(record)
        return record

    def reset(self) -> int:
        """Delete every registered run; returns the number removed."""
        if not self.path.exists():
            return 0
        with self._connect() as conn:
            removed = conn.execute("DELETE FROM runs").rowcount
            conn.execute("DELETE FROM explore_sessions")
            conn.execute("DELETE FROM exec_journal")
            conn.execute("DELETE FROM exec_progress")
            return removed

    def gc(
        self,
        keep_last: int | None = None,
        older_than_days: float | None = None,
        label: str | None = None,
    ) -> int:
        """Trim the registry; returns the number of rows removed.

        ``keep_last`` keeps only the N most recent runs (per the
        insertion sequence; scoped to one label when ``label`` is
        given) and the N most recent explore sessions. ``older_than_days``
        removes rows whose ``created_at`` is older than the cutoff —
        rows from databases that predate the timestamp column have no
        ``created_at`` and are treated as arbitrarily old. The two
        criteria compose (a row is removed if either applies).
        """
        if keep_last is None and older_than_days is None:
            raise ConfigurationError(
                "gc needs keep_last and/or older_than_days"
            )
        if keep_last is not None and keep_last < 0:
            raise ConfigurationError(f"keep_last must be >= 0, got {keep_last}")
        if older_than_days is not None and older_than_days < 0:
            raise ConfigurationError(
                f"older_than_days must be >= 0, got {older_than_days}"
            )
        if not self.path.exists():
            return 0
        removed = 0
        with self._connect() as conn:
            if keep_last is not None:
                if label is not None:
                    removed += conn.execute(
                        "DELETE FROM runs WHERE label = ? AND seq NOT IN "
                        "(SELECT seq FROM runs WHERE label = ? "
                        "ORDER BY seq DESC LIMIT ?)",
                        (label, label, keep_last),
                    ).rowcount
                else:
                    removed += conn.execute(
                        "DELETE FROM runs WHERE seq NOT IN "
                        "(SELECT seq FROM runs ORDER BY seq DESC LIMIT ?)",
                        (keep_last,),
                    ).rowcount
                    removed += conn.execute(
                        "DELETE FROM explore_sessions WHERE seq NOT IN "
                        "(SELECT seq FROM explore_sessions "
                        "ORDER BY seq DESC LIMIT ?)",
                        (keep_last,),
                    ).rowcount
            if older_than_days is not None:
                cutoff = time.time() - older_than_days * 86400.0
                clause = "created_at IS NULL OR created_at < ?"
                if label is not None:
                    removed += conn.execute(
                        f"DELETE FROM runs WHERE label = ? AND ({clause})",
                        (label, cutoff),
                    ).rowcount
                else:
                    removed += conn.execute(
                        f"DELETE FROM runs WHERE {clause}", (cutoff,)
                    ).rowcount
                    removed += conn.execute(
                        f"DELETE FROM explore_sessions WHERE {clause}",
                        (cutoff,),
                    ).rowcount
        return removed

    # -- reads -----------------------------------------------------------
    @staticmethod
    def _from_row(row: tuple) -> RunRecord:
        (run_id, label, fingerprint, version, git_sha,
         n_events, event_digest, summary, metrics) = row[:9]
        return RunRecord(
            run_id=run_id,
            label=label,
            fingerprint=fingerprint,
            version=version,
            git_sha=git_sha,
            n_events=n_events,
            event_digest=event_digest,
            summary=json.loads(summary),
            metrics=json.loads(metrics),
            created_at=row[9] if len(row) > 9 else None,
        )

    _COLUMNS = (
        "run_id, label, fingerprint, version, git_sha, "
        "n_events, event_digest, summary, metrics"
    )

    # Read queries additionally surface created_at for display (e.g.
    # ``repro runs list``); content dumps never include it.
    _READ_COLUMNS = _COLUMNS + ", created_at"

    def list_runs(
        self,
        label: str | None = None,
        limit: int | None = None,
        fingerprint: str | None = None,
        offset: int = 0,
    ) -> list[RunRecord]:
        """Registered runs, most recent first.

        ``label`` and ``fingerprint`` filter to one experiment and/or
        one exact configuration (fingerprints distinguish e.g. fast
        from exact runs of the same label).
        ``limit``/``offset`` paginate the filtered, newest-first list
        (sqlite requires a LIMIT for OFFSET, so a bare offset is
        applied against an unbounded limit).
        """
        query = f"SELECT {self._READ_COLUMNS} FROM runs"
        clauses: list[str] = []
        params: list[t.Any] = []
        if label is not None:
            clauses.append("label = ?")
            params.append(label)
        if fingerprint is not None:
            clauses.append("fingerprint = ?")
            params.append(fingerprint)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY seq DESC"
        if offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {offset}")
        if limit is not None or offset:
            query += " LIMIT ?"
            params.append(-1 if limit is None else limit)
        if offset:
            query += " OFFSET ?"
            params.append(offset)
        if not self.path.exists():
            return []
        with self._connect() as conn:
            return [self._from_row(r) for r in conn.execute(query, params)]

    def get(self, run_id_prefix: str) -> RunRecord:
        """The unique record whose id starts with ``run_id_prefix``.

        Raises
        ------
        ConfigurationError
            If no record matches, or the prefix is ambiguous.
        """
        if not run_id_prefix:
            raise ConfigurationError("empty run id")
        matches: list[RunRecord] = []
        if self.path.exists():
            with self._connect() as conn:
                rows = conn.execute(
                    f"SELECT {self._READ_COLUMNS} FROM runs "
                    "WHERE run_id LIKE ? ORDER BY seq",
                    (run_id_prefix.replace("%", "") + "%",),
                )
                matches = [self._from_row(r) for r in rows]
        if not matches:
            raise ConfigurationError(f"no registered run matches {run_id_prefix!r}")
        if len(matches) > 1:
            ids = ", ".join(m.run_id[:12] for m in matches)
            raise ConfigurationError(
                f"run id {run_id_prefix!r} is ambiguous ({ids})"
            )
        return matches[0]

    def latest(
        self, label: str, fingerprint: str | None = None
    ) -> RunRecord | None:
        """The most recently registered run of one experiment label."""
        runs = self.list_runs(label=label, limit=1, fingerprint=fingerprint)
        return runs[0] if runs else None

    def __len__(self) -> int:
        if not self.path.exists():
            return 0
        with self._connect() as conn:
            return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def list_explore_sessions(
        self,
        limit: int | None = None,
        session_id_prefix: str | None = None,
    ) -> list[ExploreRecord]:
        """Registered explore snapshots, most recent first."""
        if not self.path.exists():
            return []
        query = (
            "SELECT session_id, fingerprint, version, git_sha, n_configs, "
            "rung, rungs, frontier, cursor FROM explore_sessions"
        )
        params: list[t.Any] = []
        if session_id_prefix is not None:
            query += " WHERE session_id LIKE ?"
            params.append(session_id_prefix.replace("%", "") + "%")
        query += " ORDER BY seq DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(limit)
        with self._connect() as conn:
            return [
                ExploreRecord(
                    session_id=row[0],
                    fingerprint=row[1],
                    version=row[2],
                    git_sha=row[3],
                    n_configs=row[4],
                    rung=row[5],
                    rungs=json.loads(row[6]),
                    frontier=json.loads(row[7]),
                    cursor=None if row[8] is None else json.loads(row[8]),
                )
                for row in conn.execute(query, params)
            ]

    def latest_explore_cursor(
        self, fingerprint: str | None = None, session_id_prefix: str | None = None
    ) -> ExploreRecord | None:
        """The newest cursor-bearing snapshot to resume from.

        Filter by exploration ``fingerprint`` (the usual ``--resume
        latest`` path: same CLI arguments, newest cursor wins) or by a
        ``session_id`` prefix (resume one specific snapshot). Snapshots
        without cursors — pre-cursor databases — never match.
        """
        if not self.path.exists():
            return None
        for record in self.list_explore_sessions(
            session_id_prefix=session_id_prefix
        ):
            if record.cursor is None:
                continue
            if fingerprint is not None and record.fingerprint != fingerprint:
                continue
            return record
        return None

    def dump_rows(self) -> list[tuple]:
        """Every content column of every row, in insertion order.

        The registry's determinism tests compare these dumps across
        execution modes; any wall-clock or scheduling leak into the
        stored content would show up here. ``created_at`` is excluded
        by construction — it is housekeeping for ``gc``, not content.
        """
        if not self.path.exists():
            return []
        with self._connect() as conn:
            return list(
                conn.execute(
                    f"SELECT {self._COLUMNS}, seq FROM runs ORDER BY seq"
                )
            )

    def dump_explore_rows(self) -> list[tuple]:
        """Explore-session content columns, in insertion order.

        The cursor is content (promoted indices and scores, no wall
        clocks), so it belongs to the determinism comparison surface —
        a resumed session must reproduce it byte-for-byte.
        """
        if not self.path.exists():
            return []
        with self._connect() as conn:
            return list(
                conn.execute(
                    "SELECT session_id, fingerprint, version, git_sha, "
                    "n_configs, rung, rungs, frontier, cursor, seq "
                    "FROM explore_sessions ORDER BY seq"
                )
            )

    # -- flight-recorder journal / progress ------------------------------
    def record_journal(self, records: t.Sequence[t.Any]) -> int:
        """Persist flight-recorder item records; returns rows inserted.

        ``records`` are :class:`~repro.obs.flight.ItemRecord` objects
        (anything with ``.journal_id`` and ``.as_dict()`` works).
        Insertion is keyed by the content-derived ``journal_id``, so
        replaying the same sweep — serial, parallel, or from cache —
        deduplicates instead of appending, exactly like run records.
        """
        if not records:
            return 0
        inserted = 0
        now = time.time()
        with self._connect() as conn:
            cur = conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM exec_journal"
            )
            next_seq = cur.fetchone()[0]
            for record in records:
                row = record.as_dict()
                cur = conn.execute(
                    "INSERT OR IGNORE INTO exec_journal "
                    "(journal_id, map_id, map_ordinal, idx, key, outcome, "
                    " stage, error, status, worker, attempts, wall_s, "
                    " cpu_s, peak_rss_kb, seq, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        row["journal_id"],
                        row["map_id"],
                        row["map_ordinal"],
                        row["index"],
                        row["key"],
                        row["outcome"],
                        row["stage"],
                        row["error"],
                        row["status"],
                        row["worker"],
                        row["attempts"],
                        row["wall_s"],
                        row["cpu_s"],
                        row["peak_rss_kb"],
                        next_seq,
                        now,
                    ),
                )
                if cur.rowcount == 1:
                    inserted += 1
                    next_seq += 1
        return inserted

    def list_journal(
        self,
        map_id: str | None = None,
        outcome: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, t.Any]]:
        """Journal rows as dicts, ordered by (map_ordinal, idx)."""
        if not self.path.exists():
            return []
        query = (
            "SELECT journal_id, map_id, map_ordinal, idx, key, outcome, "
            "stage, error, status, worker, attempts, wall_s, cpu_s, "
            "peak_rss_kb FROM exec_journal"
        )
        clauses: list[str] = []
        params: list[t.Any] = []
        if map_id is not None:
            clauses.append("map_id = ?")
            params.append(map_id)
        if outcome is not None:
            clauses.append("outcome = ?")
            params.append(outcome)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY map_ordinal, idx"
        if limit is not None:
            query += " LIMIT ?"
            params.append(limit)
        names = (
            "journal_id", "map_id", "map_ordinal", "index", "key",
            "outcome", "stage", "error", "status", "worker", "attempts",
            "wall_s", "cpu_s", "peak_rss_kb",
        )
        with self._connect() as conn:
            return [
                dict(zip(names, row)) for row in conn.execute(query, params)
            ]

    def dump_journal_rows(self) -> list[tuple]:
        """Journal *content* columns in deterministic (ordinal, idx)
        order — the across-modes comparison surface; telemetry columns
        (status/worker/timings) are honest per-execution measurements
        and are excluded, like ``created_at`` on runs."""
        if not self.path.exists():
            return []
        with self._connect() as conn:
            return list(
                conn.execute(
                    "SELECT journal_id, map_id, map_ordinal, idx, key, "
                    "outcome, stage, error FROM exec_journal "
                    "ORDER BY map_ordinal, idx"
                )
            )

    def record_progress(self, label: str, snapshot: t.Mapping[str, t.Any]) -> None:
        """Upsert the live fleet snapshot for one fleet label."""
        with self._connect() as conn:
            conn.execute(
                "REPLACE INTO exec_progress (label, snapshot, updated_at) "
                "VALUES (?, ?, ?)",
                (label, _canonical_json(dict(snapshot)), time.time()),
            )

    def latest_progress(
        self, label: str | None = None
    ) -> tuple[dict[str, t.Any], float] | None:
        """The most recent fleet snapshot (payload, updated_at epoch).

        With no ``label``, the most recently updated fleet wins — the
        common ``repro top`` case of one sweep running at a time.
        """
        if not self.path.exists():
            return None
        query = "SELECT snapshot, updated_at FROM exec_progress"
        params: list[t.Any] = []
        if label is not None:
            query += " WHERE label = ?"
            params.append(label)
        query += " ORDER BY updated_at DESC LIMIT 1"
        with self._connect() as conn:
            row = conn.execute(query, params).fetchone()
        if row is None:
            return None
        return json.loads(row[0]), row[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunRegistry {self.path} n={len(self)}>"


# ---------------------------------------------------------------------------
# regression diffing
# ---------------------------------------------------------------------------

def _scalar_items(record: RunRecord) -> dict[str, float]:
    """Flat name -> numeric value view of a record (summary + metrics)."""
    out: dict[str, float] = {}
    for name, value in record.summary.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[name] = float(value)
    for counter in record.metrics.get("counters", []):
        out[f"counter:{counter['name']}"] = float(counter["value"])
    for gauge in record.metrics.get("gauges", []):
        if gauge["value"] is not None:
            out[f"gauge:{gauge['name']}"] = float(gauge["value"])
    return out


def diff_records(
    a: RunRecord,
    b: RunRecord,
    threshold_pct: float = 0.0,
) -> list[dict[str, t.Any]]:
    """Per-metric deltas between two registered runs.

    Returns one row per scalar present in either record, with absolute
    and relative deltas; rows whose relative change exceeds
    ``threshold_pct`` are flagged ``regression`` (direction-agnostic —
    the caller decides which direction is bad per metric). Rows are
    name-sorted for deterministic rendering.
    """
    va, vb = _scalar_items(a), _scalar_items(b)
    rows: list[dict[str, t.Any]] = []
    for name in sorted(set(va) | set(vb)):
        x, y = va.get(name), vb.get(name)
        delta = None if x is None or y is None else y - x
        rel = None
        if delta is not None and x not in (None, 0.0):
            rel = 100.0 * delta / abs(x)
        rows.append(
            {
                "metric": name,
                "a": x,
                "b": y,
                "delta": delta,
                "rel_pct": None if rel is None else round(rel, 3),
                "regression": (
                    rel is not None
                    and threshold_pct > 0
                    and abs(rel) > threshold_pct
                ),
            }
        )
    return rows
