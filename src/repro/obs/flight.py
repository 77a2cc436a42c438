"""The fleet flight recorder: durable item-level execution state.

The host hub is the one vantage point that can see the whole
distributed system, and :class:`~repro.exec.SweepExecutor` is our hub:
every sweep, suite, and exploration fans its work items through it.
This module records what the fleet actually did, at item granularity:

- **Execution journal** — every work item leaves one durable
  :class:`ItemRecord` tracing its lifecycle
  (``queued -> dispatched -> started -> finished | failed | cache_hit``)
  with wall-clock, CPU time, peak RSS, worker id, and attempt count.
  Records split into *content* (identity: map id, index, cache
  fingerprint, outcome — byte-identical across serial, ``--jobs N``,
  and cache-replay executions, just like run ids) and *telemetry*
  (timings, worker, RSS — honest measurements that naturally differ
  per execution). Canonical journal exports and registry content dumps
  carry only the content half.
- **Heartbeats** — parallel workers write periodic beats into a pipe
  the executor opens per parallel map and drains while waiting on
  results; the serial path self-beats between items. From beats plus
  completions the recorder maintains per-worker lanes (items done,
  busy seconds, current item, beat age).
- **Online ETA** — a work-conserving estimate: mean completed-item
  cost times remaining items, divided by the active worker count,
  minus credit for elapsed in-flight work.
- **Straggler / stall detection** — in-flight items running longer
  than :data:`STALL_FACTOR` x the p95 completed cost are flagged
  stragglers; workers silent past :data:`STALL_AFTER_S` are flagged
  stalled. Both surface as :class:`~repro.obs.checks.Verdict` rows so
  ``repro check --fleet`` can assert fleet health.

With no recorder attached the executor runs the same dispatch loops
against a null journal whose hooks do nothing, and opens no heartbeat
pipe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time
import typing as t

from repro.obs.checks import Verdict

__all__ = [
    "ItemRecord",
    "WorkerLane",
    "PhaseState",
    "FleetSnapshot",
    "FlightRecorder",
    "journal_to_rows",
    "write_journal",
    "read_journal",
    "journal_verdicts",
]

#: Worker beat period, and the parent's heartbeat-drain cadence, seconds.
HEARTBEAT_INTERVAL_S = 0.5
#: An item is a straggler once its elapsed (in flight) or wall (in the
#: journal) time exceeds ``max(STALL_MIN_S, STALL_FACTOR * p95)`` of the
#: completed item costs.
STALL_FACTOR = 4.0
STALL_MIN_S = 2.0
#: A worker is stalled once its last beat is older than this, seconds.
STALL_AFTER_S = 10.0
#: Minimum spacing of throttled progress snapshots, seconds.
PROGRESS_INTERVAL_S = 0.25

#: Content columns of a journal record, in canonical order. Everything
#: else on :class:`ItemRecord` is telemetry (wall clocks, worker ids,
#: RSS) and is excluded from canonical exports and determinism dumps.
JOURNAL_CONTENT_FIELDS = (
    "journal_id",
    "map_id",
    "map_ordinal",
    "index",
    "key",
    "outcome",
    "stage",
    "error",
)


def _canonical_json(payload: t.Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class ItemRecord:
    """One work item's terminal journal record.

    Content attributes (identity; deterministic across execution
    modes):

    map_id / map_ordinal:
        Which ``map`` call this item belonged to: a digest over the
        work function's qualified name, the item count, and the cache
        keys, plus the call's ordinal within the recorder session.
    index:
        The item's position in the map's input order.
    key:
        The item's cache fingerprint (None for uncacheable items).
    outcome:
        ``"ok"`` or ``"failed"`` — a cache hit is an ``"ok"`` outcome,
        because the decoded result is exactly what execution would have
        produced; executed-vs-replayed is transport, not identity.
    stage:
        Where a failure happened (``"worker"`` or ``"callback"``),
        None for successes.
    error:
        ``"ExcType: message"`` for failures (deterministic — derived
        from the exception, never from scheduling), None otherwise.

    Telemetry attributes (honest measurements; excluded from content):

    status:
        ``"executed"`` or ``"cache_hit"``.
    worker:
        Lane name (``"serial"`` or ``"w<pid>"``).
    attempts:
        Execution attempts this run (0 for cache hits; >1 after
        retries following a worker death or raise).
    t_queued / t_started / t_finished:
        Wall-clock offsets from the map start, seconds.
    wall_s / cpu_s:
        Item wall time and worker CPU time (user+system) consumed.
    peak_rss_kb:
        The executing process's peak resident set (``ru_maxrss``) at
        item completion — a high-water mark, monotone per worker.
    """

    map_id: str
    map_ordinal: int
    index: int
    key: str | None
    outcome: str
    stage: str | None = None
    error: str | None = None
    status: str = "executed"
    worker: str | None = None
    attempts: int = 0
    t_queued: float = 0.0
    t_started: float = 0.0
    t_finished: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0

    @property
    def journal_id(self) -> str:
        """Content digest — identical across serial/parallel/replay."""
        return hashlib.sha256(
            _canonical_json(
                [
                    self.map_id,
                    self.map_ordinal,
                    self.index,
                    self.key,
                    self.outcome,
                    self.stage,
                    self.error,
                ]
            ).encode("utf-8")
        ).hexdigest()

    def content(self) -> dict[str, t.Any]:
        """The deterministic half, keyed by :data:`JOURNAL_CONTENT_FIELDS`."""
        return {
            "journal_id": self.journal_id,
            "map_id": self.map_id,
            "map_ordinal": self.map_ordinal,
            "index": self.index,
            "key": self.key,
            "outcome": self.outcome,
            "stage": self.stage,
            "error": self.error,
        }

    def as_dict(self) -> dict[str, t.Any]:
        """Full record — content plus telemetry."""
        return {
            **self.content(),
            "status": self.status,
            "worker": self.worker,
            "attempts": self.attempts,
            "t_queued": self.t_queued,
            "t_started": self.t_started,
            "t_finished": self.t_finished,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
        }

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "ItemRecord":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


@dataclasses.dataclass
class WorkerLane:
    """Live state of one executor lane (a worker process, or "serial")."""

    name: str
    items_done: int = 0
    busy_s: float = 0.0
    current_index: int | None = None
    current_since: float | None = None
    last_beat: float | None = None

    def as_dict(self) -> dict[str, t.Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class PhaseState:
    """One named phase of a sweep (an explore rung, a suite, a sweep)."""

    name: str
    total: int | None = None
    done: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    finished: bool = False
    note: str | None = None

    def as_dict(self) -> dict[str, t.Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class FleetSnapshot:
    """A point-in-time view of the fleet, renderable and persistable."""

    label: str
    elapsed_s: float
    total: int
    done: int
    executed: int
    cache_hits: int
    failed: int
    eta_s: float | None
    rate_per_s: float | None
    jobs: int
    finished: bool
    phases: list[dict[str, t.Any]]
    workers: list[dict[str, t.Any]]
    stragglers: list[int]
    stalled_workers: list[str]

    def as_dict(self) -> dict[str, t.Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "FleetSnapshot":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.done if self.done else 0.0


class _MapContext:
    """Parent-side bookkeeping for one in-flight ``map`` call."""

    __slots__ = (
        "map_id", "ordinal", "n", "keys", "t0",
        "queued_at", "started_at", "worker_of", "attempts",
    )

    def __init__(self, map_id: str, ordinal: int, n: int,
                 keys: t.Sequence[str | None] | None, t0: float):
        self.map_id = map_id
        self.ordinal = ordinal
        self.n = n
        self.keys = keys
        self.t0 = t0
        self.queued_at: dict[int, float] = {}
        self.started_at: dict[int, float] = {}
        self.worker_of: dict[int, str] = {}
        self.attempts: dict[int, int] = {}

    def key_of(self, index: int) -> str | None:
        if self.keys is None:
            return None
        return self.keys[index]


class FlightRecorder:
    """Fleet-level flight recorder for :class:`~repro.exec.SweepExecutor`.

    Attach one via ``SweepExecutor(flight=recorder)`` (or the
    ``flight=`` parameter on :func:`~repro.core.experiments.run_paper_suite`,
    :func:`~repro.batch.sweep.batch_sweep`, and
    :func:`~repro.explore.explore`). The executor drives the
    ``begin_map`` / ``item_*`` / ``end_map`` lifecycle; the recorder
    accumulates journal records, worker lanes, and phase progress, and
    optionally streams both into a :class:`~repro.obs.store.RunRegistry`
    (``exec_journal`` + ``exec_progress`` tables) so a concurrent
    ``repro top`` can attach.

    Parameters
    ----------
    label:
        Fleet label (shown by ``repro top``; keys the progress row).
    registry:
        Optional :class:`~repro.obs.store.RunRegistry` to persist the
        journal and progress snapshots into.
    progress:
        Optional callback receiving a :class:`FleetSnapshot` on every
        (throttled) update — the live dashboard hook.
    """

    #: The executor reads the beat period here, so it imports nothing
    #: from ``repro.obs``.
    heartbeat_interval_s = HEARTBEAT_INTERVAL_S

    def __init__(
        self,
        label: str = "sweep",
        registry: t.Any = None,
        progress: t.Callable[[FleetSnapshot], None] | None = None,
    ):
        self.label = label
        self.registry = registry
        self.progress = progress
        self.records: list[ItemRecord] = []
        self.phases: list[PhaseState] = []
        self.workers: dict[str, WorkerLane] = {}
        self.jobs = 1
        self._t0 = time.perf_counter()
        self._maps = 0
        self._durations: list[float] = []
        self._flushed = 0
        self._last_emit = -1.0
        self._finished = False

    # -- clock ----------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._t0

    # -- phases ---------------------------------------------------------
    def phase(self, name: str, total: int | None = None) -> PhaseState:
        """Open a named phase (an explore rung, a suite, a sweep leg)."""
        if self.phases and not self.phases[-1].finished:
            self.phases[-1].finished = True
        state = PhaseState(name=name, total=total)
        self.phases.append(state)
        self._durations = []
        self._emit(force=True)
        return state

    def finish_phase(self, note: str | None = None) -> None:
        """Close the current phase (optionally annotating it)."""
        if self.phases and not self.phases[-1].finished:
            self.phases[-1].finished = True
            if note is not None:
                self.phases[-1].note = note
            self._emit(force=True)

    def _current_phase(self) -> PhaseState:
        if not self.phases or self.phases[-1].finished:
            self.phase("sweep")
        return self.phases[-1]

    # -- executor lifecycle hooks ---------------------------------------
    def begin_map(
        self,
        fn: t.Callable,
        n: int,
        keys: t.Sequence[str | None] | None,
        jobs: int = 1,
    ) -> _MapContext:
        """Open one ``map`` call; returns the context the hooks take."""
        self.jobs = max(self.jobs, jobs)
        name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
        map_id = hashlib.sha256(
            _canonical_json([name, n, list(keys) if keys is not None else None,
                             self._maps]).encode("utf-8")
        ).hexdigest()
        ctx = _MapContext(map_id, self._maps, n, keys, self._now())
        self._maps += 1
        phase = self._current_phase()
        if phase.total is None:
            phase.total = n
        return ctx

    def item_queued(self, ctx: _MapContext, index: int) -> None:
        ctx.queued_at[index] = self._now()

    def item_cache_hit(self, ctx: _MapContext, index: int) -> None:
        now = self._now()
        self.records.append(
            ItemRecord(
                map_id=ctx.map_id,
                map_ordinal=ctx.ordinal,
                index=index,
                key=ctx.key_of(index),
                outcome="ok",
                status="cache_hit",
                worker="cache",
                attempts=0,
                t_queued=ctx.queued_at.get(index, now),
                t_started=now,
                t_finished=now,
            )
        )
        phase = self._current_phase()
        phase.done += 1
        phase.cache_hits += 1
        self._emit()

    def item_dispatched(self, ctx: _MapContext, index: int, attempt: int) -> None:
        ctx.attempts[index] = attempt
        ctx.queued_at.setdefault(index, self._now())

    def item_started(self, ctx: _MapContext, index: int, worker: str,
                     attempt: int) -> None:
        now = self._now()
        ctx.started_at[index] = now
        ctx.worker_of[index] = worker
        ctx.attempts[index] = attempt
        lane = self._lane(worker)
        lane.current_index = index
        lane.current_since = now
        lane.last_beat = now
        self._emit()

    def item_finished(self, ctx: _MapContext, index: int,
                      measure: t.Mapping[str, t.Any]) -> None:
        self._terminal(ctx, index, "ok", None, None, measure)

    def item_failed(self, ctx: _MapContext, index: int, stage: str,
                    error: str, measure: t.Mapping[str, t.Any] | None = None) -> None:
        self._terminal(ctx, index, "failed", stage, error, measure or {})

    def _terminal(self, ctx: _MapContext, index: int, outcome: str,
                  stage: str | None, error: str | None,
                  measure: t.Mapping[str, t.Any]) -> None:
        now = self._now()
        worker = str(measure.get("worker") or ctx.worker_of.get(index, "serial"))
        wall_s = float(measure.get("wall_s", 0.0))
        started = ctx.started_at.get(index, now - wall_s)
        self.records.append(
            ItemRecord(
                map_id=ctx.map_id,
                map_ordinal=ctx.ordinal,
                index=index,
                key=ctx.key_of(index),
                outcome=outcome,
                stage=stage,
                error=error,
                status="executed",
                worker=worker,
                attempts=int(ctx.attempts.get(index, 1)),
                t_queued=ctx.queued_at.get(index, started),
                t_started=started,
                t_finished=now,
                wall_s=wall_s,
                cpu_s=float(measure.get("cpu_s", 0.0)),
                peak_rss_kb=int(measure.get("peak_rss_kb", 0)),
            )
        )
        if stage == "callback":
            # the item already settled (and was tallied) at execution
            # time; a callback failure only amends its outcome
            phase = self._current_phase()
            phase.failed += 1
            self._emit(force=True)
            return
        lane = self._lane(worker)
        lane.items_done += 1
        lane.busy_s += wall_s
        if lane.current_index == index:
            lane.current_index = None
            lane.current_since = None
        lane.last_beat = now
        phase = self._current_phase()
        phase.done += 1
        if outcome == "failed":
            phase.failed += 1
        else:
            phase.executed += 1
        if wall_s > 0.0:
            self._durations.append(wall_s)
        self._emit()

    def end_map(self, ctx: _MapContext) -> None:
        """Close one ``map`` call: flush the journal and progress."""
        self.flush()
        self._emit(force=True)

    def finish(self) -> None:
        """Mark the whole fleet done and flush everything."""
        self._finished = True
        self.finish_phase()
        self.flush()
        self._emit(force=True)

    # -- heartbeats ------------------------------------------------------
    def drain_heartbeats(self, ctx: _MapContext, beats: t.Any) -> dict[int, str]:
        """Fold the worker beats waiting on ``beats`` into the lane states.

        ``beats`` is the read end of the executor's heartbeat pipe.
        Returns the last lifecycle beat (``"start"``, ``"done"`` or
        ``"abort"``) observed per item index, so the executor can tell
        the item a broken pool died on (started, never done) from items
        that only sat queued, finished before the pool broke, or were
        cut short when the breaking pool terminated their worker.
        """
        phases: dict[int, str] = {}
        now = self._now()
        while beats.poll():
            msg = beats.recv()
            worker = str(msg.get("worker", "?"))
            lane = self._lane(worker)
            lane.last_beat = now
            index = msg.get("index")
            phase_tag = msg.get("phase")
            if phase_tag == "start" and index is not None:
                phases[int(index)] = "start"
                ctx.started_at.setdefault(int(index), now)
                ctx.worker_of[int(index)] = worker
                lane.current_index = int(index)
                lane.current_since = now
            elif phase_tag in ("done", "abort"):
                if index is not None:
                    phases[int(index)] = phase_tag
                if lane.current_index == index:
                    lane.current_index = None
                    lane.current_since = None
            elif index is not None and lane.current_index is None:
                lane.current_index = int(index)
                lane.current_since = now
        self._emit()
        return phases

    def self_beat(self, worker: str = "serial",
                  index: int | None = None) -> None:
        """Serial-path heartbeat (the parent is the only worker)."""
        lane = self._lane(worker)
        lane.last_beat = self._now()
        if index is not None:
            lane.current_index = index
            lane.current_since = self._now()
        self._emit()

    def _lane(self, name: str) -> WorkerLane:
        lane = self.workers.get(name)
        if lane is None:
            lane = self.workers[name] = WorkerLane(name=name)
        return lane

    # -- estimation ------------------------------------------------------
    def _p95(self) -> float | None:
        if len(self._durations) < 4:
            return None
        ordered = sorted(self._durations)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]

    def eta_s(self) -> float | None:
        """Work-conserving remaining-time estimate for the current phase.

        ``remaining_items * mean(completed costs) / active_workers``,
        minus credit for elapsed in-flight time. None until at least
        one item cost is known or the phase total is unknown.
        """
        # Read-only: never _current_phase() here — snapshots taken after
        # the last phase closed must not spawn a fresh empty one.
        phase = (self.phases[-1]
                 if self.phases and not self.phases[-1].finished else None)
        if phase is None or phase.total is None or not self._durations:
            return None
        remaining = max(0, phase.total - phase.done)
        if remaining == 0:
            return 0.0
        mean = sum(self._durations) / len(self._durations)
        active = max(
            1,
            sum(1 for w in self.workers.values() if w.name != "cache"),
        )
        now = self._now()
        inflight_credit = sum(
            min(mean, now - w.current_since)
            for w in self.workers.values()
            if w.current_since is not None
        )
        return max(0.0, (remaining * mean - inflight_credit) / active)

    def stragglers(self) -> list[int]:
        """Item indices in flight past the p95-based straggler bound."""
        if self._finished:  # a finished fleet has nothing in flight
            return []
        p95 = self._p95()
        if p95 is None:
            return []
        bound = max(STALL_MIN_S, STALL_FACTOR * p95)
        now = self._now()
        return sorted(
            w.current_index
            for w in self.workers.values()
            if w.current_index is not None
            and w.current_since is not None
            and now - w.current_since > bound
        )

    def stalled_workers(self) -> list[str]:
        """Workers whose last beat is older than :data:`STALL_AFTER_S`."""
        if self._finished:  # idle-after-finish is not a stall
            return []
        now = self._now()
        return sorted(
            name
            for name, w in self.workers.items()
            if name != "cache"
            and w.last_beat is not None
            and now - w.last_beat > STALL_AFTER_S
        )

    # -- snapshots / persistence ----------------------------------------
    def snapshot(self) -> FleetSnapshot:
        """The current fleet state, ready to render or persist."""
        done = sum(p.done for p in self.phases)
        executed = sum(p.executed for p in self.phases)
        cache_hits = sum(p.cache_hits for p in self.phases)
        failed = sum(p.failed for p in self.phases)
        total = sum(p.total or 0 for p in self.phases)
        elapsed = self._now()
        rate = done / elapsed if elapsed > 0 and done else None
        return FleetSnapshot(
            label=self.label,
            elapsed_s=elapsed,
            total=total,
            done=done,
            executed=executed,
            cache_hits=cache_hits,
            failed=failed,
            eta_s=None if self._finished else self.eta_s(),
            rate_per_s=rate,
            jobs=self.jobs,
            finished=self._finished,
            phases=[p.as_dict() for p in self.phases],
            workers=[
                self.workers[name].as_dict() for name in sorted(self.workers)
            ],
            stragglers=self.stragglers(),
            stalled_workers=self.stalled_workers(),
        )

    def flush(self) -> int:
        """Persist new journal records + a progress snapshot; returns
        the number of journal rows newly written."""
        if self.registry is None:
            return 0
        fresh = self.records[self._flushed:]
        written = 0
        if fresh:
            written = self.registry.record_journal(fresh)
        self._flushed = len(self.records)
        self.registry.record_progress(self.label, self.snapshot().as_dict())
        return written

    def _emit(self, force: bool = False) -> None:
        now = self._now()
        if not force and now - self._last_emit < PROGRESS_INTERVAL_S:
            return
        self._last_emit = now
        if self.registry is not None and (
            force or len(self.records) > self._flushed
        ):
            self.flush()
        if self.progress is not None:
            self.progress(self.snapshot())

    # -- verdicts --------------------------------------------------------
    def verdicts(self) -> list[Verdict]:
        """Fleet-health verdicts over the live recorder state."""
        rows = [r.as_dict() for r in self.records]
        out = journal_verdicts(rows)
        stalled = self.stalled_workers()
        out.append(
            Verdict(
                monitor="fleet-worker-stall",
                ok=not stalled,
                detail=(
                    f"workers silent past {STALL_AFTER_S:g}s: "
                    + ", ".join(stalled)
                    if stalled
                    else f"all {len(self.workers)} lane(s) beating within "
                    f"{STALL_AFTER_S:g}s"
                ),
                events_seen=len(self.workers),
                violations=len(stalled),
            )
        )
        return out

    # -- export ----------------------------------------------------------
    def export_journal(self, path: str | pathlib.Path,
                       full: bool = False) -> pathlib.Path:
        """Write the journal as JSONL (canonical content by default)."""
        return write_journal(path, self.records, full=full)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder {self.label!r} records={len(self.records)} "
            f"workers={len(self.workers)} phases={len(self.phases)}>"
        )


# ---------------------------------------------------------------------------
# journal export / verdicts (work on records or plain dict rows)
# ---------------------------------------------------------------------------

def _row(record: "ItemRecord | t.Mapping[str, t.Any]",
         full: bool) -> dict[str, t.Any]:
    if isinstance(record, ItemRecord):
        return record.as_dict() if full else record.content()
    if full:
        return dict(record)
    return {name: record.get(name) for name in JOURNAL_CONTENT_FIELDS}


def journal_to_rows(
    records: t.Sequence["ItemRecord | t.Mapping[str, t.Any]"],
    full: bool = False,
) -> list[dict[str, t.Any]]:
    """Journal records as flat rows, sorted by (map_ordinal, index).

    The default (content-only) rows are byte-stable across serial,
    parallel, and cache-replayed executions; ``full=True`` adds the
    telemetry half (timings, worker ids, RSS), which is honest
    measurement and therefore differs per execution.
    """
    rows = [_row(r, full) for r in records]
    rows.sort(key=lambda r: (r.get("map_ordinal", 0), r.get("index", 0)))
    return rows


def write_journal(
    path: str | pathlib.Path,
    records: t.Sequence["ItemRecord | t.Mapping[str, t.Any]"],
    full: bool = False,
) -> pathlib.Path:
    """Write journal rows as JSONL (one canonical object per line)."""
    path = pathlib.Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for row in journal_to_rows(records, full=full):
            fh.write(_canonical_json(row))
            fh.write("\n")
    return path


def read_journal(path: str | pathlib.Path) -> list[dict[str, t.Any]]:
    """Reload a :func:`write_journal` file into plain row dicts."""
    rows: list[dict[str, t.Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def journal_verdicts(rows: t.Sequence[t.Mapping[str, t.Any]]) -> list[Verdict]:
    """Fleet-health verdicts over journal rows (live or registry-read).

    - ``fleet-failures`` — fails if any item's outcome is ``failed``.
    - ``fleet-retries`` — always ok; reports items that needed more
      than one attempt (a dying worker that recovered on retry).
    - ``fleet-stragglers`` — fails if any executed item's wall time
      exceeds ``max(STALL_MIN_S, STALL_FACTOR * p95)`` of the executed
      cost distribution (needs >= 8 samples to be meaningful; fewer
      yields a vacuous pass).
    """
    failed = [r for r in rows if r.get("outcome") == "failed"]
    out = [
        Verdict(
            monitor="fleet-failures",
            ok=not failed,
            detail=(
                f"{len(failed)} of {len(rows)} item(s) failed "
                f"(first: map {str(failed[0].get('map_id'))[:8]} "
                f"item {failed[0].get('index')}: {failed[0].get('error')})"
                if failed
                else f"all {len(rows)} item(s) completed"
            ),
            events_seen=len(rows),
            violations=len(failed),
        )
    ]
    retried = [r for r in rows if (r.get("attempts") or 0) > 1]
    out.append(
        Verdict(
            monitor="fleet-retries",
            ok=True,
            detail=(
                f"{len(retried)} item(s) needed retries "
                f"(max attempts {max(r['attempts'] for r in retried)})"
                if retried
                else "no item needed a retry"
            ),
            events_seen=len(rows),
        )
    )
    walls = sorted(
        float(r["wall_s"])
        for r in rows
        if r.get("status") == "executed" and float(r.get("wall_s") or 0.0) > 0.0
    )
    if len(walls) >= 8:
        p95 = walls[min(len(walls) - 1, int(0.95 * len(walls)))]
        bound = max(STALL_MIN_S, STALL_FACTOR * p95)
        slow = [
            r for r in rows
            if r.get("status") == "executed"
            and float(r.get("wall_s") or 0.0) > bound
        ]
        out.append(
            Verdict(
                monitor="fleet-stragglers",
                ok=not slow,
                detail=(
                    f"{len(slow)} item(s) ran past {bound:.2f}s "
                    f"({STALL_FACTOR:g} x p95 {p95:.2f}s)"
                    if slow
                    else f"no item past {bound:.2f}s "
                    f"({STALL_FACTOR:g} x p95 {p95:.2f}s)"
                ),
                events_seen=len(walls),
                violations=len(slow),
            )
        )
    else:
        out.append(
            Verdict(
                monitor="fleet-stragglers",
                ok=True,
                detail=f"too few executed items ({len(walls)}) to "
                       "estimate a p95 cost",
                events_seen=len(walls),
            )
        )
    return out
