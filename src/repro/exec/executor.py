"""Parallel sweep execution with deterministic ordering and caching.

:class:`SweepExecutor` maps a picklable function over a list of work
items, optionally fanning out over a :class:`ProcessPoolExecutor` and
optionally short-circuiting items through a :class:`ResultCache`.

Two properties matter more than raw speed:

- **Determinism** — results come back in input order, and a parallel
  run is bit-identical to a serial one. This holds because every
  simulation seeds its own randomness from its job description (via
  :class:`repro.sim.rng.RngStreams`), never from worker state, and the
  executor never lets scheduling order leak into results.
- **Cache transparency** — a cached item decodes to exactly what the
  function would have returned. Items whose results cannot round-trip
  through JSON simply pass ``None`` keys and are always executed.

A third, optional concern is *visibility*: attach a
:class:`~repro.obs.flight.FlightRecorder` (``flight=``) and every work
item additionally emits durable lifecycle records (queued → dispatched
→ started → finished | failed | cache_hit) with wall/CPU/peak-RSS
telemetry, and parallel workers beat to the parent over one pipe per
parallel map, handed to them through the pool initializer. With no
recorder attached the same dispatch loops talk to a null journal whose
hooks do nothing, and no pipe is opened — the pattern the EventLog
null sink uses. Either way a parallel worker failure or pool crash
becomes a :class:`SweepItemError` (after any ``retries``), never a
lost sweep.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
import typing as t
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.errors import PayloadFormatError, ReproError
from repro.exec.cache import ResultCache

try:  # POSIX-only; measurements degrade to zero elsewhere
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None  # type: ignore[assignment]

__all__ = ["SweepStats", "SweepExecutor", "SweepItemError"]

T = t.TypeVar("T")
R = t.TypeVar("R")


class SweepItemError(ReproError, RuntimeError):
    """A work item failed in a worker process (raised in the parent).

    Carries enough to locate the failure: the item index, the attempt
    count, and the worker-side ``ExcType: message`` string. The serial
    path re-raises the original exception instead (it still has it).
    """

    def __init__(self, index: int, attempts: int, error: str):
        super().__init__(
            f"sweep item {index} failed after {attempts} attempt(s): {error}"
        )
        self.index = index
        self.attempts = attempts
        self.error = error


@dataclasses.dataclass
class SweepStats:
    """Accounting for the most recent :meth:`SweepExecutor.map` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    jobs: int = 1
    wall_s: float = 0.0

    def add(self, other: "SweepStats") -> None:
        """Fold another call's counts into this one (jobs untouched)."""
        self.total += other.total
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.wall_s += other.wall_s


# ---------------------------------------------------------------------------
# worker-side shims (module-level: must be picklable / importable by the
# pool). These carry no repro.obs imports — the executor stays usable
# without the observability layer, and the recorder is duck-typed.
# ---------------------------------------------------------------------------

#: Per-worker heartbeat state, set by the pool initializer. Lives in
#: the *worker* process; the parent never touches it.
_HB_STATE: dict[str, t.Any] = {"pipe": None, "worker": None, "index": None}


def _rusage() -> t.Any:
    if _resource is None:  # pragma: no cover - non-POSIX
        return None
    return _resource.getrusage(_resource.RUSAGE_SELF)


def _measure_since(t0: float, r0: t.Any, worker: str) -> dict[str, t.Any]:
    """Wall/CPU/peak-RSS deltas since (t0, r0), as a journal measure."""
    out: dict[str, t.Any] = {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": 0.0,
        "peak_rss_kb": 0,
        "worker": worker,
    }
    if r0 is not None:
        r1 = _resource.getrusage(_resource.RUSAGE_SELF)
        out["cpu_s"] = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        # ru_maxrss is a process-lifetime high-water mark (KiB on Linux)
        out["peak_rss_kb"] = int(r1.ru_maxrss)
    return out


def _flight_worker_init(reader: t.Any, writer: t.Any, interval_s: float) -> None:
    """Pool initializer: wire this worker to the parent's heartbeat pipe.

    ``reader``/``writer`` are the two ends of the pipe the parent opened
    for this map. The worker closes its copy of the read end (under
    fork it inherits one), so once the parent closes its own a beat
    raises ``BrokenPipeError`` instead of blocking on a full pipe. Each
    beat is one small message sent with a single ``write(2)``, which is
    atomic, so a worker killed at any instant never leaves a torn
    message and no lock is held on the beat path.

    A SIGTERM handler sends an ``abort`` beat for the in-flight item
    and exits: a pool that breaks terminates its healthy workers, and
    the abort beat tells the parent their items were cut short, not
    crashed. A daemon thread publishes ``{worker, index, phase}`` every
    ``interval_s`` until the process exits or the pipe closes.
    """
    reader.close()
    _HB_STATE["pipe"] = writer
    _HB_STATE["worker"] = f"w{os.getpid()}"
    _HB_STATE["index"] = None

    def _abort(signum: int, frame: t.Any) -> None:
        _beat("abort", _HB_STATE["index"])
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, _abort)

    def _loop() -> None:
        while True:
            time.sleep(interval_s)
            if not _beat("beat", _HB_STATE["index"]):
                return

    threading.Thread(target=_loop, daemon=True).start()


def _beat(phase: str, index: int | None) -> bool:
    """Send one beat; False once there is no pipe or the parent closed it."""
    pipe = _HB_STATE["pipe"]
    if pipe is None:
        return False
    try:
        pipe.send(
            {"worker": _HB_STATE["worker"], "index": index, "phase": phase}
        )
    except OSError:  # BrokenPipeError: the parent has moved on
        return False
    return True


def _worker_run(
    fn: t.Callable[[T], R], item: T, index: int
) -> tuple[int, str, t.Any, dict[str, t.Any]]:
    """Run one item in a worker, measured, exceptions captured.

    Returns ``(index, "ok", result, measure)`` or ``(index, "err",
    (exc_type_name, message), measure)`` — catching the exception
    in-worker keeps one bad item from poisoning the whole pool; only a
    hard process death (SIGKILL, OOM) breaks it.
    """
    worker = _HB_STATE.get("worker") or f"w{os.getpid()}"
    _HB_STATE["worker"] = worker
    _HB_STATE["index"] = index
    _beat("start", index)
    t0, r0 = time.perf_counter(), _rusage()
    try:
        result = fn(item)
    except BaseException as exc:
        measure = _measure_since(t0, r0, worker)
        _HB_STATE["index"] = None
        _beat("done", index)
        return (index, "err", (type(exc).__name__, str(exc)), measure)
    measure = _measure_since(t0, r0, worker)
    _HB_STATE["index"] = None
    _beat("done", index)
    return (index, "ok", result, measure)


def _ignore(*_args: t.Any, **_kwargs: t.Any) -> None:
    return None


class _NullJournal:
    """The journal :meth:`SweepExecutor.map` talks to with no recorder.

    Duck-types the :class:`~repro.obs.flight.FlightRecorder` hooks the
    dispatch loops call, all as no-ops. A parallel map against it opens
    no heartbeat pipe and installs no worker initializer.
    """

    heartbeat_interval_s = None
    begin_map = end_map = flush = staticmethod(_ignore)
    item_queued = item_cache_hit = item_dispatched = staticmethod(_ignore)
    item_started = item_finished = item_failed = staticmethod(_ignore)
    self_beat = staticmethod(_ignore)

    @staticmethod
    def drain_heartbeats(ctx: t.Any, beats: t.Any) -> dict[int, str]:
        return {}


_NULL_JOURNAL = _NullJournal()


def _crashed(beats: dict[int, str], unresolved: t.Iterable[int]) -> set[int]:
    """The unresolved items a broken pool charges: started, never done.

    ``beats`` maps an item to the last lifecycle beat its worker sent
    (:meth:`~repro.obs.flight.FlightRecorder.drain_heartbeats`); an
    ``abort`` beat marks an item whose healthy worker the breaking pool
    terminated, so it is not charged.
    """
    return {i for i in unresolved if beats.get(i) == "start"}


def _join(pool: t.Any, journal: t.Any, ctx: t.Any, beats: t.Any,
          round_beats: dict[int, str]) -> None:
    """Shut ``pool`` down and reap its workers, draining ``beats`` meanwhile.

    A worker blocked writing a beat to a full pipe (its abort beat, say)
    exits only once the parent reads, so with a pipe open the join runs
    on a helper thread while this one keeps draining into
    ``round_beats``.
    """
    if beats is None:
        pool.shutdown(wait=True)
        return
    joiner = threading.Thread(target=pool.shutdown, daemon=True)
    joiner.start()
    while joiner.is_alive():
        round_beats.update(journal.drain_heartbeats(ctx, beats))
        joiner.join(journal.heartbeat_interval_s)


class SweepExecutor:
    """Maps a function over items, in parallel, through a cache.

    Parameters
    ----------
    jobs:
        Worker processes. ``jobs <= 1`` runs serially in-process (no
        pool, no pickling) — the default, and what tests compare
        parallel runs against.
    cache:
        Optional :class:`ResultCache`. Only items given a key are
        cached; see :meth:`map`.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`. When
        attached, ``map`` journals every item, collects worker
        heartbeats and feeds live progress. When ``None`` (default) the
        same loops run against a null journal: no records and no
        heartbeat pipe.
    retries:
        Extra execution attempts per item after a worker process dies
        mid-item (pool breakage), with or without a recorder. With a
        recorder an attempt is charged only when the item actually
        began running (its worker sent a start beat or its future
        resolved); items merely queued on a pool that broke, and items
        whose healthy worker the breaking pool terminated (it sends an
        ``abort`` beat), are re-dispatched for free, so collateral from
        another item's crash cannot exhaust their retry budget (journal
        ``attempts`` reflects this). Without a recorder there are no
        beats, so every item still unresolved when a pool breaks is
        charged; with one, so is a round whose beats single out no
        item (say, a worker SIGTERMed from outside the pool). Either
        way a sweep gives up after ``1 + retries`` crashed rounds.

    Notes
    -----
    The executor records no telemetry of its own. Per-call counts
    (items, executed, cache hits, wall time) are in :attr:`stats` and
    :attr:`lifetime`, and per-item wall-clock records go to the flight
    journal. Simulation telemetry rides home inside each item's result,
    so it is the same whether an item ran serially, in a worker, or
    came from the cache.

    Examples
    --------
    >>> ex = SweepExecutor(jobs=1)
    >>> ex.map(abs, [-2, 3, -5])
    [2, 3, 5]
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        flight: t.Any = None,
        retries: int = 0,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.flight = flight
        self.retries = max(0, int(retries))
        self.stats = SweepStats()
        #: Accumulated over every :meth:`map` call on this executor —
        #: multi-rung drivers (the explore scheduler) reuse one executor
        #: across rungs and report whole-session totals from here.
        self.lifetime = SweepStats(jobs=self.jobs)

    def map(
        self,
        fn: t.Callable[[T], R],
        items: t.Sequence[T],
        *,
        keys: t.Sequence[str | None] | None = None,
        encode: t.Callable[[R], t.Any] | None = None,
        decode: t.Callable[[T, t.Any], R] | None = None,
        on_result: t.Callable[[T, R], None] | None = None,
        failures: str = "raise",
    ) -> list[R]:
        """``[fn(item) for item in items]``, parallel and cached.

        Parameters
        ----------
        fn:
            The work function. Must be picklable (module-level) when
            ``jobs > 1``.
        items:
            Work items, picklable when ``jobs > 1``.
        keys:
            Optional per-item cache keys (same length as ``items``).
            ``None`` for an item means "never cache this one".
            Requires ``encode`` and ``decode``.
        encode:
            ``result -> JSON payload`` for storing.
        decode:
            ``(item, payload) -> result`` for loading; receives the
            original item so reconstruction can reuse unserializable
            parts of the input (e.g. the spec object itself). A
            :class:`~repro.errors.PayloadFormatError` from it makes the
            hit a miss: the entry is dropped, the item executed and
            its entry rewritten.
        on_result:
            Optional ``(item, result) -> None`` observer, called once
            per item **in input order** after all results are settled —
            for cache hits and executed items alike, always in the
            parent process. Side effects (e.g. run-registry writes)
            therefore happen identically for serial, parallel, and
            cache-replayed executions. :attr:`stats` is finalized
            *before* the callbacks run, so an observer that raises
            leaves the accounting consistent with the journal; with a
            recorder attached the item is additionally journaled as
            ``failed(stage="callback")`` before the exception
            propagates.
        failures:
            ``"raise"`` (default) propagates the first item failure:
            the original exception when ``jobs <= 1``, a
            :class:`SweepItemError` from a worker process.
            ``"keep"`` — flight recorder required — records failures in
            the journal, leaves ``None`` at the failed index, skips
            caching and ``on_result`` for those items, and returns the
            survivors.

        Returns
        -------
        Results in input order, regardless of completion order.
        """
        if keys is not None and (encode is None or decode is None):
            raise ValueError("cache keys require encode and decode functions")
        if failures not in ("raise", "keep"):
            raise ValueError(f"failures must be 'raise' or 'keep', got {failures!r}")
        if failures == "keep" and self.flight is None:
            raise ValueError("failures='keep' requires a flight recorder")
        journal = self.flight if self.flight is not None else _NULL_JOURNAL
        started = time.perf_counter()
        n = len(items)
        results: list[t.Any] = [None] * n
        settled: list[bool] = [False] * n  # terminal success (hit or executed)
        ctx = journal.begin_map(fn, n, keys, jobs=self.jobs)

        cache = self.cache
        pending: list[int] = []
        for i, item in enumerate(items):
            journal.item_queued(ctx, i)
            key = keys[i] if keys is not None and cache is not None else None
            if key is not None:
                payload = cache.get(key)
                if payload is not None:
                    try:
                        results[i] = decode(item, payload)  # type: ignore[misc]
                    except PayloadFormatError:
                        cache.reject(key)  # an older format: recompute
                    else:
                        settled[i] = True
                        journal.item_cache_hit(ctx, i)
                        continue
            pending.append(i)

        # Cache writes land per item as each result settles — not in
        # a batch after the whole map — so a process killed mid-sweep
        # has already persisted every finished item and a resumed run
        # re-executes at most the in-flight ones.
        def store(i: int) -> None:
            if cache is not None and keys is not None:
                key = keys[i]
                if key is not None and settled[i]:
                    cache.put(key, encode(results[i]))  # type: ignore[misc]

        if pending:
            run = (
                self._parallel
                if self.jobs > 1 and len(pending) > 1
                else self._serial
            )
            run(fn, items, pending, journal, ctx, results, settled,
                failures, store)

        # Stats settle before observer callbacks so a raising
        # observer cannot leave the accounting stale for work that
        # did happen.
        self.stats = SweepStats(
            total=n,
            executed=len(pending),
            cache_hits=n - len(pending),
            jobs=self.jobs,
            wall_s=time.perf_counter() - started,
        )
        self.lifetime.add(self.stats)
        journal.end_map(ctx)

        if on_result is not None:
            for i, item in enumerate(items):
                if not settled[i]:
                    continue
                try:
                    on_result(item, results[i])
                except BaseException as exc:
                    journal.item_failed(
                        ctx, i, "callback", f"{type(exc).__name__}: {exc}"
                    )
                    journal.flush()
                    raise
        return results

    def _serial(
        self, fn, items, pending, journal, ctx, results, settled, failures, store
    ) -> None:
        for i in pending:
            journal.item_dispatched(ctx, i, 1)
            journal.item_started(ctx, i, "serial", 1)
            journal.self_beat("serial", i)
            t0, r0 = time.perf_counter(), _rusage()
            try:
                result = fn(items[i])
            except BaseException as exc:
                journal.item_failed(
                    ctx, i, "worker", f"{type(exc).__name__}: {exc}",
                    _measure_since(t0, r0, "serial"),
                )
                if failures == "raise":
                    journal.flush()
                    raise
                continue
            results[i] = result
            settled[i] = True
            store(i)
            journal.item_finished(ctx, i, _measure_since(t0, r0, "serial"))
        journal.self_beat("serial", None)

    def _parallel(
        self, fn, items, pending, journal, ctx, results, settled, failures, store
    ) -> None:
        interval = journal.heartbeat_interval_s
        beats = writer = None
        heartbeat: dict[str, t.Any] = {}
        if self.flight is not None:
            beats, writer = multiprocessing.Pipe(duplex=False)
            heartbeat = {"initializer": _flight_worker_init,
                         "initargs": (beats, writer, interval)}
        unresolved: set[int] = set(pending)
        attempts: dict[int, int] = {i: 0 for i in pending}
        max_attempts = 1 + self.retries

        try:
            while unresolved:
                workers = min(self.jobs, len(unresolved))
                pool = ProcessPoolExecutor(max_workers=workers, **heartbeat)
                broken = False
                round_beats: dict[int, str] = {}
                try:
                    futures: dict[t.Any, int] = {}
                    for i in sorted(unresolved):
                        try:
                            fut = pool.submit(_worker_run, fn, items[i], i)
                        except BrokenProcessPool:
                            # a worker died before the rest were dispatched
                            broken = True
                            break
                        attempts[i] += 1
                        journal.item_dispatched(ctx, i, attempts[i])
                        futures[fut] = i
                    not_done = set(futures)
                    while not_done:
                        done, not_done = wait(
                            not_done, timeout=interval,
                            return_when=FIRST_COMPLETED,
                        )
                        round_beats.update(
                            journal.drain_heartbeats(ctx, beats)
                        )
                        for fut in done:
                            i = futures[fut]
                            exc = fut.exception()
                            if isinstance(exc, BrokenProcessPool):
                                # a worker died; every still-pending
                                # future is poisoned — rebuild and retry
                                broken = True
                                continue
                            if exc is not None:
                                err = f"{type(exc).__name__}: {exc}"
                                journal.item_failed(
                                    ctx, i, "worker", err, {"worker": "pool"}
                                )
                                unresolved.discard(i)
                                if failures == "raise":
                                    journal.flush()
                                    raise SweepItemError(i, attempts[i], err)
                                continue
                            index, status, payload, measure = fut.result()
                            unresolved.discard(index)
                            if status == "ok":
                                results[index] = payload
                                settled[index] = True
                                store(index)
                                journal.item_finished(ctx, index, measure)
                            else:
                                err = f"{payload[0]}: {payload[1]}"
                                journal.item_failed(
                                    ctx, index, "worker", err, measure
                                )
                                if failures == "raise":
                                    journal.flush()
                                    raise SweepItemError(
                                        index, attempts[index], err
                                    )
                        if broken:
                            break
                except BaseException:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
                # Joining reaps every worker, so a finished map leaves no
                # process behind. A broken pool fails its futures *before*
                # it terminates the surviving workers, so only after the
                # join has the pipe every abort beat.
                _join(pool, journal, ctx, beats, round_beats)
                if not broken:
                    break
                round_beats.update(journal.drain_heartbeats(ctx, beats))
                # Only items that started and never finished are charged:
                # items that sat queued on the broken pool never ran,
                # items that finished on a healthy worker (their ``done``
                # beat arrived) only lost their result to the poisoned
                # future, and items whose healthy worker the breaking pool
                # terminated sent an ``abort`` beat. Refund all three, so
                # collateral from someone else's crash cannot exhaust
                # their retry budget. A broken round charges someone,
                # though: if no item was caught mid-run (its worker was
                # SIGTERMed from outside the pool and sent an abort beat,
                # or died before its start beat), every dispatched,
                # unresolved item is charged, as it always is without
                # heartbeats. Either way attempts rise every broken round
                # and the loop ends after ``max_attempts`` crashes.
                if beats is not None:
                    dispatched = unresolved.intersection(futures.values())
                    charged = _crashed(round_beats, dispatched) or dispatched
                    for i in dispatched - charged:
                        attempts[i] -= 1
                retryable: set[int] = set()
                for i in sorted(unresolved):
                    if attempts[i] >= max_attempts:
                        err = (
                            "WorkerCrashed: worker process died mid-item "
                            f"(attempt {attempts[i]}/{max_attempts})"
                        )
                        journal.item_failed(
                            ctx, i, "worker", err,
                            {"worker": "pool", "wall_s": 0.0},
                        )
                        if failures == "raise":
                            journal.flush()
                            raise SweepItemError(i, attempts[i], err)
                    else:
                        retryable.add(i)
                unresolved = retryable
        finally:
            if beats is not None:
                beats.close()
                writer.close()
