"""Executor failure semantics, with and without the flight recorder.

Covers the three ways a sweep item dies — the work function raising in
a worker, the worker process being killed mid-item, and an observer
callback raising after results settled — and asserts the journal tells
the truth about each (outcome, stage, attempt counts) while the
surviving results stay deterministic. With no recorder the same
dispatch loops run against a null journal, so each raise test runs with
the recorder on and off and expects the same error either way. The
heartbeat pipe the attempt counts rest on is covered too: no server
process, no worker left behind, no writer blocked past the map.
"""

import contextlib
import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.errors import ReproError
from repro.exec import ResultCache, SweepExecutor
from repro.exec.executor import SweepItemError, _beat, _crashed
from repro.obs.flight import FlightRecorder, journal_verdicts


def fragile(x: int) -> int:
    """Module-level worker fn: raises on one poison item."""
    if x == 3:
        raise ValueError(f"poison item {x}")
    return x * 10


def lethal(x: int) -> int:
    """Module-level worker fn: SIGKILLs its own process on the poison
    item — the pool breaks, everything else must still complete."""
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def sigterm_self(x: int) -> int:
    """Module-level worker fn: item 0 SIGTERMs its own process, as a
    ``kill <pid>`` or a memory watchdog would from outside the pool."""
    if x == 0:
        os.kill(os.getpid(), signal.SIGTERM)
    return x * 10


def sleep_or_kill(item: tuple[str, str]) -> str:
    """Module-level worker fn for the abort-beat test, synced by flag files.

    ``"sleep"`` marks itself running, then sleeps in Python on its first
    attempt (a retry returns at once). ``"kill"`` waits for that mark,
    then SIGKILLs its own process on its first attempt, so the breaking
    pool terminates the sleeper mid-item.
    """
    role, flags = item
    first = _first_attempt(pathlib.Path(flags, role))
    if role == "sleep":
        if first:
            time.sleep(60)
        return role
    running = pathlib.Path(flags, "sleep")
    for _ in range(3000):
        if running.exists():
            break
        time.sleep(0.01)
    if first:
        os.kill(os.getpid(), signal.SIGKILL)
    return role


def flood_beats(x: int) -> int:
    """Module-level worker fn: item 1 sends far more beats than a pipe
    buffer holds, so it blocks unless the parent keeps draining."""
    if x == 1:
        time.sleep(0.3)
        for _ in range(20000):
            _beat("beat", x)
    return x


def _first_attempt(flag: pathlib.Path) -> bool:
    try:
        flag.touch(exist_ok=False)
    except FileExistsError:
        return False
    return True


def _failed(flight):
    return [r for r in flight.records if r.outcome == "failed"]


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail the test instead of hanging if the block outlives ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"sweep still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- work function raises ---------------------------------------------------

def test_worker_raise_serial_reraises_original():
    for flight in (FlightRecorder(label="t"), None):
        ex = SweepExecutor(jobs=1, flight=flight)
        with pytest.raises(ValueError, match="poison item 3"):
            ex.map(fragile, list(range(6)))
        if flight is not None:
            failed = _failed(flight)
            assert len(failed) == 1
            assert failed[0].index == 3
            assert failed[0].stage == "worker"
            assert "poison item 3" in failed[0].error


def test_worker_raise_parallel_wraps_in_sweep_item_error():
    for flight in (FlightRecorder(label="t"), None):
        ex = SweepExecutor(jobs=2, flight=flight)
        with pytest.raises(SweepItemError) as excinfo:
            ex.map(fragile, list(range(6)))
        assert excinfo.value.index == 3
        assert "poison item 3" in excinfo.value.error
        # A library error (the CLI prints it as ``error: ...``) that
        # older ``except RuntimeError`` callers still catch.
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, RuntimeError)


def test_parallel_no_recorder_starts_no_manager(monkeypatch):
    """No recorder means no heartbeat queue, hence no Manager process."""
    def no_manager(*args, **kwargs):
        raise AssertionError("recorder-off map started a Manager")

    monkeypatch.setattr(multiprocessing, "Manager", no_manager)
    ex = SweepExecutor(jobs=2)
    assert ex.map(abs, [-1, -2, -3]) == [1, 2, 3]


def test_parallel_recorder_starts_no_manager(monkeypatch):
    """Workers beat to the parent over a pipe, not a Manager queue."""
    def no_manager(*args, **kwargs):
        raise AssertionError("recorded map started a Manager")

    monkeypatch.setattr(multiprocessing, "Manager", no_manager)
    ex = SweepExecutor(jobs=2, flight=FlightRecorder(label="t"))
    assert ex.map(abs, [-1, -2, -3]) == [1, 2, 3]


def test_parallel_recorded_map_leaves_no_child_process():
    """A recorded parallel map reaps its workers and starts no server
    process, so nothing outlives ``map`` (no ``close()`` to call)."""
    before = set(multiprocessing.active_children())
    ex = SweepExecutor(jobs=2, flight=FlightRecorder(label="t"))
    assert ex.map(abs, [-1, -2, -3]) == [1, 2, 3]
    assert [p for p in multiprocessing.active_children()
            if p not in before] == []


def test_full_heartbeat_pipe_releases_its_writer_when_map_raises(monkeypatch):
    """Item 1 fills the pipe while the parent is stuck on item 0, then
    the map raises. Closing the parent's ends must break the pipe (no
    worker holds a read end), so the blocked writer gets BrokenPipeError
    and its worker exits instead of hanging interpreter exit."""
    def give_up(self, ctx, index, measure):
        time.sleep(1.0)
        raise RuntimeError("parent gave up")

    monkeypatch.setattr(FlightRecorder, "item_finished", give_up)
    before = set(multiprocessing.active_children())
    ex = SweepExecutor(jobs=2, flight=FlightRecorder(label="t"))
    with _deadline(30):
        with pytest.raises(RuntimeError, match="parent gave up"):
            ex.map(flood_beats, [0, 1])
        while [p for p in multiprocessing.active_children() if p not in before]:
            time.sleep(0.05)


@pytest.mark.parametrize("jobs", [1, 2])
def test_keep_mode_returns_survivors(jobs):
    flight = FlightRecorder(label="t")
    ex = SweepExecutor(jobs=jobs, flight=flight)
    out = ex.map(fragile, list(range(6)), failures="keep")
    assert out == [0, 10, 20, None, 40, 50]
    # ``executed`` counts items that ran — the poison item did run (and
    # failed); only its result is withheld.
    assert ex.stats.executed == 6
    failed = _failed(flight)
    assert [r.index for r in failed] == [3]
    verdicts = journal_verdicts([r.as_dict() for r in flight.records])
    fleet = {v.monitor: v for v in verdicts}
    assert not fleet["fleet-failures"].ok


def test_keep_mode_skips_caching_and_callbacks_for_failures(tmp_path):
    cache = ResultCache(root=tmp_path, salt="s")
    seen: list[int] = []

    def run():
        flight = FlightRecorder(label="t")
        ex = SweepExecutor(jobs=1, cache=cache, flight=flight)
        items = list(range(6))
        out = ex.map(
            fragile, items,
            keys=[cache.key_for(i) for i in items],
            encode=lambda r: r,
            decode=lambda item, payload: payload,
            on_result=lambda item, result: seen.append(item),
            failures="keep",
        )
        return out, ex.stats, flight

    out1, stats1, _ = run()
    assert out1 == [0, 10, 20, None, 40, 50]
    assert seen == [0, 1, 2, 4, 5]  # no callback for the failed item
    # Round 2: survivors replay from cache, the poison item re-executes
    # (its failure was never cached) and fails identically.
    seen.clear()
    out2, stats2, flight2 = run()
    assert out2 == out1
    assert stats2.cache_hits == 5
    assert stats2.executed == 1
    failed = _failed(flight2)
    assert [r.index for r in failed] == [3]
    assert failed[0].status == "executed"


# -- worker killed mid-item -------------------------------------------------

def test_sigkill_mid_item_fails_only_poison_with_retries():
    flight = FlightRecorder(label="t")
    ex = SweepExecutor(jobs=2, flight=flight, retries=2)
    out = ex.map(lethal, list(range(8)), failures="keep")
    assert out[3] is None
    assert [out[i] for i in range(8) if i != 3] == [
        i * 10 for i in range(8) if i != 3
    ]
    failed = _failed(flight)
    assert [r.index for r in failed] == [3]
    assert "WorkerCrashed" in failed[0].error
    assert failed[0].attempts == 3  # 1 + retries
    # Survivors completed despite pool rebuilds.
    ok = [r for r in flight.records if r.outcome == "ok"]
    assert sorted(r.index for r in ok) == [i for i in range(8) if i != 3]


def test_sigkill_raise_mode_raises_sweep_item_error():
    """A pool death is a SweepItemError with or without a recorder
    (never a raw BrokenProcessPool), and the retry loop terminates."""
    for flight in (FlightRecorder(label="t"), None):
        ex = SweepExecutor(jobs=2, flight=flight)
        with _deadline(60), pytest.raises(SweepItemError) as excinfo:
            ex.map(lethal, list(range(6)))
        assert "WorkerCrashed" in str(excinfo.value)
        if flight is not None:
            assert excinfo.value.index == 3
        else:
            # No start beats single out the crashing item: every item
            # still unresolved in the crashed round is charged, and the
            # lowest-index one of those is reported.
            assert excinfo.value.index <= 3


def test_broken_pool_charges_only_items_without_done_beat():
    """Item 2 finished on a healthy worker (its result lost to the
    poisoned future); item 3 is the one the pool died on. Only 3 pays."""
    beats, writer = multiprocessing.Pipe(duplex=False)
    with beats, writer:
        for worker, index, phase in (
            ("w1", 2, "start"), ("w2", 3, "start"), ("w1", 2, "done"),
        ):
            writer.send({"worker": worker, "index": index, "phase": phase})
        flight = FlightRecorder(label="t")
        ctx = flight.begin_map(lethal, 6, None, jobs=2)
        phases = flight.drain_heartbeats(ctx, beats)
        assert not beats.poll()
    assert phases == {2: "done", 3: "start"}
    assert _crashed(phases, {2, 3, 4, 5}) == {3}


def test_abort_beat_refunds_item_the_breaking_pool_terminated(tmp_path):
    """Item 1 SIGKILLs its worker while item 0 sleeps on the other one.
    The breaking pool SIGTERMs the sleeper, whose abort beat refunds
    its attempt: only the killer is charged and reported."""
    raising, keeping = tmp_path / "raise", tmp_path / "keep"
    raising.mkdir()
    keeping.mkdir()

    flight = FlightRecorder(label="t")
    items = [("sleep", str(raising)), ("kill", str(raising))]
    with _deadline(60), pytest.raises(SweepItemError) as excinfo:
        SweepExecutor(jobs=2, flight=flight).map(sleep_or_kill, items)
    assert excinfo.value.index == 1
    assert "WorkerCrashed" in excinfo.value.error

    flight = FlightRecorder(label="t")
    items = [("sleep", str(keeping)), ("kill", str(keeping))]
    with _deadline(60):
        out = SweepExecutor(jobs=2, flight=flight, retries=1).map(
            sleep_or_kill, items, failures="keep"
        )
    assert out == ["sleep", "kill"]
    attempts = {r.index: r.attempts for r in flight.records}
    assert attempts == {0: 1, 1: 2}


def test_outside_sigterm_abort_is_still_charged():
    """A worker SIGTERMed from outside the pool sends an abort beat like
    one the breaking pool terminated. A round whose beats charge no item
    charges every dispatched one, so ``retries`` still bounds the sweep,
    with or without a recorder."""
    for flight in (FlightRecorder(label="t"), None):
        ex = SweepExecutor(jobs=2, flight=flight, retries=1)
        with _deadline(60), pytest.raises(SweepItemError) as excinfo:
            ex.map(sigterm_self, list(range(3)))
        assert excinfo.value.index == 0
        assert excinfo.value.attempts == 2
        assert "WorkerCrashed" in excinfo.value.error

    flight = FlightRecorder(label="t")
    ex = SweepExecutor(jobs=2, flight=flight, retries=1)
    with _deadline(60):
        out = ex.map(sigterm_self, list(range(3)), failures="keep")
    assert out[0] is None
    killer = [r for r in _failed(flight) if r.index == 0]
    assert len(killer) == 1
    assert killer[0].attempts == 2
    assert "WorkerCrashed" in killer[0].error


@pytest.mark.parametrize("flight_on", [False, True])
def test_pool_broken_mid_submission_retries_the_rest(monkeypatch, flight_on):
    """A worker dying before every item was submitted makes ``submit``
    raise; the round is a crash like any other, not a raw
    BrokenProcessPool, and the items never submitted are not charged."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    real_submit = ProcessPoolExecutor.submit
    calls = []

    def submit(self, fn, *args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise BrokenProcessPool("a child process terminated abruptly")
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    flight = FlightRecorder(label="t") if flight_on else None
    items = [0, 1, 2, 4, 5, 6]
    with _deadline(60):
        out = SweepExecutor(jobs=2, flight=flight, retries=1).map(lethal, items)
    assert out == [x * 10 for x in items]
    if flight is not None:
        attempts = {r.index: r.attempts for r in flight.records}
        assert [attempts[i] for i in range(2, 6)] == [1, 1, 1, 1]


def test_sigkill_no_recorder_honours_retries():
    """``retries`` holds without heartbeats: the sweep gives up after
    exactly ``1 + retries`` crashed rounds."""
    ex = SweepExecutor(jobs=2, retries=2)
    with _deadline(60), pytest.raises(SweepItemError) as excinfo:
        ex.map(lethal, list(range(8)))
    assert excinfo.value.attempts == 3  # 1 + retries
    assert "WorkerCrashed" in excinfo.value.error


# -- observer callback raises ----------------------------------------------

@pytest.mark.parametrize("flight_on", [False, True])
def test_callback_raise_leaves_stats_settled(flight_on):
    """Satellite fix: a raising ``on_result`` must not leave stale
    accounting — stats settle before observer callbacks run, on both
    the instrumented and the recorder-off path."""
    flight = FlightRecorder(label="t") if flight_on else None
    ex = SweepExecutor(jobs=1, flight=flight)

    def boom(item, result):
        if item == 1:
            raise RuntimeError("observer exploded")

    with pytest.raises(RuntimeError, match="observer exploded"):
        ex.map(lambda x: x + 1, [0, 1, 2], on_result=boom)
    assert ex.stats.executed == 3
    assert ex.stats.total == 3
    if flight_on:
        failed = _failed(flight)
        assert len(failed) == 1
        assert failed[0].index == 1
        assert failed[0].stage == "callback"
        assert "observer exploded" in failed[0].error


def test_callback_failure_counts_once_in_phases():
    flight = FlightRecorder(label="t")
    ex = SweepExecutor(jobs=1, flight=flight)
    with pytest.raises(RuntimeError):
        ex.map(
            lambda x: x, [0, 1],
            on_result=lambda item, result: (_ for _ in ()).throw(
                RuntimeError("nope")
            ),
        )
    snap = flight.snapshot()
    # The item settled at execution time; the callback failure adds a
    # failed mark without double-counting done.
    assert snap.done == 2
    assert snap.failed == 1
