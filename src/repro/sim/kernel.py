"""The simulation kernel: clock, event heap, and run loop."""

from __future__ import annotations

import heapq
import typing as t

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

__all__ = ["Simulator"]


class Simulator:
    """Owns simulated time and dispatches events in timestamp order.

    Determinism: events scheduled for the same timestamp are processed
    in scheduling order (a monotonically increasing sequence number
    breaks ties), so repeated runs of the same model produce identical
    traces.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc(sim):
    ...     yield sim.timeout(1.5)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> log
    [1.5]
    """

    def __init__(self, obs: t.Any = None):
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._event_count = 0
        #: Optional telemetry event bus (anything with ``emit``; falsy
        #: when disabled). The kernel publishes coarse scheduling
        #: records — process starts and run-loop exits — never
        #: per-event records, so instrumentation cannot dominate
        #: dispatch. A falsy bus (a disabled EventLog) is normalized to
        #: None here so the emit-site guard is a C-level None test
        #: rather than a Python-level ``__bool__`` call per check.
        self.obs = obs if obs else None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far (diagnostics)."""
        return self._event_count

    # -- event construction --------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`~repro.sim.events.Event`."""
        return Event(self)

    def timeout(self, delay: float, value: t.Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: t.Sequence[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: t.Sequence[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def process(self, generator: t.Generator, name: str | None = None) -> "Process":
        """Start a new process running ``generator``; returns the Process.

        The process is itself an event that fires with the generator's
        return value, so processes can wait on each other.
        """
        from repro.sim.process import Process

        process = Process(self, generator, name=name)
        if self.obs is not None:
            self.obs.emit(
                "kernel.process", self._now, process.name or "", queued=len(self._heap)
            )
        return process

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: Event, *, delay: float = 0.0) -> None:
        """Place a triggered event on the heap ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def warp(self, delta: float) -> None:
        """Advance the clock by ``delta``, dragging every pending event along.

        The fast-forward engine (:mod:`repro.sim.fastforward`) uses this
        to skip whole steady-state epochs: after batteries and counters
        have been advanced analytically, the pending schedule is shifted
        rigidly into the future. A uniform shift preserves both the heap
        invariant and same-timestamp tie order (sequence numbers are
        untouched), so the simulation resumes exactly as if the skipped
        interval had been played out — provided the caller really did
        account for everything that would have happened in it.
        """
        if delta < 0:
            raise SimulationError(f"cannot warp backwards (delta={delta})")
        self._now += delta
        heap = self._heap
        for i, (when, seq, event) in enumerate(heap):
            heap[i] = (when + delta, seq, event)

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Timestamp of the next event, or ``float('inf')`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._heap)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError(f"time went backwards: {when} < {self._now}")
        self._now = when
        self._event_count += 1
        event._run_callbacks()

    def run(self, until: float | Event | None = None) -> None:
        """Run until the queue drains, ``until`` seconds, or an event fires.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain.
            ``float``
                run until simulated time reaches the given timestamp;
                the clock is advanced to exactly that value. Events
                scheduled *at* the horizon are processed, including
                when the horizon equals the current time.
            :class:`Event`
                run until the given event has been *processed*. Raises
                :class:`SimulationError` if the queue drains first.

        Notes
        -----
        The dispatch loops below are intentionally inlined (no
        :meth:`step` call, callback lists drained in place): the kernel
        dispatches hundreds of thousands of events per experiment and
        the per-event call overhead is the dominant cost of a run.
        Semantics are identical to repeated :meth:`step` calls.
        """
        heap = self._heap
        pop = heapq.heappop
        count = 0
        try:
            if until is None:
                while heap:
                    when, _, event = pop(heap)
                    self._now = when
                    count += 1
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                return

            if isinstance(until, Event):
                stop = until
                # ``stop.processed``, without a property call per event.
                while stop.callbacks is not None:
                    if not heap:
                        raise SimulationError(
                            "event queue drained before the 'until' event fired"
                        )
                    when, _, event = pop(heap)
                    self._now = when
                    count += 1
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                return

            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until {horizon}: clock already at {self._now}"
                )
            while heap and heap[0][0] <= horizon:
                when, _, event = pop(heap)
                self._now = when
                count += 1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
            self._now = horizon
        finally:
            self._event_count += count
            if self.obs is not None:
                self.obs.emit(
                    "kernel.run",
                    self._now,
                    "",
                    events=count,
                    total_events=self._event_count,
                    queued=len(heap),
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6g} queued={len(self._heap)}>"
