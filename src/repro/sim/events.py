"""Events: the unit of synchronization in the simulation kernel.

An :class:`Event` starts *pending*, is *triggered* with a value (or an
exception) exactly once, and then runs its callbacks when the simulator
pops it off the heap. Processes (see :mod:`repro.sim.process`) yield
events to suspend until they fire.
"""

from __future__ import annotations

import heapq
import typing as t

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

__all__ = ["Event", "Timeout", "AnyOf", "AllOf"]

# Sentinel distinguishing "not yet triggered" from a triggered None value.
_PENDING = object()

_heappush = heapq.heappush


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.

    Notes
    -----
    The life cycle is ``pending -> triggered -> processed``. Values and
    exceptions are mutually exclusive: :meth:`succeed` sets a value,
    :meth:`fail` sets an exception that will be raised inside every
    waiting process.

    Events are the unit currency of the kernel — a paper-scale run
    allocates hundreds of thousands — so the hierarchy uses
    ``__slots__`` throughout to keep instances small and attribute
    access cheap.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[t.Callable[[Event], None]] | None = []
        self._value: t.Any = _PENDING
        self._exception: BaseException | None = None

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the heap)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (has a value, not an exception)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> t.Any:
        """The value the event was triggered with.

        Raises
        ------
        SimulationError
            If the event has not been triggered yet.
        """
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The exception the event failed with, if any."""
        return self._exception

    # -- triggering ------------------------------------------------------
    def succeed(self, value: t.Any = None, *, delay: float = 0.0) -> "Event":
        """Trigger the event with ``value`` after ``delay`` sim-seconds.

        Pushes onto the simulator's heap directly, exactly as
        :meth:`Simulator.schedule` would: this runs several times per
        simulated frame.
        """
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event already triggered")
        self._value = value
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        sim = self.sim
        sim._seq += 1
        _heappush(sim._heap, (sim._now + delay, sim._seq, self))
        return self

    def fail(self, exception: BaseException, *, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after ``delay`` sim-seconds."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self._value = None
        self.sim.schedule(self, delay=delay)
        return self

    # -- kernel interface -------------------------------------------------
    def _run_callbacks(self) -> None:
        """Invoked by the simulator when the event is popped off the heap."""
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def add_callback(self, callback: t.Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event was already processed the callback runs immediately —
        this lets a process safely wait on an event that fired earlier.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay.

    ``yield sim.timeout(2.3)`` suspends the yielding process for 2.3
    simulated seconds.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: t.Any = None):
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        # Event.__init__ and Simulator.schedule, inlined: every compute
        # step, transfer and death timer builds one.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self.delay = delay
        sim._seq += 1
        _heappush(sim._heap, (sim._now + delay, sim._seq, self))


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`.

    A condition registers its bound ``_observe`` on every constituent it
    still waits for, which is a reference cycle (condition -> events ->
    constituent -> callbacks -> condition) for as long as a constituent
    is pending. Once the condition triggers, :meth:`_detach` removes the
    callback from every constituent that has not fired yet, so a
    per-frame ``any_of([grant, timer])`` is freed by reference counting
    instead of by the cyclic collector, and a long-lived constituent
    (an event fired once per run) does not accumulate dead callbacks.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: t.Sequence[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("all events must belong to the same simulator")
        for event in self.events:
            if self.triggered:
                break
            if event.processed:
                self._observe(event)
            else:
                event.add_callback(self._observe)
        self._check_empty()

    def _check_empty(self) -> None:
        if not self.events and not self.triggered:
            self.succeed(self._result())

    def _detach(self) -> None:
        """Remove every registration of ``_observe`` from the constituents."""
        observe = self._observe
        for event in self.events:
            callbacks = event.callbacks
            if callbacks and observe in callbacks:
                callbacks[:] = [cb for cb in callbacks if cb != observe]

    def _observe(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _result(self) -> t.Any:
        # Only *processed* events count: a Timeout is "triggered" (its
        # value is known) from construction, but it has not happened
        # until the kernel dispatches it.
        return {
            e: e._value
            for e in self.events
            if e.processed and e._exception is None
        }


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires.

    The value is a dict mapping the already-fired events to their values.
    A failed constituent fails the condition.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
        else:
            self.succeed(self._result())
        self._detach()


class AllOf(_Condition):
    """Fires once every constituent event has fired.

    The value is a dict mapping all events to their values. A failed
    constituent fails the condition immediately.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
            self._detach()
            return
        self._pending -= 1
        if self._pending <= 0:
            self.succeed(self._result())
