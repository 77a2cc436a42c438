"""Generator-coroutine processes.

A process wraps a Python generator. The generator ``yield``\\ s
:class:`~repro.sim.events.Event` objects to suspend; when the event
fires, the generator is resumed with the event's value (or the event's
exception is thrown into it). The process object is itself an event
that fires with the generator's return value, so processes compose:
``result = yield sim.process(child(sim))``.
"""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError
from repro.sim.events import Event

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process's generator by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        Arbitrary payload describing why the interrupt happened (e.g. a
        battery-death notification or a failure-detection timeout).
    """

    def __init__(self, cause: t.Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator coroutine inside the simulation.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The coroutine body. Must be a generator (the result of calling a
        generator function).
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: t.Generator, name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        # Bootstrap: resume the generator for the first time "immediately".
        bootstrap = Event(sim)
        bootstrap.succeed(None)
        bootstrap.add_callback(self._resume)

    # -- state -------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- interruption ------------------------------------------------------
    def interrupt(self, cause: t.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process twice before it resumes queues both interrupts in order.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        event = Event(self.sim)
        event.fail(Interrupt(cause))
        # Detach from whatever the process was waiting on: the original
        # event's callback must become a no-op for this process.
        waiting, self._waiting_on = self._waiting_on, None
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        event.add_callback(self._resume)

    # -- kernel plumbing ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self._waiting_on = None
        try:
            if event._exception is not None:
                target = self.generator.throw(event._exception)
            else:
                target = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process "normally
            # with cause": model code treats e.g. battery death this way.
            self.succeed(exc.cause)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event objects"
            )
            self.generator.close()
            self.fail(error)
            return
        if target.sim is not self.sim:
            self.generator.close()
            self.fail(SimulationError("yielded event belongs to a different simulator"))
            return
        self._waiting_on = target
        # Event.add_callback, inlined: this runs once per resume.
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
