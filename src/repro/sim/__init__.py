"""Deterministic discrete-event simulation kernel.

This is the substrate every experiment runs on. It is a small,
self-contained, SimPy-flavoured kernel:

- :class:`~repro.sim.kernel.Simulator` owns the clock and the event heap.
- :class:`~repro.sim.events.Event` is the unit of synchronization.
- :class:`~repro.sim.process.Process` wraps a generator coroutine; the
  generator ``yield``\\ s events and is resumed with their values.
- :class:`~repro.sim.trace.TraceRecorder` records piecewise-constant
  activity segments (who, what mode, what current) for figures and
  energy accounting.
- :class:`~repro.sim.rng.RngStreams` hands out named, independently
  seeded random streams so experiments are reproducible.

The kernel is deterministic: ties in time are broken by insertion
order, and no wall-clock or global randomness is consulted anywhere.
"""

from repro.sim.events import Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Interrupt, Process
from repro.sim.rng import RngStreams
from repro.sim.trace import Segment, TraceRecorder

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "RngStreams",
    "TraceRecorder",
    "Segment",
]
