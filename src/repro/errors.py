"""Exception hierarchy for :mod:`repro`.

All exceptions raised deliberately by this library derive from
:class:`ReproError` so that callers can catch library failures with a
single ``except`` clause while letting genuine programming errors
(``TypeError``, ``ValueError`` from numpy, ...) propagate.
"""

from __future__ import annotations

import contextlib
import typing as t
import zlib

__all__ = [
    "ReproError",
    "SimulationError",
    "ScheduleError",
    "DeadlineMissError",
    "InfeasiblePartitionError",
    "BatteryError",
    "LinkError",
    "CalibrationError",
    "ConfigurationError",
    "PayloadFormatError",
    "RegistryError",
    "AuditError",
    "decoding",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state.

    Raised for kernel-level problems such as scheduling an event in the
    past, resuming a finished process, or running a simulation whose
    event queue was corrupted.
    """


class ScheduleError(ReproError):
    """A node schedule could not be constructed.

    Raised when the RECV/PROC/SEND phases of a frame cannot be laid out
    (e.g. negative durations, overlapping phases).
    """


class DeadlineMissError(ScheduleError):
    """A node failed to complete RECV+PROC+SEND within the frame delay D.

    Attributes
    ----------
    node:
        Name of the offending node.
    required:
        Time the node actually needs for one frame, in seconds.
    deadline:
        The frame delay D it had to meet, in seconds.
    """

    def __init__(self, node: str, required: float, deadline: float):
        self.node = node
        self.required = required
        self.deadline = deadline
        super().__init__(
            f"node {node!r} needs {required:.3f}s per frame but the frame "
            f"delay is {deadline:.3f}s"
        )


class InfeasiblePartitionError(ReproError):
    """No frequency level allows a partition to meet the frame delay.

    Mirrors the paper's third partitioning scheme, where Node1 would
    have to run at ~380 MHz against a 206.4 MHz maximum.
    """

    def __init__(self, message: str, required_mhz: float | None = None):
        super().__init__(message)
        self.required_mhz = required_mhz


class BatteryError(ReproError):
    """Invalid battery operation (negative draw, step on a dead cell, ...)."""


class LinkError(ReproError):
    """Invalid serial-link operation or saturated-network condition."""


class CalibrationError(ReproError):
    """A model calibration failed to converge or hit its bounds."""


class ConfigurationError(ReproError):
    """An experiment or component configuration is inconsistent."""


class PayloadFormatError(ReproError):
    """A stored payload is not in the form this version writes.

    Raised for an older format, an unknown codec tag, a truncated or
    corrupted blob, or JSON of the wrong shape. A cached result that
    raises it is treated as a miss and recomputed.
    """


class RegistryError(ReproError):
    """The run registry's SQLite file cannot be used: it is not a
    database, it is torn, or it cannot be opened. Names the file."""


class AuditError(ReproError):
    """An audited explore config's exact run departs from its fast run.

    Attributes
    ----------
    index:
        The config's enumeration index in the explored space.
    field:
        The first field that differs (see
        :func:`repro.sim.fastforward.divergence`).
    """

    def __init__(self, index: int, field: str, detail: str):
        self.index = index
        self.field = field
        super().__init__(
            f"audit of config {index}: exact and fast runs differ in "
            f"{field} ({detail})"
        )


@contextlib.contextmanager
def decoding(what: str) -> t.Iterator[None]:
    """Re-raise the errors a malformed payload causes as one
    :class:`PayloadFormatError` naming ``what``."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError, zlib.error) as exc:
        raise PayloadFormatError(f"{what}: {type(exc).__name__}: {exc}") from exc
