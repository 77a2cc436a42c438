"""Activity traces: piecewise-constant segments of node state.

The paper's Figs. 2, 3 and 9 are timing-vs-power diagrams. The
:class:`TraceRecorder` captures exactly that: for each actor (node) a
sequence of :class:`Segment`\\ s — time interval, activity label (e.g.
``"recv"``, ``"proc"``, ``"send"``, ``"idle"``), operating frequency and
battery current. The analysis layer renders these as Gantt charts and
the tests use them to assert schedule invariants. The recorder is the
exact-mode timeline only: charge is accounted once, by the
:class:`~repro.obs.energy.EnergyLedger`.
"""

from __future__ import annotations

import dataclasses
import typing as t

__all__ = ["Segment", "TraceRecorder"]


@dataclasses.dataclass(frozen=True)
class Segment:
    """One piecewise-constant activity interval of one actor.

    Attributes
    ----------
    actor:
        Name of the node (or other actor) the segment belongs to.
    start, end:
        Interval bounds in simulated seconds; ``end >= start``.
    activity:
        Label such as ``"recv"``, ``"proc"``, ``"send"``, ``"idle"``,
        ``"reconfig"``, ``"dead"``.
    frequency_mhz:
        CPU frequency in effect during the segment.
    current_ma:
        Battery current draw during the segment.
    detail:
        Free-form annotation (frame id, peer, payload size...).
    """

    actor: str
    start: float
    end: float
    activity: str
    frequency_mhz: float = 0.0
    current_ma: float = 0.0
    detail: str = ""

    @property
    def duration(self) -> float:
        """Segment length in seconds."""
        return self.end - self.start

    def as_dict(self) -> dict[str, t.Any]:
        """JSON-stable dict form; :meth:`from_dict` reloads it
        bit-identically (floats round-trip through ``repr``)."""
        return {
            "actor": self.actor,
            "start": self.start,
            "end": self.end,
            "activity": self.activity,
            "frequency_mhz": self.frequency_mhz,
            "current_ma": self.current_ma,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "Segment":
        """Rebuild a segment from :meth:`as_dict` output."""
        return cls(
            actor=payload["actor"],
            start=payload["start"],
            end=payload["end"],
            activity=payload["activity"],
            frequency_mhz=payload.get("frequency_mhz", 0.0),
            current_ma=payload.get("current_ma", 0.0),
            detail=payload.get("detail", ""),
        )


class TraceRecorder:
    """Collects :class:`Segment` objects per actor."""

    def __init__(self) -> None:
        self._segments: dict[str, list[Segment]] = {}

    def record(self, segment: Segment) -> None:
        """Store one segment."""
        self._segments.setdefault(segment.actor, []).append(segment)

    def add(
        self,
        actor: str,
        start: float,
        end: float,
        activity: str,
        *,
        frequency_mhz: float = 0.0,
        current_ma: float = 0.0,
        detail: str = "",
    ) -> None:
        """Convenience wrapper building and recording a :class:`Segment`."""
        self.record(
            Segment(
                actor=actor,
                start=start,
                end=end,
                activity=activity,
                frequency_mhz=frequency_mhz,
                current_ma=current_ma,
                detail=detail,
            )
        )

    # -- queries -----------------------------------------------------------
    @property
    def actors(self) -> list[str]:
        """Actors that have at least one recorded segment, in first-seen order."""
        return list(self._segments)

    def segments(self, actor: str) -> list[Segment]:
        """All segments recorded for ``actor`` (empty list if none)."""
        return list(self._segments.get(actor, []))

    def all_segments(self) -> list[Segment]:
        """Every recorded segment, ordered by (actor-first-seen, time)."""
        out: list[Segment] = []
        for actor in self._segments:
            out.extend(self._segments[actor])
        return out

    def clear(self) -> None:
        """Drop all recorded segments."""
        self._segments.clear()

    # -- serialization -----------------------------------------------------
    def as_dict(self) -> dict[str, t.Any]:
        """JSON payload (the segments) for caches and workers."""
        return {"segments": [s.as_dict() for s in self.all_segments()]}

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "TraceRecorder":
        """Rebuild a recorder, segments included, from :meth:`as_dict`.

        The reload is bit-identical: segment order (actor-first-seen,
        then time) and every float survive the JSON round trip.
        """
        recorder = cls()
        for segment_payload in payload.get("segments", []):
            segment = Segment.from_dict(segment_payload)
            recorder._segments.setdefault(segment.actor, []).append(segment)
        return recorder
