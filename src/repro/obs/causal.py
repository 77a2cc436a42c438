"""Causal frame tracing: span trees and critical paths from event logs.

Every frame's journey through the pipeline is recorded as correlated
telemetry — ``frame.emit`` when the host hands it to stage 0,
``link.xfer`` for each serial transaction it rides (tagged with the
frame id), ``proc.block`` for each ATR block computed on it, and
``frame.result`` when the host sink accepts it. This module rebuilds
that journey *offline* from any :class:`~repro.obs.events.EventLog`:

- :func:`build_frame_trace` reconstructs one frame's ordered span list
  and extracts its **critical path** — a contiguous cover of
  ``[emitted, completed]`` where every second is attributed to
  ``compute``, ``comm-wire``, ``comm-startup`` (the PPP transaction
  setup cost), or ``queue-wait`` (the frame exists but nothing is
  moving or computing it).
- :func:`explain_frame` is the machine-readable form — what
  ``repro explain frame`` and the deadline-miss postmortems in
  ``repro check`` print.
- :func:`collapsed_stacks` emits Brendan-Gregg collapsed-stack lines
  (``frame;actor;span microseconds``) loadable by any flamegraph tool.

Frames skipped by fast-forward epoch coalescing have no per-event
records; tracing one raises :class:`~repro.errors.ReproError` naming
the ids that *are* traceable.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import ReproError

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import EventLog, TelemetryEvent

__all__ = [
    "FrameSpan",
    "FrameTrace",
    "build_frame_trace",
    "collapsed_stacks",
    "explain_frame",
    "frame_ids",
    "late_frame_ids",
    "render_frame_tree",
]

#: Critical-path categories, in display order.
CATEGORIES = ("compute", "comm-wire", "comm-startup", "queue-wait")


@dataclasses.dataclass(frozen=True)
class FrameSpan:
    """One attributed interval of a frame's journey.

    Attributes
    ----------
    name:
        Human label: a block name for compute, ``"a->b"`` for
        communication, ``"wait"`` for queue-wait gaps.
    actor:
        Node (or sender) the interval belongs to.
    category:
        One of :data:`CATEGORIES`.
    t0, t1:
        Simulated interval bounds.
    """

    name: str
    actor: str
    category: str
    t0: float
    t1: float

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict[str, t.Any]:
        return {
            "name": self.name,
            "actor": self.actor,
            "category": self.category,
            "t0": self.t0,
            "t1": self.t1,
            "duration_s": self.duration_s,
        }


@dataclasses.dataclass(frozen=True)
class FrameTrace:
    """One frame's reconstructed causal record.

    ``spans`` are the observed intervals (compute and communication,
    with each transaction split into its startup and wire portions);
    ``critical_path`` additionally fills every gap with a
    ``queue-wait`` span, so it covers ``[emitted_s, completed_s]``
    contiguously and its durations sum to ``latency_s``.
    """

    frame: int
    emitted_s: float
    completed_s: float | None
    latency_s: float | None
    late: bool
    spans: tuple[FrameSpan, ...]
    critical_path: tuple[FrameSpan, ...]

    def breakdown(self) -> dict[str, float]:
        """category -> critical-path seconds (all categories present)."""
        totals = {category: 0.0 for category in CATEGORIES}
        for span in self.critical_path:
            totals[span.category] += span.duration_s
        return totals

    def compute_blocks(self) -> dict[str, float]:
        """block name -> compute seconds (Fig. 6's PROC column)."""
        blocks: dict[str, float] = {}
        for span in self.spans:
            if span.category == "compute":
                blocks[span.name] = blocks.get(span.name, 0.0) + span.duration_s
        return blocks

    def transfers(self) -> dict[str, float]:
        """``"a->b"`` -> total transaction seconds (startup + wire)."""
        hops: dict[str, float] = {}
        for span in self.spans:
            if span.category in ("comm-wire", "comm-startup"):
                hops[span.name] = hops.get(span.name, 0.0) + span.duration_s
        return hops

    def as_dict(self) -> dict[str, t.Any]:
        """The machine-readable explanation (JSON-stable)."""
        return {
            "frame": self.frame,
            "emitted_s": self.emitted_s,
            "completed_s": self.completed_s,
            "latency_s": self.latency_s,
            "late": self.late,
            "breakdown_s": self.breakdown(),
            "compute_blocks_s": dict(sorted(self.compute_blocks().items())),
            "transfers_s": dict(sorted(self.transfers().items())),
            "critical_path": [span.as_dict() for span in self.critical_path],
        }


def frame_ids(log: "EventLog") -> list[int]:
    """All frame ids with per-event records, ascending.

    Fast-forward runs only carry events for the exactly-simulated
    frames (ramp-up, transition, and endgame); ids inside coalesced
    epochs are absent by construction.
    """
    ids: set[int] = set()
    for event in log:
        frame = event.data.get("frame")
        if frame is not None:
            ids.add(frame)
    return sorted(ids)


def late_frame_ids(log: "EventLog") -> list[int]:
    """Frames whose ``frame.result`` was flagged late, ascending."""
    return sorted(
        event.data["frame"]
        for event in log.stream({"frame.result"})
        if event.data.get("late")
    )


def _frame_events(log: "EventLog", frame_id: int) -> list["TelemetryEvent"]:
    return [e for e in log if e.data.get("frame") == frame_id]


def build_frame_trace(log: "EventLog", frame_id: int) -> FrameTrace:
    """Reconstruct one frame's span list and critical path.

    Raises :class:`~repro.errors.ReproError` when the log has no events
    for the frame (wrong id, or the frame was coalesced away by
    fast-forward).
    """
    events = _frame_events(log, frame_id)
    if not events:
        available = frame_ids(log)
        hint = (
            f"traceable ids span {available[0]}..{available[-1]}"
            if available
            else "the log has no frame-correlated events at all"
        )
        raise ReproError(
            f"no events for frame {frame_id}: {hint} (frames coalesced by "
            "fast-forward epochs have no per-event records; rerun with "
            "mode='exact' or a bounded --frames)"
        )

    result = next((e for e in events if e.kind == "frame.result"), None)
    completed_s = result.ts if result is not None else None
    latency_s = result.data.get("latency_s") if result is not None else None
    late = bool(result.data.get("late")) if result is not None else False

    spans: list[FrameSpan] = []
    for event in events:
        if event.kind == "link.xfer":
            duration = event.data["duration_s"]
            startup = min(event.data.get("startup_s", 0.0), duration)
            name = f"{event.actor}->{event.data.get('to', '?')}"
            if startup > 0:
                spans.append(
                    FrameSpan(name, event.actor, "comm-startup", event.ts, event.ts + startup)
                )
            spans.append(
                FrameSpan(name, event.actor, "comm-wire", event.ts + startup, event.ts + duration)
            )
        elif event.kind == "proc.block":
            duration = event.data["duration_s"]
            spans.append(
                FrameSpan(
                    event.data.get("block", "proc"),
                    event.actor,
                    "compute",
                    event.ts - duration,
                    event.ts,
                )
            )
    spans.sort(key=lambda s: (s.t0, s.t1))

    # Emission time: frame.result carries the end-to-end latency, so
    # the true emission instant is recoverable even though frame.emit
    # fires only after the input transfer completes.
    if completed_s is not None and latency_s is not None:
        emitted_s = completed_s - latency_s
    elif spans:
        emitted_s = spans[0].t0
    else:
        emitted_s = events[0].ts

    # Critical path: walk the (linear) span chain and fill every gap
    # with queue-wait. A frame is in exactly one place at a time, so
    # overlaps only arise from float rounding; they are clipped.
    path: list[FrameSpan] = []
    cursor = emitted_s
    for span in spans:
        if span.t0 > cursor + 1e-12:
            path.append(FrameSpan("wait", span.actor, "queue-wait", cursor, span.t0))
            cursor = span.t0
        if span.t1 <= cursor:
            continue
        if span.t0 < cursor:
            span = dataclasses.replace(span, t0=cursor)
        path.append(span)
        cursor = span.t1
    if completed_s is not None and completed_s > cursor + 1e-12:
        path.append(FrameSpan("wait", "", "queue-wait", cursor, completed_s))

    return FrameTrace(
        frame=frame_id,
        emitted_s=emitted_s,
        completed_s=completed_s,
        latency_s=latency_s,
        late=late,
        spans=tuple(spans),
        critical_path=tuple(path),
    )


def explain_frame(log: "EventLog", frame_id: int) -> dict[str, t.Any]:
    """Machine-readable explanation of one frame (see ``repro explain``)."""
    return build_frame_trace(log, frame_id).as_dict()


def collapsed_stacks(traces: t.Iterable[FrameTrace]) -> list[str]:
    """Collapsed-stack (flamegraph) lines for a set of frame traces.

    One line per critical-path span:
    ``frame<ID>;<actor>;<category>;<name> <microseconds>`` — the format
    ``flamegraph.pl`` and speedscope ingest directly. Zero-duration
    spans are skipped (collapsed-stack counts must be positive).
    """
    lines: list[str] = []
    for trace in traces:
        for span in trace.critical_path:
            us = round(span.duration_s * 1e6)
            if us <= 0:
                continue
            actor = span.actor or "host"
            lines.append(
                f"frame{trace.frame};{actor};{span.category};{span.name} {us}"
            )
    return lines


def render_frame_tree(trace: FrameTrace) -> str:
    """ASCII span tree of one frame's critical path (CLI display)."""
    header = f"frame {trace.frame}"
    if trace.latency_s is not None:
        verdict = "LATE" if trace.late else "on time"
        header += f": latency {trace.latency_s:.3f}s ({verdict})"
    else:
        header += ": incomplete (no frame.result recorded)"
    lines = [header]
    path = trace.critical_path
    for i, span in enumerate(path):
        branch = "└─" if i == len(path) - 1 else "├─"
        where = f" on {span.actor}" if span.actor else ""
        lines.append(
            f"{branch} [{span.t0:11.3f} → {span.t1:11.3f}] "
            f"{span.category:<12} {span.name}{where} ({span.duration_s:.3f}s)"
        )
    totals = trace.breakdown()
    parts = ", ".join(f"{k} {v:.3f}s" for k, v in totals.items() if v > 0)
    lines.append(f"   breakdown: {parts}")
    return "\n".join(lines)
