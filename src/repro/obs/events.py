"""The structured event bus: typed telemetry records with a null sink.

The paper's entire evidence chain is instrumentation — Itsy's on-board
power monitor plus the timing/power traces of Figs. 2, 3, 7 and 9.
:class:`EventLog` is the machine-readable generalization: every layer
of the testbed (sim kernel, links, nodes, pipeline protocols) publishes
:class:`TelemetryEvent` records into one ordered log, timestamped in
*simulated* seconds so identical seeds produce identical logs.

Null-sink contract
------------------
Emitters guard every publication with ``if obs:`` — a disabled log (or
``None``) is falsy, so the cost of leaving instrumentation wired into a
hot loop is one truthiness check. The tier-1 overhead test pins this
to <5% of the wall time of a short experiment.

Event kinds are dotted strings, namespaced by layer:

=====================  ====================================================
kind                   emitted by
=====================  ====================================================
``kernel.run``         :class:`repro.sim.kernel.Simulator` (run loop exit)
``kernel.process``     :class:`repro.sim.kernel.Simulator` (process start)
``link.xfer``          :class:`repro.hw.link.SerialLink` (rendezvous match)
``link.stall``         :class:`repro.hw.node.ItsyNode` (blocked rendezvous)
``dvs.switch``         :class:`repro.hw.node.ItsyNode` (level change)
``battery.draw``       :class:`repro.hw.node.ItsyNode` (state-of-charge sample)
``battery.dead``       :class:`repro.hw.node.ItsyNode`
``frame.emit``         :class:`repro.pipeline.engine.PipelineEngine`
``frame.result``       :class:`repro.pipeline.engine.PipelineEngine`
``proc.block``         :class:`repro.pipeline.engine.PipelineEngine`
``recovery.migrate``   :class:`repro.pipeline.engine.PipelineEngine`
``rotation.reconfig``  :class:`repro.pipeline.engine.PipelineEngine`
``ff.epoch``           :class:`repro.sim.fastforward.FastForwardController`
``log.truncated``      :class:`EventLog` (terminal marker, see :meth:`~EventLog.seal`)
=====================  ====================================================

``ff.epoch`` is the coalesced record of one fast-forward jump
(``mode="fast"`` runs only): the frames, periods, per-node drain, and
per-sender link busy time that analytic epoch skipping removed from the
event-by-event stream, plus each node's post-jump charge fraction.
Monitors in :mod:`repro.obs.checks` fold these back into their counts
so verdicts stay well-defined in fast mode.

``battery.draw`` events are the run's only discharge samples (the
paper's power-monitor view): a node takes one when a battery segment
closes at least ``monitor_interval_s`` after its previous sample.
:func:`discharge_curves` turns them into per-node curves for the
figures, reports and trace exporters.
"""

from __future__ import annotations

import dataclasses
import typing as t

__all__ = ["TelemetryEvent", "EventLog", "NULL_LOG", "discharge_curves"]


@dataclasses.dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One structured telemetry record.

    Attributes
    ----------
    kind:
        Dotted event type (``"link.xfer"``, ``"dvs.switch"``, ...).
    ts:
        Simulated time of the event in seconds.
    actor:
        Name of the node/link/process the event belongs to ("" if none).
    data:
        JSON-serializable details (payload sizes, levels, frame ids...).
    """

    kind: str
    ts: float
    actor: str = ""
    data: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> dict[str, t.Any]:
        """JSON-stable dict form (see :func:`from_dict`)."""
        return {
            "kind": self.kind,
            "ts": self.ts,
            "actor": self.actor,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "TelemetryEvent":
        """Rebuild an event from :meth:`as_dict` output (bit-identical)."""
        return cls(
            kind=payload["kind"],
            ts=payload["ts"],
            actor=payload.get("actor", ""),
            data=dict(payload.get("data", {})),
        )


class EventLog:
    """Ordered, bounded collection of :class:`TelemetryEvent` records.

    Parameters
    ----------
    enabled:
        ``False`` makes the log a null sink: it is falsy and
        :meth:`emit` is a no-op, so wired-in instrumentation costs one
        branch per site.
    max_events:
        Hard cap on stored records; further emissions are counted in
        :attr:`dropped` instead of stored, bounding memory on very long
        runs.

    Notes
    -----
    Truthiness is the null-sink check: ``bool(log)`` is ``enabled``, so
    emitters write ``if obs: obs.emit(...)`` and pay nothing when
    telemetry is off. (Hot-loop emitters normalize a falsy log to
    ``None`` at construction so the per-emit branch is a C-level
    ``None`` test, not a Python-level ``__bool__`` call.) The log
    records *simulated* time only — no wall-clock field exists — which
    is what makes event logs comparable across ``--jobs 1`` and
    ``--jobs 4`` runs.

    Streaming subscribers (:meth:`attach`) observe every published
    event online, *including* events the storage cap drops — a monitor
    that checks invariants over a very long run must not go blind when
    the log fills. Taps are live-run machinery: they are not pickled
    with the log and not part of its serialized form.

    Internally, emissions are buffered as raw field tuples and only
    materialized into :class:`TelemetryEvent` objects when the log is
    *read* (``records``, iteration, queries, serialization) — frozen
    dataclass construction is the single largest cost of full telemetry
    on a hot run, and most recorded events are never individually
    inspected. Attaching a tap forces eager construction, since taps
    must observe real events online.
    """

    __slots__ = ("enabled", "max_events", "_records", "_pending", "dropped", "_taps")

    def __init__(self, enabled: bool = True, max_events: int = 1_000_000):
        self.enabled = enabled
        self.max_events = max_events
        self._records: list[TelemetryEvent] = []
        self._pending: list[tuple[str, float, str, dict[str, t.Any]]] = []
        self.dropped = 0
        self._taps: list[t.Any] = []

    @property
    def records(self) -> list[TelemetryEvent]:
        """All stored events, materializing any lazily-buffered ones."""
        if self._pending:
            self._flush()
        return self._records

    @records.setter
    def records(self, value: list[TelemetryEvent]) -> None:
        self._records = value
        self._pending = []

    def _flush(self) -> None:
        append = self._records.append
        for kind, ts, actor, data in self._pending:
            append(TelemetryEvent(kind, ts, actor, data))
        self._pending.clear()

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self._records) + len(self._pending)

    def __iter__(self) -> t.Iterator[TelemetryEvent]:
        return iter(self.records)

    def emit(self, kind: str, ts: float, actor: str = "", **data: t.Any) -> None:
        """Publish one event (no-op when disabled; counted when full)."""
        if not self.enabled:
            return
        taps = self._taps
        if taps:
            event = TelemetryEvent(kind, ts, actor, data)
            if len(self._records) + len(self._pending) < self.max_events:
                if self._pending:
                    self._flush()
                self._records.append(event)
            else:
                self.dropped += 1
            for tap in taps:
                tap.observe(event)
            return
        if len(self._records) + len(self._pending) < self.max_events:
            self._pending.append((kind, ts, actor, data))
        else:
            self.dropped += 1

    def record(self, event: TelemetryEvent) -> None:
        """Publish an already-built event (same gating as :meth:`emit`)."""
        if not self.enabled:
            return
        if len(self._records) + len(self._pending) < self.max_events:
            if self._pending:
                self._flush()
            self._records.append(event)
        else:
            self.dropped += 1
        if self._taps:
            for tap in self._taps:
                tap.observe(event)

    def seal(self, ts: float) -> None:
        """Make a hit storage cap visible as a terminal record.

        A full log silently counts further emissions in :attr:`dropped`;
        consumers reading only the stored records would mistake the
        truncated stream for a complete one. Sealing appends one
        ``log.truncated`` event carrying the drop count (bypassing the
        cap — one record of overhead), so replayed monitors can return
        *inconclusive* verdicts and summaries can flag the gap.

        No-op when nothing was dropped; re-sealing refreshes the
        terminal record in place instead of appending another. Attached
        taps are *not* notified: a live tap observed every published
        event (including the dropped ones), so its view is complete —
        the terminal record exists for readers of the stored log, whose
        view is not.
        """
        if not self.enabled or not self.dropped:
            return
        data = {"dropped": self.dropped}
        if self._pending and self._pending[-1][0] == "log.truncated":
            self._pending[-1] = ("log.truncated", ts, "", data)
            return
        if not self._pending and self._records and self._records[-1].kind == "log.truncated":
            self._records[-1] = TelemetryEvent("log.truncated", ts, "", data)
            return
        self._pending.append(("log.truncated", ts, "", data))

    # -- streaming subscribers -------------------------------------------
    def attach(self, tap: t.Any) -> t.Any:
        """Subscribe ``tap`` (anything with ``observe(event)``) to the bus.

        Every subsequently published event is forwarded to the tap
        online, even events the storage cap drops. Returns the tap, so
        ``monitor = log.attach(FrameDeadlineMonitor(...))`` reads
        naturally.
        """
        if not hasattr(tap, "observe"):
            raise TypeError(f"tap {tap!r} has no observe(event) method")
        self._taps.append(tap)
        return tap

    def detach(self, tap: t.Any) -> None:
        """Unsubscribe a previously attached tap (no-op if absent)."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    # -- queries ---------------------------------------------------------
    def of_kind(self, kind: str) -> list[TelemetryEvent]:
        """All records with exactly this kind."""
        return [e for e in self.records if e.kind == kind]

    def counts_by_kind(self) -> dict[str, int]:
        """kind -> number of records, sorted by kind (deterministic).

        Reads the lazy buffer directly — summarizing a run must not
        force every buffered event to materialize.
        """
        counts: dict[str, int] = {}
        for event in self._records:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        for kind, _ts, _actor, _data in self._pending:
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def actors(self) -> list[str]:
        """Distinct actors in first-seen order (excluding "")."""
        seen: dict[str, None] = {}
        for event in self._records:
            if event.actor and event.actor not in seen:
                seen[event.actor] = None
        for _kind, _ts, actor, _data in self._pending:
            if actor and actor not in seen:
                seen[actor] = None
        return list(seen)

    def clear(self) -> None:
        """Drop all records (the cap and enabled flag are unchanged)."""
        self._records.clear()
        self._pending.clear()
        self.dropped = 0

    # -- serialization ---------------------------------------------------
    def as_dict(self) -> dict[str, t.Any]:
        """JSON payload that :meth:`from_dict` restores bit-identically."""
        return {
            "enabled": self.enabled,
            "max_events": self.max_events,
            "dropped": self.dropped,
            "records": [e.as_dict() for e in self.records],
        }

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "EventLog":
        """Rebuild a log (records included) from :meth:`as_dict` output."""
        log = cls(
            enabled=payload.get("enabled", True),
            max_events=payload.get("max_events", 1_000_000),
        )
        log.records = [TelemetryEvent.from_dict(r) for r in payload.get("records", [])]
        log.dropped = payload.get("dropped", 0)
        return log

    # -- pickling ---------------------------------------------------------
    # Taps are live-run subscribers (monitors holding arbitrary state);
    # a log shipped home from a worker or a cache payload carries only
    # its records.
    def __getstate__(self) -> tuple:
        return (self.enabled, self.max_events, self.records, self.dropped)

    def __setstate__(self, state: tuple) -> None:
        self.enabled, self.max_events, self.records, self.dropped = state
        self._taps = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<EventLog {state} n={len(self)} dropped={self.dropped}>"


#: Shared always-off log for call sites that want an object, not None.
NULL_LOG = EventLog(enabled=False, max_events=0)


def discharge_curves(
    events: t.Iterable[TelemetryEvent],
) -> dict[str, list[tuple[float, float]]]:
    """node -> [(time_s, charge fraction)] from ``battery.draw`` events.

    Nodes appear in first-sample order, each curve in event order.
    """
    curves: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        if event.kind == "battery.draw":
            curves.setdefault(event.actor, []).append(
                (event.ts, event.data["charge_fraction"])
            )
    return curves
