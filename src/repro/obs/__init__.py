"""Unified telemetry: events, metrics, spans, and exporters.

``repro.obs`` is the zero-dependency observability layer the paper's
methodology implies: Itsy's on-board power monitor and the Figs. 2/3/9
timing diagrams are instrumentation, and this package turns our
reproduction's equivalents into structured, machine-readable data.

- :class:`~repro.obs.events.EventLog` — the structured event bus every
  layer publishes typed records into (behind a near-zero-cost null
  sink).
- :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  mergeable histograms with deterministic aggregation across worker
  processes.
- :class:`~repro.obs.spans.Span` — ``with obs.span("fft", frame=i):``
  wall-clock profiling feeding per-block latency histograms.
- :mod:`~repro.obs.export` — JSONL (bit-identical round trips), CSV
  rows, and Chrome trace-event output loadable in ``chrome://tracing``
  / Perfetto.

:class:`Telemetry` bundles the three collectors behind one handle that
serializes to JSON (so sweep results carry telemetry through worker
pickling and the content-addressed cache) — which is what lifts the
PR-1 restriction that traced runs could be neither cached nor
parallelized.
"""

from __future__ import annotations

import typing as t

from repro.obs.checks import (
    ChargeMonotonicMonitor,
    FrameDeadlineMonitor,
    InvariantMonitor,
    LinkBusyFractionMonitor,
    RecoveryLatencyMonitor,
    RotationBalanceMonitor,
    Verdict,
    check_paper_ordering,
    paper_monitors,
    replay,
)
from repro.obs.causal import (
    FrameTrace,
    FrameSpan,
    build_frame_trace,
    collapsed_stacks,
    explain_frame,
    frame_ids,
    late_frame_ids,
)
from repro.obs.energy import (
    ConservationCheck,
    EnergyLedger,
    LedgerRow,
    verify_conservation,
)
from repro.obs.events import NULL_LOG, EventLog, TelemetryEvent
from repro.obs.flight import (
    FleetSnapshot,
    FlightRecorder,
    ItemRecord,
    journal_to_rows,
    journal_verdicts,
    read_journal,
    write_journal,
)
from repro.obs.export import (
    TelemetryBundle,
    chrome_trace,
    ledger_to_rows,
    metrics_to_rows,
    read_jsonl,
    segments_to_rows,
    write_chrome_trace,
    write_collapsed_stacks,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.progress import (
    ProgressRenderer,
    fleet_timeline_svg,
    format_eta,
    render_snapshot,
)
from repro.obs.report import build_html_report, write_html_report
from repro.obs.spans import Span, SpanRecord
from repro.obs.store import RunRecord, RunRegistry, build_run_record, diff_records

__all__ = [
    "Telemetry",
    "RunRecord",
    "RunRegistry",
    "build_run_record",
    "diff_records",
    "Verdict",
    "InvariantMonitor",
    "FrameDeadlineMonitor",
    "ChargeMonotonicMonitor",
    "LinkBusyFractionMonitor",
    "RotationBalanceMonitor",
    "RecoveryLatencyMonitor",
    "replay",
    "paper_monitors",
    "check_paper_ordering",
    "EventLog",
    "TelemetryEvent",
    "NULL_LOG",
    "EnergyLedger",
    "LedgerRow",
    "ConservationCheck",
    "verify_conservation",
    "FrameTrace",
    "FrameSpan",
    "build_frame_trace",
    "collapsed_stacks",
    "explain_frame",
    "frame_ids",
    "late_frame_ids",
    "FlightRecorder",
    "FleetSnapshot",
    "ItemRecord",
    "journal_to_rows",
    "journal_verdicts",
    "read_journal",
    "write_journal",
    "ProgressRenderer",
    "render_snapshot",
    "format_eta",
    "fleet_timeline_svg",
    "build_html_report",
    "write_html_report",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "SpanRecord",
    "TelemetryBundle",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "segments_to_rows",
    "metrics_to_rows",
    "ledger_to_rows",
    "write_collapsed_stacks",
]


class Telemetry:
    """One run's telemetry: event log + metrics registry + spans.

    Parameters
    ----------
    events:
        ``False`` builds the event log as a null sink (falsy, no-op
        emit) while metrics and spans stay live — the cheap mode for
        long sweeps that only need aggregates.
    max_events:
        Event-log memory bound (see :class:`~repro.obs.events.EventLog`).

    Notes
    -----
    The object is picklable and JSON round-trippable
    (:meth:`as_dict` / :meth:`from_dict`), so a worker process can
    build one, fill it during a simulation, and ship it home inside
    the run result — deterministically, because the event log holds
    simulated time only. Span records hold wall-clock measurements and
    are therefore excluded from determinism comparisons.
    """

    def __init__(self, events: bool = True, max_events: int = 1_000_000):
        self.events = EventLog(enabled=events, max_events=max_events)
        self.metrics = MetricsRegistry()
        self.spans: list[SpanRecord] = []
        #: Energy-attribution ledger (see :mod:`repro.obs.energy`);
        #: filled by the pipeline engine when the event bus is live.
        #: The ``events=False`` null sink skips attribution too: it
        #: makes no per-segment ledger adds, which the tier-1 null-sink
        #: test counts and holds at zero.
        self.energy = EnergyLedger()

    def emit(self, kind: str, ts: float, actor: str = "", **data: t.Any) -> None:
        """Publish one event to the bus (no-op when events are off)."""
        self.events.emit(kind, ts, actor, **data)

    def span(self, name: str, **tags: t.Any) -> Span:
        """A context manager timing one region into ``span.<name>``."""
        return Span(name, tags, self.spans, self.metrics)

    # -- serialization ---------------------------------------------------
    def as_dict(self) -> dict[str, t.Any]:
        """JSON payload; :meth:`from_dict` restores it bit-identically."""
        return {
            "events": self.events.as_dict(),
            "metrics": self.metrics.as_dict(),
            "spans": [span.as_dict() for span in self.spans],
            "energy": self.energy.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "Telemetry":
        obs = cls()
        obs.events = EventLog.from_dict(payload.get("events", {}))
        obs.metrics = MetricsRegistry.from_dict(payload.get("metrics", {}))
        obs.spans = [SpanRecord.from_dict(s) for s in payload.get("spans", [])]
        obs.energy = EnergyLedger.from_dict(payload.get("energy", {}))
        return obs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Telemetry events={len(self.events)} metrics={len(self.metrics)} "
            f"spans={len(self.spans)}>"
        )
