"""Exporters: telemetry JSONL, flat rows (CSV/JSON/LaTeX), Chrome traces.

Three machine-readable formats:

- **JSONL** — one tagged JSON object per line (``{"type": "segment",
  ...}``), covering trace segments, events, the metrics registry and
  the energy ledger. :func:`read_jsonl` reloads the file into the
  original typed objects *bit-identically* (Python's ``json`` emits
  shortest round-tripping float literals, so every ``float`` survives).
- **Flat rows** — dict rows (the ``*_to_rows`` builders, the figure
  generators' rows, the CLI's ``--export`` tables) serialized to CSV,
  JSON or LaTeX by :func:`write_rows`.
- **Chrome trace-event format** — loadable in ``chrome://tracing`` and
  Perfetto. Nodes render as tracks (one ``tid`` per actor) under the
  "simulation" process; activity segments become duration slices,
  telemetry events become instants, and ``battery.draw`` samples
  become counter tracks, reproducing the paper's Fig. 2/3/9
  timing-vs-power view interactively.

Every view is in simulated time, so each export is a pure function of
the run's configuration. The execution journal (wall clock) has its own
exporter, :func:`repro.obs.flight.write_journal`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import pathlib
import typing as t

from repro.obs.energy import EnergyLedger
from repro.obs.events import EventLog, TelemetryEvent, discharge_curves
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import Segment, TraceRecorder

__all__ = [
    "TelemetryBundle",
    "write_jsonl",
    "read_jsonl",
    "segments_to_rows",
    "events_to_rows",
    "metrics_to_rows",
    "ledger_to_rows",
    "rows_to_csv",
    "rows_to_json",
    "rows_to_latex",
    "write_rows",
    "write_collapsed_stacks",
    "SEGMENT_COLUMNS",
    "EVENT_COLUMNS",
    "METRIC_COLUMNS",
    "LEDGER_COLUMNS",
    "chrome_trace",
    "write_chrome_trace",
]

_US = 1e6  # trace-event timestamps are microseconds


@dataclasses.dataclass
class TelemetryBundle:
    """Typed contents of one JSONL telemetry file.

    Attributes
    ----------
    segments:
        Activity-trace segments, in file order.
    events:
        Structured telemetry events (``battery.draw`` discharge
        samples included), in file order.
    metrics:
        The metrics registry, if one was written.
    energy:
        The energy-attribution ledger, if one was written.
    """

    segments: list[Segment] = dataclasses.field(default_factory=list)
    events: list[TelemetryEvent] = dataclasses.field(default_factory=list)
    metrics: MetricsRegistry | None = None
    energy: EnergyLedger | None = None


def _jsonl_records(
    trace: TraceRecorder | None,
    events: EventLog | None,
    metrics: MetricsRegistry | None,
    energy: EnergyLedger | None,
) -> t.Iterator[dict[str, t.Any]]:
    if trace is not None:
        for segment in trace.all_segments():
            yield {"type": "segment", **segment.as_dict()}
    if events is not None:
        for event in events.stream():
            yield {"type": "event", **event.as_dict()}
    if metrics is not None:
        yield {"type": "metrics", **metrics.as_dict()}
    if energy is not None and energy:
        yield {"type": "energy_ledger", **energy.as_dict()}


def write_jsonl(
    path: str | pathlib.Path,
    *,
    trace: TraceRecorder | None = None,
    events: EventLog | None = None,
    metrics: MetricsRegistry | None = None,
    energy: EnergyLedger | None = None,
) -> pathlib.Path:
    """Write any subset of a run's telemetry as tagged JSONL lines."""
    path = pathlib.Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for record in _jsonl_records(trace, events, metrics, energy):
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
    return path


def read_jsonl(path: str | pathlib.Path) -> TelemetryBundle:
    """Reload a :func:`write_jsonl` file into typed objects.

    Raises
    ------
    ValueError
        On an unknown record type — a silent skip would hide data loss.
    """
    bundle = TelemetryBundle()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("type", None)
            if kind == "segment":
                bundle.segments.append(Segment.from_dict(record))
            elif kind == "event":
                bundle.events.append(TelemetryEvent.from_dict(record))
            elif kind == "metrics":
                bundle.metrics = MetricsRegistry.from_dict(record)
            elif kind == "energy_ledger":
                bundle.energy = EnergyLedger.from_dict(record)
            else:
                raise ValueError(f"unknown telemetry record type: {kind!r}")
    return bundle


# ---------------------------------------------------------------------------
# flat rows and their CSV/JSON/LaTeX serializers
# ---------------------------------------------------------------------------

#: Column orders for the flat-row views below. CSV exporters pass
#: these explicitly so an *empty* run (zero segments / zero events)
#: still writes a header-only file rather than an empty one.
SEGMENT_COLUMNS = (
    "actor", "start", "end", "activity", "frequency_mhz", "current_ma", "detail",
)
EVENT_COLUMNS = ("kind", "ts", "actor", "data")
METRIC_COLUMNS = ("metric", "kind", "value")
LEDGER_COLUMNS = ("node", "mode", "bucket", "charge_mas", "charge_mah", "time_s")


def segments_to_rows(trace: TraceRecorder) -> list[dict[str, t.Any]]:
    """Trace segments as flat dict rows (:data:`SEGMENT_COLUMNS`)."""
    return [segment.as_dict() for segment in trace.all_segments()]


def events_to_rows(events: EventLog) -> list[dict[str, t.Any]]:
    """Telemetry events as flat dict rows (:data:`EVENT_COLUMNS`).

    The per-kind payload is heterogeneous, so it lands in one ``data``
    column as compact JSON rather than exploding into sparse columns.
    """
    return [
        {
            "kind": event.kind,
            "ts": event.ts,
            "actor": event.actor,
            "data": json.dumps(event.data, sort_keys=True, separators=(",", ":")),
        }
        for event in events
    ]


def metrics_to_rows(metrics: MetricsRegistry) -> list[dict[str, t.Any]]:
    """Registry contents as flat table rows (:data:`METRIC_COLUMNS`)."""
    return metrics.as_rows()


def ledger_to_rows(energy: EnergyLedger) -> list[dict[str, t.Any]]:
    """Energy-attribution buckets as flat rows (:data:`LEDGER_COLUMNS`).

    One row per ``(node, mode, bucket)`` triple, sorted — the CSV twin
    of the ledger's JSONL record, with the mAh conversion precomputed
    so spreadsheets line up against the paper's battery units directly.
    """
    return [
        {
            "node": row.node,
            "mode": row.mode,
            "bucket": row.bucket,
            "charge_mas": row.charge_mas,
            "charge_mah": row.charge_mah,
            "time_s": row.time_s,
        }
        for row in energy.rows()
    ]


def rows_to_csv(rows: t.Sequence[t.Mapping[str, t.Any]], columns: t.Sequence[str] | None = None) -> str:
    """Serialize dict rows to CSV text (header included).

    With explicit ``columns``, zero rows still produce the header line
    — an exported file from an empty run (e.g. a zero-event telemetry
    log) stays parseable instead of being empty. Without ``columns``
    there is nothing to name, so zero rows yield an empty string.
    """
    if not rows and columns is None:
        return ""
    columns = list(columns) if columns is not None else list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k) for k in columns})
    return buf.getvalue()


def rows_to_json(rows: t.Sequence[t.Mapping[str, t.Any]], indent: int = 2) -> str:
    """Serialize dict rows to a JSON array."""
    return json.dumps([dict(r) for r in rows], indent=indent, default=_coerce)


_LATEX_ESCAPES = {
    "&": r"\&",
    "%": r"\%",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
}


def _latex_cell(value: t.Any, float_fmt: str) -> str:
    if value is None:
        return "--"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_fmt)
    text = str(value)
    for char, escape in _LATEX_ESCAPES.items():
        text = text.replace(char, escape)
    return text


def rows_to_latex(
    rows: t.Sequence[t.Mapping[str, t.Any]],
    columns: t.Sequence[str] | None = None,
    headers: t.Mapping[str, str] | None = None,
    float_fmt: str = ".2f",
    caption: str | None = None,
    label: str | None = None,
) -> str:
    """Serialize dict rows to a LaTeX ``tabular`` (optionally in a table env).

    The figure generators' structured rows drop straight into a paper:

    >>> print(rows_to_latex([{"exp": "2C", "T": 19.58}]))  # doctest: +SKIP
    """
    if not rows:
        return "% (no rows)\n"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    headers = dict(headers or {})
    lines = []
    if caption is not None or label is not None:
        lines.append("\\begin{table}[t]")
        lines.append("\\centering")
    lines.append("\\begin{tabular}{" + "l" * len(columns) + "}")
    lines.append("\\toprule")
    lines.append(
        " & ".join(_latex_cell(headers.get(c, c), float_fmt) for c in columns)
        + " \\\\"
    )
    lines.append("\\midrule")
    for row in rows:
        lines.append(
            " & ".join(_latex_cell(row.get(c), float_fmt) for c in columns)
            + " \\\\"
        )
    lines.append("\\bottomrule")
    lines.append("\\end{tabular}")
    if caption is not None:
        lines.append(f"\\caption{{{caption}}}")
    if label is not None:
        lines.append(f"\\label{{{label}}}")
    if caption is not None or label is not None:
        lines.append("\\end{table}")
    return "\n".join(lines) + "\n"


def write_rows(
    rows: t.Sequence[t.Mapping[str, t.Any]],
    path: str | pathlib.Path,
    columns: t.Sequence[str] | None = None,
) -> pathlib.Path:
    """Write rows to ``path``; format chosen by suffix (.csv/.json/.tex)."""
    path = pathlib.Path(path)
    if path.suffix == ".csv":
        path.write_text(rows_to_csv(rows, columns))
    elif path.suffix == ".json":
        path.write_text(rows_to_json(rows))
    elif path.suffix == ".tex":
        path.write_text(rows_to_latex(rows, columns))
    else:
        raise ValueError(
            f"unsupported export suffix {path.suffix!r} (use .csv, .json or .tex)"
        )
    return path


def _coerce(obj: t.Any) -> t.Any:
    """JSON fallback for numpy scalars and similar."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def write_collapsed_stacks(
    path: str | pathlib.Path, lines: t.Iterable[str]
) -> pathlib.Path:
    """Write collapsed-stack (flamegraph) lines, one per stack.

    Takes the output of :func:`repro.obs.causal.collapsed_stacks`; the
    resulting file loads directly in ``flamegraph.pl`` or speedscope.
    """
    path = pathlib.Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------

def _track_ids(
    trace: TraceRecorder | None, events: EventLog | None
) -> dict[str, int]:
    """actor -> tid, first-seen order across trace then events."""
    tids: dict[str, int] = {}
    if trace is not None:
        for actor in trace.actors:
            tids.setdefault(actor, len(tids))
    if events is not None:
        for actor in events.actors():
            tids.setdefault(actor, len(tids))
    return tids


def chrome_trace(
    *,
    trace: TraceRecorder | None = None,
    events: EventLog | None = None,
    label: str = "repro",
) -> dict[str, t.Any]:
    """Build a Chrome trace-event JSON object from run telemetry.

    Process 0 ("simulation") holds one track per actor: activity
    segments as complete ("X") slices, telemetry events as instants
    ("i"), and ``battery.draw`` state-of-charge samples additionally as
    counter ("C") series.
    """
    out: list[dict[str, t.Any]] = []
    tids = _track_ids(trace, events)

    out.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"{label} simulation"},
        }
    )
    for actor, tid in tids.items():
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": actor},
            }
        )

    if trace is not None:
        for segment in trace.all_segments():
            out.append(
                {
                    "name": segment.activity,
                    "cat": "activity",
                    "ph": "X",
                    "ts": segment.start * _US,
                    "dur": segment.duration * _US,
                    "pid": 0,
                    "tid": tids[segment.actor],
                    "args": {
                        "frequency_mhz": segment.frequency_mhz,
                        "current_ma": segment.current_ma,
                        "detail": segment.detail,
                    },
                }
            )

    if events is not None:
        for event in events:
            out.append(
                {
                    "name": event.kind,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": event.ts * _US,
                    "pid": 0,
                    "tid": tids.get(event.actor, 0),
                    "args": dict(event.data),
                }
            )

        curves = discharge_curves(events)
        for node in sorted(curves):
            for ts, fraction in curves[node]:
                out.append(
                    {
                        "name": f"charge {node}",
                        "cat": "battery",
                        "ph": "C",
                        "ts": ts * _US,
                        "pid": 0,
                        "tid": tids.get(node, 0),
                        "args": {"fraction": fraction},
                    }
                )

    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | pathlib.Path,
    *,
    trace: TraceRecorder | None = None,
    events: EventLog | None = None,
    label: str = "repro",
) -> pathlib.Path:
    """Write :func:`chrome_trace` output as a ``chrome://tracing`` file."""
    path = pathlib.Path(path)
    payload = chrome_trace(trace=trace, events=events, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        # One-shot dumps runs the C encoder; json.dump streams through
        # the pure-Python one, about 3x slower on a long trace, with the
        # same text.
        fh.write(json.dumps(payload, separators=(",", ":")))
        fh.write("\n")
    return path
