"""The reproduction report: every paper artifact in one HTML document.

``repro report`` renders an experiment suite into a *single file*: no
external assets, no JavaScript, no third-party libraries — just HTML,
inline CSS, hand-rolled SVG and escaped ``<pre>`` text blocks. The file
can be archived as a CI artifact, attached to a paper review, or opened
years later with nothing but a browser, which is the point: the
reproduction's evidence should be as durable as the paper's own figures.

The text blocks are the :mod:`repro.analysis` renderings of the paper's
artifacts: the Fig. 6/7/8 profiles and partitions, the Fig. 2/3/9
timing diagrams (from three short exact traced runs), the Fig. 10
results table and bars, a per-node energy breakdown per pipeline run,
and the analytical design-space ranking (KiBaM cells only).

Charts map to the paper's visual vocabulary:

- **Discharge curves** — state-of-charge vs time per node, rebuilt from
  ``battery.draw`` telemetry events (the paper's Fig. 9 view).
- **Energy attribution bars** — each node's delivered charge split by
  :class:`~repro.obs.energy.EnergyLedger` bucket (Fig. 7's breakdown,
  but measured from the simulation rather than the static profile).
- **Frame-latency histogram** — the ``frame.latency_s`` metrics
  histogram, bucket by bucket.
- **Normalized-lifetime ordering** — Tnorm per experiment, the Fig. 10
  headline (rotation > recovery > DVS-I/O > plain partitioning).

Everything is derived from simulated-time telemetry and rendered with
deterministic float formatting, so two runs of the same suite produce
byte-identical reports — the same property the rest of the
observability stack guarantees.
"""

from __future__ import annotations

import dataclasses
import html
import pathlib
import typing as t

from repro.errors import ConfigurationError
from repro.hw.battery import PAPER_BATTERY, Battery, KiBaM
from repro.obs.energy import verify_conservation
from repro.obs.events import discharge_curves

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.experiments import ExperimentRun
    from repro.obs.metrics import Histogram

__all__ = ["build_html_report", "write_html_report"]

#: Fixed categorical palette (Tableau 10) — assigned by sorted key, so
#: bucket colors are stable across runs and reports.
_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc949", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_CSS = """
body { font-family: Georgia, 'Times New Roman', serif; margin: 2em auto;
       max-width: 62em; color: #1a1a1a; line-height: 1.45; }
h1 { border-bottom: 2px solid #333; padding-bottom: 0.2em; }
h2 { margin-top: 2em; border-bottom: 1px solid #bbb; padding-bottom: 0.15em; }
h3 { margin-top: 1.4em; color: #444; }
table { border-collapse: collapse; margin: 1em 0; font-size: 0.92em; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.7em; text-align: right; }
th { background: #f0f0ec; }
td.l, th.l { text-align: left; }
td.ok { color: #2a7a2a; font-weight: bold; }
td.fail { color: #b02020; font-weight: bold; }
.legend { font-size: 0.85em; margin: 0.3em 0 1em 0; }
.legend span { display: inline-block; margin-right: 1.2em; }
.swatch { display: inline-block; width: 0.9em; height: 0.9em;
          margin-right: 0.3em; vertical-align: -0.1em; }
svg { background: #fcfcfa; border: 1px solid #ddd; margin: 0.5em 0; }
pre { background: #fcfcfa; border: 1px solid #ddd; padding: 0.6em;
      font-size: 0.8em; overflow-x: auto; }
.note { color: #666; font-size: 0.9em; }
"""


def _fmt(value: float | None, nd: int = 3) -> str:
    """Deterministic fixed-point rendering ("-" for missing)."""
    if value is None:
        return "-"
    return f"{value:.{nd}f}"


def _color_map(keys: t.Iterable[str]) -> dict[str, str]:
    """Stable key -> color assignment (sorted order)."""
    return {key: _PALETTE[i % len(_PALETTE)] for i, key in enumerate(sorted(set(keys)))}


def _legend(colors: t.Mapping[str, str]) -> str:
    parts = [
        f'<span><span class="swatch" style="background:{colors[key]}"></span>'
        f"{html.escape(key)}</span>"
        for key in sorted(colors)
    ]
    return f'<div class="legend">{"".join(parts)}</div>'


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------

_W, _H = 640, 260
_ML, _MR, _MT, _MB = 58, 16, 14, 34  # margins: left/right/top/bottom


def _axes(x_label: str, y_label: str, x_ticks: list[tuple[float, str]],
          y_ticks: list[tuple[float, str]]) -> list[str]:
    """Axis lines, tick labels, and axis titles in plot coordinates."""
    out = [
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="#333" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="#333" stroke-width="1"/>',
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 6}" text-anchor="middle" '
        f'font-size="11">{html.escape(x_label)}</text>',
        f'<text x="12" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-size="11" transform="rotate(-90 12 {(_MT + _H - _MB) / 2:.1f})">'
        f"{html.escape(y_label)}</text>",
    ]
    for px, label in x_ticks:
        out.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 14}" text-anchor="middle" '
            f'font-size="10">{html.escape(label)}</text>'
        )
    for py, label in y_ticks:
        out.append(
            f'<text x="{_ML - 5}" y="{py + 3.5:.1f}" text-anchor="end" '
            f'font-size="10">{html.escape(label)}</text>'
        )
    return out


def _svg(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (
        f'<svg viewBox="0 0 {_W} {_H}" width="{_W}" height="{_H}" '
        f'xmlns="http://www.w3.org/2000/svg" role="img">\n{body}\n</svg>'
    )


def _line_chart(
    series: t.Mapping[str, list[tuple[float, float]]],
    x_label: str,
    y_label: str,
    y_max: float | None = None,
) -> str:
    """Multi-series polyline chart (series name -> [(x, y), ...])."""
    points = [p for pts in series.values() for p in pts]
    if not points:
        return '<p class="note">no samples recorded</p>'
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = 0.0
    y_hi = y_max if y_max is not None else max(p[1] for p in points)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x: float) -> float:
        return _ML + (x - x_lo) / x_span * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / y_span * (_H - _MT - _MB)

    colors = _color_map(series)
    parts = _axes(
        x_label, y_label,
        [(px(x_lo), _fmt(x_lo, 1)), (px(x_hi), _fmt(x_hi, 1))],
        [(py(y_lo), _fmt(y_lo, 1)), (py(y_hi), _fmt(y_hi, 1))],
    )
    for name in sorted(series):
        pts = series[name]
        if not pts:
            continue
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{colors[name]}" stroke-width="1.6"/>'
        )
    return _svg(parts) + _legend(colors)


def _stacked_bars(
    rows: t.Mapping[str, t.Mapping[str, float]],
    x_label: str,
) -> str:
    """Horizontal stacked bars (row name -> {segment name -> value})."""
    if not rows or all(not segs for segs in rows.values()):
        return '<p class="note">no attribution recorded</p>'
    total_max = max(sum(segs.values()) for segs in rows.values()) or 1.0
    colors = _color_map(key for segs in rows.values() for key in segs)
    n = len(rows)
    band = (_H - _MT - _MB) / n
    bar_h = min(26.0, band * 0.6)
    parts = _axes(
        x_label, "",
        [(_ML, "0"), (_W - _MR, _fmt(total_max, 2))],
        [],
    )
    for i, name in enumerate(sorted(rows)):
        y = _MT + i * band + (band - bar_h) / 2
        x = float(_ML)
        for key in sorted(rows[name]):
            value = rows[name][key]
            w = value / total_max * (_W - _ML - _MR)
            if w <= 0:
                continue
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
                f'height="{bar_h:.1f}" fill="{colors[key]}">'
                f"<title>{html.escape(f'{name} {key}: {value:.4f}')}</title></rect>"
            )
            x += w
        parts.append(
            f'<text x="{_ML - 5}" y="{y + bar_h / 2 + 3.5:.1f}" text-anchor="end" '
            f'font-size="10">{html.escape(name)}</text>'
        )
    return _svg(parts) + _legend(colors)


def _histogram_chart(hist: "Histogram", x_label: str) -> str:
    """Vertical bars over a metrics histogram's power-of-two buckets."""
    if not hist.count:
        return '<p class="note">no samples recorded</p>'
    indexes = sorted(hist.buckets)
    peak = max(hist.buckets.values())
    n = len(indexes)
    band = (_W - _ML - _MR) / n
    bar_w = band * 0.8
    parts = _axes(
        x_label, "frames",
        [], [(float(_H - _MB), "0"), (float(_MT), str(peak))],
    )
    for i, index in enumerate(indexes):
        count = hist.buckets[index]
        h = count / peak * (_H - _MT - _MB)
        x = _ML + i * band + (band - bar_w) / 2
        upper = hist.bucket_upper_bound(index)
        label = "<=0" if index < 0 else f"{upper:.3g}"
        parts.append(
            f'<rect x="{x:.1f}" y="{_H - _MB - h:.1f}" width="{bar_w:.1f}" '
            f'height="{h:.1f}" fill="{_PALETTE[0]}">'
            f"<title>{html.escape(f'<= {label}: {count}')}</title></rect>"
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{_H - _MB + 14}" '
            f'text-anchor="middle" font-size="9">{html.escape(label)}</text>'
        )
    return _svg(parts)


def _ordering_chart(tnorms: t.Mapping[str, float]) -> str:
    """Horizontal Tnorm bars in descending order (the Fig. 10 view)."""
    if not tnorms:
        return '<p class="note">no runs</p>'
    peak = max(tnorms.values()) or 1.0
    ordered = sorted(tnorms.items(), key=lambda kv: (-kv[1], kv[0]))
    n = len(ordered)
    band = (_H - _MT - _MB) / n
    bar_h = min(24.0, band * 0.65)
    parts = _axes("normalized lifetime Tnorm (hours)", "",
                  [(_ML, "0"), (_W - _MR, _fmt(peak, 2))], [])
    for i, (label, tnorm) in enumerate(ordered):
        y = _MT + i * band + (band - bar_h) / 2
        w = tnorm / peak * (_W - _ML - _MR)
        parts.append(
            f'<rect x="{_ML}" y="{y:.1f}" width="{w:.1f}" height="{bar_h:.1f}" '
            f'fill="{_PALETTE[i % len(_PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{_ML - 5}" y="{y + bar_h / 2 + 3.5:.1f}" text-anchor="end" '
            f'font-size="11">{html.escape(label)}</text>'
        )
        parts.append(
            f'<text x="{_ML + w + 4:.1f}" y="{y + bar_h / 2 + 3.5:.1f}" '
            f'font-size="10">{_fmt(tnorm, 2)}h</text>'
        )
    return _svg(parts)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _discharge_series(run: "ExperimentRun") -> dict[str, list[tuple[float, float]]]:
    """node -> [(hours, charge fraction)] from battery.draw events."""
    if run.obs is None or not run.obs.events:
        return {}
    return {
        node: [(ts / 3600.0, fraction) for ts, fraction in curve]
        for node, curve in discharge_curves(run.obs.events).items()
    }


def _latency_histogram(run: "ExperimentRun") -> "Histogram | None":
    if run.obs is None:
        return None
    for hist in run.obs.metrics.histograms:
        if hist.name == "frame.latency_s" and hist.count:
            return hist
    return None


def _summary_table(runs: t.Sequence["ExperimentRun"]) -> str:
    head = (
        "<tr><th class='l'>label</th><th class='l'>description</th>"
        "<th>frames</th><th>T (h)</th><th>paper T (h)</th><th>Tnorm (h)</th>"
        "<th>nodes</th><th>events truncated</th></tr>"
    )
    body = []
    for run in runs:
        truncated = 0
        if run.obs is not None and run.obs.events:
            truncated = run.obs.events.dropped
        paper = run.spec.paper
        body.append(
            f"<tr><td class='l'>{html.escape(run.spec.label)}</td>"
            f"<td class='l'>{html.escape(run.spec.description)}</td>"
            f"<td>{run.frames}</td><td>{_fmt(run.t_hours, 2)}</td>"
            f"<td>{_fmt(paper.t_hours if paper else None, 2)}</td>"
            f"<td>{_fmt(run.t_hours / run.spec.n_nodes, 2)}</td>"
            f"<td>{run.spec.n_nodes}</td>"
            f"<td>{truncated if truncated else '-'}</td></tr>"
        )
    return f"<table>{head}{''.join(body)}</table>"


def _conservation_table(runs: t.Sequence["ExperimentRun"]) -> str:
    rows = []
    for run in runs:
        if run.obs is None or not len(run.obs.energy):
            continue
        delivered = (
            run.pipeline.delivered_mah if run.pipeline is not None else None
        )
        if not delivered:
            continue
        for check in verify_conservation(run.obs.energy, delivered):
            cls = "ok" if check.ok else "fail"
            verdict = "ok" if check.ok else "FAIL"
            rows.append(
                f"<tr><td class='l'>{html.escape(run.spec.label)}</td>"
                f"<td class='l'>{html.escape(check.node)}</td>"
                f"<td>{_fmt(check.ledger_mah, 6)}</td>"
                f"<td>{_fmt(check.delivered_mah, 6)}</td>"
                f"<td>{check.rel_error:.2e}</td>"
                f"<td class='{cls}'>{verdict}</td></tr>"
            )
    if not rows:
        return '<p class="note">no energy ledgers recorded (telemetry off?)</p>'
    head = (
        "<tr><th class='l'>run</th><th class='l'>node</th><th>ledger (mAh)</th>"
        "<th>delivered (mAh)</th><th>rel error</th><th>conserved</th></tr>"
    )
    return f"<table>{head}{''.join(rows)}</table>"


def _run_section(run: "ExperimentRun") -> str:
    parts = [
        f'<h2 id="run-{html.escape(run.spec.label, quote=True)}">'
        f"Experiment {html.escape(run.spec.label)}</h2>",
        f"<p>{html.escape(run.spec.description)} &mdash; "
        f"{run.frames} frames, lifetime {_fmt(run.t_hours, 2)}h.</p>",
    ]
    discharge = _discharge_series(run)
    if discharge:
        parts.append("<h3>Battery discharge</h3>")
        parts.append(
            _line_chart(discharge, "time (hours)", "charge fraction", y_max=1.0)
        )
    if run.obs is not None and len(run.obs.energy):
        rows = {
            node: {
                f"{row.mode}/{row.bucket}": row.charge_mah
                for row in run.obs.energy.rows()
                if row.node == node
            }
            for node in run.obs.energy.node_totals_mah()
        }
        parts.append("<h3>Energy attribution</h3>")
        parts.append(_stacked_bars(rows, "attributed charge (mAh)"))
    if run.pipeline is not None:
        from repro.analysis.energy import render_energy_breakdown

        try:
            breakdown = render_energy_breakdown(run.pipeline)
        except ConfigurationError:  # run recorded without telemetry
            pass
        else:
            parts.append("<h3>Energy breakdown</h3>")
            parts.append(_pre(breakdown))
    hist = _latency_histogram(run)
    if hist is not None:
        parts.append("<h3>Frame latency</h3>")
        parts.append(_histogram_chart(hist, "end-to-end latency bucket (s)"))
    if run.obs is not None and run.obs.events and run.obs.events.dropped:
        parts.append(
            f'<p class="note">event log truncated: '
            f"{run.obs.events.dropped} events dropped past the storage cap "
            "&mdash; streams below the cap are complete, verdicts over this "
            "log are inconclusive.</p>"
        )
    return "\n".join(parts)


def _pre(text: str) -> str:
    """An escaped plain-text block (an ASCII table or diagram)."""
    return f"<pre>{html.escape(text)}</pre>"


#: The timing diagrams: (title, experiment, frames, rotation period
#: override). Each is a short exact traced run of its own.
_SCHEDULES = (
    ("Fig. 2 — single-node schedule", "1", 4, None),
    ("Fig. 3 — two-node pipelined schedule", "2", 6, None),
    ("Fig. 9 — node rotation (short period for visibility)", "2C", 18, 6),
)


def _schedule(
    label: str,
    frames: int,
    rotation_period: int | None,
    battery_factory: t.Callable[[], Battery],
) -> str:
    """ASCII Gantt chart of ``frames`` exact frames of one experiment."""
    from repro.analysis.gantt import render_gantt
    from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
    from repro.sim import TraceRecorder

    spec = PAPER_EXPERIMENTS[label]
    if rotation_period is not None:
        spec = dataclasses.replace(spec, rotation_period=rotation_period)
    trace = TraceRecorder()
    run_experiment(
        spec, battery_factory=battery_factory, trace=trace, max_frames=frames
    )
    return render_gantt(
        trace, end_s=frames * spec.deadline_s, width=96,
        deadline_s=spec.deadline_s,
    )


def _design_space(battery_factory: t.Callable[[], Battery]) -> str | None:
    """Top of the analytical design-space ranking (None unless KiBaM)."""
    from repro.analysis.tables import format_table
    from repro.apps.atr.profile import PAPER_PROFILE
    from repro.core.optimizer import optimize_configuration

    probe = battery_factory()
    if not isinstance(probe, KiBaM):
        return None  # the analytical ranking is defined for KiBaM cells
    ranked = optimize_configuration(
        PAPER_PROFILE, max_stages=3, battery=probe.params
    )
    return format_table([
        {
            "rank": i + 1,
            "configuration": c.description,
            "N": c.n_stages,
            "T_hours": round(c.lifetime_hours, 2),
            "Tnorm_hours": round(c.normalized_hours, 2),
        }
        for i, c in enumerate(ranked[:8])
    ])


def _paper_figures(
    by_label: dict[str, "ExperimentRun"],
    battery_factory: t.Callable[[], Battery],
) -> list[str]:
    """The paper's figures as text blocks, Fig. 10 with its SVG chart."""
    from repro.analysis.figures import (
        figure6_performance_profile,
        figure7_power_profile,
        figure8_partitioning,
        figure10_results,
    )

    blocks = [
        ("Fig. 6 — ATR performance profile", figure6_performance_profile().text),
        ("Fig. 7 — power profile", figure7_power_profile().text),
        ("Fig. 8 — partitioning schemes", figure8_partitioning().text),
        *(
            (title, _schedule(label, frames, period, battery_factory))
            for title, label, frames, period in _SCHEDULES
        ),
    ]
    sections = [f"<h2>{html.escape(title)}</h2>\n{_pre(text)}"
                for title, text in blocks]
    tnorms = {
        label: run.t_hours / run.spec.n_nodes
        for label, run in by_label.items()
        if run.spec.io_enabled
    }
    sections.append("<h2>Fig. 10 — experiment results</h2>")
    if tnorms:
        sections.append(_pre(figure10_results(by_label).text))
    sections.append("<h3>Normalized lifetime ordering</h3>")
    sections.append(_ordering_chart(tnorms))
    ranking = _design_space(battery_factory)
    if ranking is not None:
        sections.append("<h2>Design-space ranking (analytical predictor)</h2>")
        sections.append(_pre(ranking))
    return sections


def build_html_report(
    runs: t.Mapping[str, "ExperimentRun"] | t.Sequence["ExperimentRun"],
    *,
    title: str = "Low-power distributed ATR — reproduction report",
    journal: t.Sequence[t.Mapping[str, t.Any]] | None = None,
    battery_factory: t.Callable[[], Battery] = PAPER_BATTERY,
) -> str:
    """Render an experiment suite as one self-contained HTML document.

    ``runs`` is the :func:`~repro.core.experiments.run_paper_suite`
    mapping (or any sequence of runs). The output embeds every chart as
    inline SVG and every text figure as an escaped ``<pre>`` block, and
    references no external resources. ``battery_factory`` supplies the
    cells of the Fig. 2/3/9 timing-diagram runs and the battery
    parameters of the design-space ranking; pass the one the suite ran
    with.

    ``journal`` optionally adds a fleet timeline track from flight-
    recorder journal rows (full/telemetry form). It is opt-in because
    the timeline draws wall-clock measurement, while the default report
    is pure content and byte-identical across execution modes (CI
    compares replayed reports with ``cmp``).
    """
    ordered = list(runs.values()) if isinstance(runs, t.Mapping) else list(runs)
    sections = [
        f"<h1>{html.escape(title)}</h1>",
        "<p>Generated by <code>python -m repro report</code>. Static "
        "figures derive from the paper's parameters; experiment results "
        "are simulated on the calibrated battery model. See "
        "EXPERIMENTS.md for methodology and expected deviations.</p>",
        "<h2>Suite summary</h2>",
        _summary_table(ordered),
        *_paper_figures({run.spec.label: run for run in ordered},
                        battery_factory),
        "<h2>Energy conservation</h2>",
        "<p>Every node's attributed charge (energy ledger) against its "
        "battery's delivered total; the invariant requires agreement "
        "within 1e-6 relative tolerance.</p>",
        _conservation_table(ordered),
    ]
    sections.extend(_run_section(run) for run in ordered)
    if journal is not None:
        from repro.obs.progress import fleet_timeline_svg

        executed = [r for r in journal if r.get("status") == "executed"]
        hits = [r for r in journal if r.get("status") == "cache_hit"]
        failed = [r for r in journal if r.get("outcome") == "failed"]
        sections.append("<h2>Fleet timeline</h2>")
        sections.append(
            f"<p>{len(journal)} journaled item(s): {len(executed)} executed, "
            f"{len(hits)} cache hit(s), {len(failed)} failed. Spans are "
            "wall-clock offsets from the sweep start, one lane per "
            "worker; hover an item for wall/CPU/RSS detail.</p>"
        )
        sections.append(fleet_timeline_svg(list(journal)))
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        f"</head>\n<body>\n{body}\n</body></html>\n"
    )


def write_html_report(
    path: str | pathlib.Path,
    runs: t.Mapping[str, "ExperimentRun"] | t.Sequence["ExperimentRun"],
    *,
    title: str = "Low-power distributed ATR — reproduction report",
    journal: t.Sequence[t.Mapping[str, t.Any]] | None = None,
    battery_factory: t.Callable[[], Battery] = PAPER_BATTERY,
) -> pathlib.Path:
    """Write :func:`build_html_report` output to ``path``."""
    path = pathlib.Path(path)
    path.write_text(
        build_html_report(
            runs, title=title, journal=journal, battery_factory=battery_factory
        ),
        encoding="utf-8",
    )
    return path
