"""Command-line interface.

Exposes the reproduction as a set of subcommands::

    python -m repro run 1A 2C          # run experiments, print metrics
    python -m repro suite              # the full eight-experiment suite
    python -m repro figures fig8       # regenerate a paper figure
    python -m repro partition          # partitioning analysis (Fig. 8)
    python -m repro optimize           # rank the whole design space
    python -m repro explore            # 100k-config halving -> frontier
    python -m repro sweep --grid 10    # 10k-config sensitivity sweep
    python -m repro trace 2 --frames 6 # timing diagram (Figs. 2/3/9)
    python -m repro trace 2 --export chrome -o out.json  # Perfetto trace
    python -m repro metrics 1A 2A      # telemetry metrics per experiment
    python -m repro runs list          # the persistent run registry
    python -m repro runs diff A B      # per-metric deltas between runs
    python -m repro runs gc --keep-last 100   # trim the registry
    python -m repro cache info         # result-cache size per salt
    python -m repro check 2B           # invariant monitors over a run
    python -m repro check --paper      # assert the Fig. 10 ordering
    python -m repro check --fleet      # fleet health from the exec journal
    python -m repro top                # attach to a running sweep (live)
    python -m repro report             # every paper figure in one HTML file
    python -m repro calibrate          # re-run the model calibration
    python -m repro profile --frames 8 # time the real ATR blocks (Fig. 6)

All output is plain text (``repro report`` writes one HTML file);
``--export PATH`` writes the structured rows to a ``.csv`` or ``.json``
file (``repro trace --export`` instead picks a ``chrome``, ``jsonl`` or
``csv`` telemetry export).

Every experiment runs on the paper's battery and simulates every
event, as ``run_experiment`` does. ``--fast`` (on ``run``, ``suite``,
``figures fig10``, ``metrics``, ``check``, ``report`` and ``explain
energy``) fast-forwards steady-state epochs analytically instead:
frame counts are identical to the exact run's.

Experiment-running commands register their outcomes in the run
registry (``.repro-runs.sqlite``; override with ``--db`` or the
``REPRO_RUNS_DB`` environment variable, disable with
``--no-registry``); ``repro runs`` queries it and ``repro runs reset``
clears it.

``run``, ``suite``, ``sweep`` and ``explore`` take
``--progress`` (live in-place fleet dashboard) and ``--journal PATH``
(canonical item-level execution journal, byte-identical across serial,
``--jobs N`` and cache replay); ``repro top`` attaches to the progress
plane of a sweep started elsewhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing as t

from repro.analysis.figures import (
    figure6_performance_profile,
    figure7_power_profile,
    figure8_partitioning,
    figure10_results,
)
from repro.analysis.gantt import render_gantt
from repro.analysis.tables import format_table
from repro.core.experiments import (
    PAPER_EXPERIMENTS,
    run_paper_suite,
    summarize_runs,
)
from repro.errors import ReproError
from repro.obs.export import write_rows

__all__ = ["main", "build_parser"]


def _registry(args: argparse.Namespace) -> t.Any:
    """The run registry selected by CLI flags (None when disabled)."""
    if getattr(args, "no_registry", False):
        return None
    from repro.obs.store import DEFAULT_DB, RunRegistry

    path = getattr(args, "db", None) or os.environ.get("REPRO_RUNS_DB") or DEFAULT_DB
    return RunRegistry(path)


def _mode(args: argparse.Namespace) -> str:
    """Simulation mode from CLI flags: exact unless --fast."""
    return "fast" if args.fast else "exact"


def _cache(args: argparse.Namespace) -> t.Any:
    """The default result cache, or ``None`` under ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.exec import ResultCache

    return ResultCache()


def _sweep_kwargs(args: argparse.Namespace) -> dict[str, t.Any]:
    """jobs/cache/registry settings for run_paper_suite from CLI flags."""
    return {
        "jobs": getattr(args, "jobs", 1),
        "cache": _cache(args),
        "registry": _registry(args),
    }


def _flight(args: argparse.Namespace, label: str) -> tuple[t.Any, t.Any]:
    """Build the flight recorder + live renderer requested by CLI flags.

    Returns ``(None, None)`` unless ``--progress`` or ``--journal`` was
    given, keeping the default execution path recorder-free (and inside
    the null-sink overhead budget). The recorder persists its journal
    and progress snapshots into the run registry (unless
    ``--no-registry``), which is the plane ``repro top`` attaches to.
    """
    if not getattr(args, "progress", False) and not getattr(args, "journal", None):
        return None, None
    from repro.obs.flight import FlightRecorder
    from repro.obs.progress import ProgressRenderer

    renderer = ProgressRenderer() if getattr(args, "progress", False) else None
    flight = FlightRecorder(
        label=label, registry=_registry(args), progress=renderer
    )
    return flight, renderer


def _finish_flight(
    flight: t.Any, renderer: t.Any, args: argparse.Namespace
) -> None:
    """Flush the recorder, close the live view, export the journal."""
    if flight is None:
        return
    flight.finish()
    if renderer is not None:
        renderer.close()
    journal_path = getattr(args, "journal", None)
    if journal_path:
        path = flight.export_journal(journal_path)
        print(f"wrote journal {path} ({len(flight.records)} record(s), "
              "canonical content rows)")


def _print_pipeline_diagnostics(runs: dict[str, t.Any]) -> None:
    """Substrate counters for the pipeline runs (suite output)."""
    rows = []
    for label in runs:
        p = runs[label].pipeline
        if p is None:
            continue
        rows.append(
            {
                "label": label,
                "events": p.events_processed,
                "link_tx": p.total_link_transactions,
                "link_MB": p.total_link_bytes / 1e6,
                "stalls": sum(p.stage_stalls.values()),
                "level_switches": sum(p.level_switches.values()),
            }
        )
    if rows:
        print()
        print(format_table(rows, float_fmt=".1f", title="pipeline diagnostics"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    labels = args.labels or ["1", "1A", "2", "2C"]
    unknown = [lb for lb in labels if lb not in PAPER_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment labels: {unknown}", file=sys.stderr)
        print(f"available: {', '.join(PAPER_EXPERIMENTS)}", file=sys.stderr)
        return 2
    sweep = _sweep_kwargs(args)
    flight, renderer = _flight(args, "suite")
    runs = run_paper_suite(labels, mode=_mode(args), flight=flight, **sweep)
    _finish_flight(flight, renderer, args)
    rows = []
    for m in summarize_runs(runs):
        paper = runs[m.label].spec.paper
        rows.append(
            {
                **m.as_row(),
                "paper_T_hours": paper.t_hours if paper else None,
            }
        )
    print(format_table(rows, title="experiment results"))
    _print_pipeline_diagnostics(runs)
    cache = sweep["cache"]
    if cache is not None and (cache.hits or cache.misses):
        print(f"\ncache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"under {cache.root} (disable with --no-cache)")
    if args.export:
        path = write_rows(rows, args.export)
        print(f"\nwrote {path}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    args.labels = list(PAPER_EXPERIMENTS)
    return _cmd_run(args)


def _cmd_figures(args: argparse.Namespace) -> int:
    generators = {
        "fig6": lambda: figure6_performance_profile(),
        "fig7": lambda: figure7_power_profile(),
        "fig8": lambda: figure8_partitioning(),
    }
    which = args.figure
    if which in generators:
        fig = generators[which]()
        print(fig.text)
        if args.export:
            print(f"\nwrote {write_rows(list(fig.rows), args.export)}")
        return 0
    if which == "fig10":
        runs = run_paper_suite(mode=_mode(args), **_sweep_kwargs(args))
        fig = figure10_results(runs)
        print(fig.text)
        if args.export:
            print(f"\nwrote {write_rows(list(fig.rows), args.export)}")
        return 0
    print(f"unknown figure {which!r}; use fig6, fig7, fig8 or fig10", file=sys.stderr)
    return 2


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.apps.atr.profile import PAPER_PROFILE
    from repro.core.partitioning import analyze_partitions, select_best
    from repro.errors import InfeasiblePartitionError
    from repro.hw.dvs import SA1100_TABLE
    from repro.hw.link import TransactionTiming

    timing = TransactionTiming(
        bandwidth_bps=args.bandwidth_kbps * 1000.0, startup_s=0.09
    )
    analyses = analyze_partitions(
        PAPER_PROFILE, args.stages, timing, args.deadline, SA1100_TABLE
    )
    rows = [a.as_row() for a in analyses]
    print(
        format_table(
            rows,
            float_fmt=".1f",
            title=(
                f"{args.stages}-way partitions, D = {args.deadline} s, "
                f"{args.bandwidth_kbps:g} Kbps"
            ),
        )
    )
    try:
        best = select_best(analyses)
        print(f"\nselected (energy criterion): {best.partition.describe()}")
    except InfeasiblePartitionError:
        print("\nno feasible scheme at these parameters")
    if args.export:
        print(f"\nwrote {write_rows(rows, args.export)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.experiments import run_experiment

    label = args.label
    if label not in PAPER_EXPERIMENTS:
        print(f"unknown experiment {label!r}", file=sys.stderr)
        return 2
    spec = PAPER_EXPERIMENTS[label]
    if not spec.io_enabled:
        print(f"experiment {label} has no pipeline to trace", file=sys.stderr)
        return 2
    if label == "2C":
        # A paper-period rotation would need >100 frames to show; use a
        # short period so the transition is visible in a small trace.
        spec = dataclasses.replace(spec, rotation_period=max(2, args.frames // 3))
    run = run_experiment(
        spec,
        trace=True,
        telemetry=True,
        max_frames=args.frames,
        monitor_interval_s=spec.deadline_s if args.export else None,
    )
    trace = run.trace
    assert trace is not None and run.obs is not None
    if not args.export:
        print(
            render_gantt(
                trace,
                end_s=args.frames * spec.deadline_s,
                width=args.width,
                deadline_s=spec.deadline_s,
            )
        )
        return 0

    from repro.obs import export as obs_export

    out = args.output or f"trace_{label}.{_EXPORT_SUFFIX[args.export]}"
    if args.export == "chrome":
        path = obs_export.write_chrome_trace(
            out,
            trace=trace,
            events=run.obs.events,
            label=f"repro {label}",
        )
    elif args.export == "jsonl":
        path = obs_export.write_jsonl(
            out,
            trace=trace,
            events=run.obs.events,
            metrics=run.obs.metrics,
            energy=run.obs.energy,
        )
    else:  # csv — explicit columns so a zero-segment run still gets a header
        path = write_rows(
            obs_export.segments_to_rows(trace),
            out,
            columns=obs_export.SEGMENT_COLUMNS,
        )
    print(f"wrote {path} ({len(trace.all_segments())} segments, "
          f"{len(run.obs.events)} events)")
    if run.obs.events.dropped:
        print(f"warning: event log truncated — {run.obs.events.dropped} "
              "events dropped past the storage cap (lower --frames)",
              file=sys.stderr)
    return 0


_EXPORT_SUFFIX = {"chrome": "json", "jsonl": "jsonl", "csv": "csv"}


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry
    from repro.obs import export as obs_export

    labels = args.labels or ["1", "1A", "2", "2A"]
    unknown = [lb for lb in labels if lb not in PAPER_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment labels: {unknown}", file=sys.stderr)
        print(f"available: {', '.join(PAPER_EXPERIMENTS)}", file=sys.stderr)
        return 2
    sweep = _sweep_kwargs(args)
    runs = run_paper_suite(
        labels,
        telemetry=True,
        max_frames=args.frames,
        mode=_mode(args),
        **sweep,
    )
    for label in labels:
        obs = runs[label].obs
        assert obs is not None
        rows = [{"label": label, **row} for row in obs.metrics.as_rows()]
        print(format_table(rows, title=f"experiment {label} metrics"))
        if obs.events.dropped:
            print(f"(event log truncated: {obs.events.dropped} events "
                  "dropped past the storage cap — event-derived numbers "
                  "below the cap are complete, counts are not)")
        print()
    if len(labels) > 1:
        # Merge the per-run registries in label order: counter and
        # histogram merges are commutative sums over fixed buckets, so
        # the merged registry is deterministic regardless of --jobs or
        # cache hits.
        merged = MetricsRegistry()
        for label in labels:
            merged.merge(runs[label].obs.metrics)  # type: ignore[union-attr]
        print(format_table(merged.as_rows(), title="all experiments (merged)"))
        print()
    if args.export:
        all_rows = []
        for label in labels:
            obs = runs[label].obs
            assert obs is not None
            all_rows.extend(
                {"label": label, **row}
                for row in obs_export.metrics_to_rows(obs.metrics)
            )
        # Explicit columns: an all-empty registry still exports a header.
        path = write_rows(
            all_rows, args.export, columns=["label", *obs_export.METRIC_COLUMNS]
        )
        print(f"wrote {path}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.explore import default_space, explore
    from repro.explore.halving import check_explore_args, explore_fingerprint

    space = default_space(
        bandwidth_points=args.bandwidth_points,
        capacity_points=args.capacity_points,
        io_points=args.io_points,
        chemistries=tuple(args.chemistries),
        deadlines=tuple(args.deadlines),
    )
    check_explore_args(tuple(args.keep), args.chunk, args.limit, args.probe)
    cache = _cache(args)
    registry = None if args.no_registry else _registry(args)
    resume_cursor = None
    if args.resume is not None:
        if registry is None:
            print("--resume needs the registry (drop --no-registry)")
            return 2
        if args.resume == "latest":
            record = registry.latest_explore_cursor(
                fingerprint=explore_fingerprint(
                    space, tuple(args.keep), args.limit
                )
            )
        else:
            record = registry.latest_explore_cursor(
                session_id_prefix=args.resume
            )
        if record is None or record.cursor is None:
            print(f"no resumable explore session matches {args.resume!r}")
            return 2
        resume_cursor = record.cursor
        print(f"resuming {record.session_id[:12]} "
              f"(snapshot after rung {record.rung!r})")
    n = space.size() if args.limit is None else min(space.size(), args.limit)
    print(f"exploring {n:,} of {space.size():,} configs "
          f"(keep {args.keep[0]}/{args.keep[1]}/{args.keep[2]}, "
          f"jobs {args.jobs})")

    def progress(report: t.Any) -> None:
        print(f"  rung {report.name:<8} {report.entered:>7,} in "
              f"-> {report.promoted:>5,} promoted "
              f"({report.disqualified:,} disqualified, "
              f"{report.executed:,} executed, "
              f"{report.cache_hits:,} cached) "
              f"[{report.wall_s:.2f} s]")

    flight, renderer = _flight(args, "explore")
    started = time.perf_counter()
    result = explore(
        space,
        keep=tuple(args.keep),
        jobs=args.jobs,
        cache=cache,
        registry=registry,
        chunk_size=args.chunk,
        limit=args.limit,
        progress=progress,
        flight=flight,
        probe=args.probe,
        resume=resume_cursor,
    )
    wall = time.perf_counter() - started
    _finish_flight(flight, renderer, args)
    if result.disqualified:
        print()
        print(format_table(
            [{"constraint": k, "configs": v}
             for k, v in sorted(result.disqualified.items())],
            title="disqualified by constraint",
        ))
    print()
    if result.frontier:
        rows = [
            {
                "config": m.config.describe(),
                "T_h": m.lifetime_hours,
                "Tnorm_h": m.tnorm_hours,
                "frames": m.frames,
                "misses": m.deadline_misses,
                "run": m.run_id[:12],
            }
            for m in result.frontier
        ]
        audit = result.rungs[-1]
        print(format_table(rows, float_fmt=".3f",
                           title=f"Pareto frontier ({len(rows)} point(s) "
                                 f"from the fast rung; {audit.evaluated} of "
                                 f"{audit.entered} exact-audited)"))
    else:
        print("empty frontier: every config was disqualified")
    print(f"\n{result.n_configs:,} configs in {wall:.2f} s "
          f"({result.configs_per_sec:,.0f} configs/s); "
          f"{result.pruned_before_sim_fraction:.2%} pruned before any "
          "full simulation")
    s = result.sampler
    print(f"guided sampler: probed {s['probed']:,} of "
          f"{s['universe']:,} configs in {s['rounds']} round(s), "
          f"{s['proposals']:,} proposals, stopped: {s['stop_reason']}")
    if args.export:
        payload = result.frontier_payload()
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.export}")
    return 0 if result.frontier else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec import ResultCache

    cache = ResultCache(args.root)
    if args.cache_command == "info":
        info = cache.info()
        print(f"cache    {info['root']}")
        print(f"salt     {info['current_salt']}")
        print(f"entries  {info['entries']:,} ({info['bytes'] / 1e6:.2f} MB)")
        if info["stale_entries"]:
            print(f"stale    {info['stale_entries']:,} "
                  "(written under another salt; prune with --stale)")
        if info["salts"]:
            print()
            rows = [
                {
                    "salt": salt,
                    "entries": bucket["entries"],
                    "MB": bucket["bytes"] / 1e6,
                    "status": "current" if salt == cache.salt else "stale",
                }
                for salt, bucket in info["salts"].items()
            ]
            print(format_table(rows, float_fmt=".2f", title="per-salt"))
        return 0

    if args.cache_command == "prune":
        if args.all:
            removed = cache.clear()
        elif (args.max_age_days is None and args.max_bytes is None
              and not args.stale):
            print("nothing to do: pass --max-age-days, --max-bytes, "
                  "--stale, or --all", file=sys.stderr)
            return 2
        else:
            removed = cache.prune(
                max_age_days=args.max_age_days,
                max_bytes=args.max_bytes,
                stale_only=args.stale,
            )
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0

    print(f"unknown cache subcommand {args.cache_command!r}", file=sys.stderr)
    return 2


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.store import diff_records

    registry = _registry(args)
    if registry is None:
        print("registry disabled (--no-registry)", file=sys.stderr)
        return 2

    if args.runs_command == "list":
        import datetime as dt
        import json

        records = registry.list_runs(
            label=args.label, limit=args.limit, offset=args.offset
        )

        def _created(record: t.Any) -> str:
            if record.created_at is None:
                return "--"
            stamp = dt.datetime.fromtimestamp(
                record.created_at, tz=dt.timezone.utc
            )
            return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")

        if getattr(args, "json", False):
            rows = [
                {**r.as_row(), "run_id": r.run_id, "created": _created(r)}
                for r in records
            ]
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        if not records:
            print(f"no registered runs in {registry.path}")
            return 0
        title = f"run registry ({registry.path})"
        if args.offset:
            title += f" — runs {args.offset + 1}..{args.offset + len(records)}"
        print(format_table(
            [{**r.as_row(), "created": _created(r)} for r in records],
            title=title,
        ))
        return 0

    if args.runs_command == "show":
        record = registry.get(args.run_id)
        print(f"run      {record.run_id}")
        print(f"label    {record.label}")
        print(f"config   {record.fingerprint}")
        print(f"version  {record.version}"
              + (f"  git {record.git_sha[:12]}" if record.git_sha else ""))
        print(f"events   {record.n_events}"
              + (f"  digest {record.event_digest[:12]}"
                 if record.event_digest else ""))
        print()
        rows = [
            {"field": name, "value": value}
            for name, value in sorted(record.summary.items())
            if not isinstance(value, dict)
        ]
        print(format_table(rows, title="summary"))
        counters = record.metrics.get("counters", [])
        if counters:
            print()
            print(format_table(
                [{"counter": c["name"], "value": c["value"]} for c in counters],
                title="metrics (counters)",
            ))
        return 0

    if args.runs_command == "diff":
        a = registry.get(args.run_a)
        b = registry.get(args.run_b)
        rows = diff_records(a, b, threshold_pct=args.threshold)
        if not args.all:
            rows = [r for r in rows if r["delta"]]
        title = (f"{a.label} {a.run_id[:12]} -> {b.label} {b.run_id[:12]} "
                 f"(threshold {args.threshold:g}%)")
        if not rows:
            print(f"no metric deltas: {title}")
            return 0
        for row in rows:
            row["flag"] = "REGRESSION" if row.pop("regression") else ""
        print(format_table(rows, title=title))
        regressions = sum(1 for r in rows if r["flag"])
        if regressions:
            print(f"\n{regressions} metric(s) moved more than "
                  f"{args.threshold:g}%")
            return 1
        return 0

    if args.runs_command == "gc":
        removed = registry.gc(
            keep_last=args.keep_last,
            older_than_days=args.older_than_days,
            label=args.label,
        )
        print(f"removed {removed} row(s) from {registry.path}")
        return 0

    if args.runs_command == "reset":
        removed = registry.reset()
        print(f"removed {removed} run(s) from {registry.path}")
        return 0

    print(f"unknown runs subcommand {args.runs_command!r}", file=sys.stderr)
    return 2


def _print_verdicts(verdicts: t.Sequence[t.Any], title: str) -> int:
    rows = []
    for v in verdicts:
        where = ""
        if v.violating_event is not None:
            e = v.violating_event
            where = f"{e.kind}@{e.ts:.1f}s"
        if v.ok:
            verdict = "ok"
        elif getattr(v, "inconclusive", False):
            verdict = "inconclusive"
        else:
            verdict = "FAIL"
        rows.append(
            {
                "check": v.monitor,
                "verdict": verdict,
                "detail": v.detail,
                "evidence": where,
            }
        )
    print(format_table(rows, title=title))
    return sum(1 for v in verdicts if not v.ok)


def _explain_deadline_misses(run: t.Any, limit: int = 3) -> None:
    """Print critical-path postmortems for a run's late frames."""
    from repro.obs.causal import build_frame_trace, late_frame_ids, render_frame_tree

    late = late_frame_ids(run.obs.events)
    if not late:
        return
    shown = late[:limit]
    print(f"late frames: {len(late)} "
          f"(showing {len(shown)}: {', '.join(map(str, shown))})")
    for frame_id in shown:
        try:
            print(render_frame_tree(build_frame_trace(run.obs.events, frame_id)))
        except ReproError as exc:
            print(f"frame {frame_id}: {exc}")
        print()


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.core.experiments import experiment_fingerprint, run_experiment
    from repro.obs.checks import (
        check_paper_ordering,
        paper_monitors,
        replay,
        tnorms_from_records,
    )
    from repro.obs.store import diff_records

    registry = _registry(args)

    if getattr(args, "fleet", False):
        # Fleet health from the persisted execution journal: failures,
        # retry pressure, and straggler spread become check verdicts.
        from repro.obs.flight import journal_verdicts

        if registry is None:
            print("--fleet needs the registry (drop --no-registry)",
                  file=sys.stderr)
            return 2
        rows = registry.list_journal()
        if not rows:
            print(f"no execution journal in {registry.path} "
                  "(run a sweep with --progress or --journal first)")
            return 2
        verdicts = journal_verdicts(rows)
        failures = _print_verdicts(verdicts, "fleet health (exec journal)")
        if failures:
            print(f"\n{failures} fleet check(s) FAILED")
            return 1
        print(f"\nfleet healthy over {len(rows)} journaled item(s)")
        return 0

    run_kwargs: dict[str, t.Any] = dict(
        telemetry=True,
        monitor_interval_s=60.0,
        mode=_mode(args),
    )

    if args.paper:
        # Assert the Fig. 10 ordering over registered lifetimes for
        # *this* configuration (fast and exact runs register under
        # different fingerprints and never mix). Missing labels
        # are run and registered on the fly.
        from repro.obs.checks import PAPER_ORDERING

        sweep = _sweep_kwargs(args)
        labels = list(PAPER_ORDERING)
        records = {}
        missing = []
        for label in labels:
            fp = experiment_fingerprint(PAPER_EXPERIMENTS[label], run_kwargs)
            record = (registry.latest(label, fingerprint=fp)
                      if registry is not None else None)
            if record is None:
                missing.append(label)
            else:
                records[label] = record
        if missing:
            print(f"running unregistered experiments: {', '.join(missing)}")
            runs = run_paper_suite(missing, **sweep, **run_kwargs)
            from repro.obs.store import build_run_record

            for label in missing:
                fp = experiment_fingerprint(PAPER_EXPERIMENTS[label], run_kwargs)
                records[label] = build_run_record(runs[label], fp)
        verdicts = check_paper_ordering(tnorms_from_records(records.values()))
        failures = _print_verdicts(verdicts, "Fig. 10 normalized-lifetime ordering")
        if failures:
            print(f"\n{failures} ordering check(s) FAILED")
            return 1
        print("\nFig. 10 ordering verified: "
              + " > ".join(PAPER_ORDERING))
        return 0

    if args.baseline:
        if registry is None:
            print("--baseline needs the registry (drop --no-registry)",
                  file=sys.stderr)
            return 2
        baseline = registry.get(args.baseline)
        spec = PAPER_EXPERIMENTS[baseline.label]
        run = run_experiment(spec, registry=registry, **run_kwargs)
        from repro.obs.store import build_run_record

        fp = experiment_fingerprint(spec, run_kwargs)
        fresh = build_run_record(run, fp)
        rows = [r for r in diff_records(baseline, fresh,
                                        threshold_pct=args.threshold)
                if r["delta"]]
        for row in rows:
            row["flag"] = "REGRESSION" if row.pop("regression") else ""
        title = (f"{baseline.label}: baseline {baseline.run_id[:12]} vs fresh "
                 f"run (threshold {args.threshold:g}%)")
        if rows:
            print(format_table(rows, title=title))
        regressions = sum(1 for r in rows if r["flag"])
        if regressions:
            print(f"\n{regressions} metric(s) moved more than "
                  f"{args.threshold:g}% against the baseline")
            return 1
        print(f"\nno regressions against baseline {baseline.run_id[:12]}")
        return 0

    labels = args.labels or ["2", "2A", "2B", "2C"]
    unknown = [lb for lb in labels if lb not in PAPER_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment labels: {unknown}", file=sys.stderr)
        return 2
    failures = 0
    for label in labels:
        spec = PAPER_EXPERIMENTS[label]
        run = run_experiment(spec, registry=registry, **run_kwargs)
        assert run.obs is not None
        verdicts = replay(run.obs.events, paper_monitors(spec))
        failures += _print_verdicts(
            verdicts, f"experiment {label} invariants"
        )
        if any(
            v.monitor == "frame-deadline" and not v.ok and not v.inconclusive
            for v in verdicts
        ):
            # Every deadline miss gets a machine-derived explanation:
            # the frame's critical path, category by category.
            _explain_deadline_misses(run)
        print()
    if failures:
        print(f"{failures} invariant check(s) FAILED")
        return 1
    print("all invariants held")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.batch.sweep import BatchSweepSpec, batch_sweep, verify_sample

    spec = BatchSweepSpec(grid=args.grid, rel_span=args.span, mode=args.mode)
    flight, renderer = _flight(args, "sweep")
    result = batch_sweep(
        spec, jobs=args.jobs, cache=_cache(args), chunk_size=args.chunk,
        flight=flight,
    )
    _finish_flight(flight, renderer, args)
    stats = result.stats
    summary = result.summary()
    print(f"sensitivity sweep: {stats.configs} configs ({stats.cells} cells) "
          f"in {stats.wall_s:.2f} s — {stats.configs_per_sec:,.0f} configs/s")
    print(f"  chunks {stats.chunks} (executed {stats.executed}, "
          f"cache hits {stats.cache_hits}), epochs {stats.epochs}, "
          f"root solves {stats.root_solves}")
    print(f"  ordering holds for {summary['ordering_holds']}/{stats.configs} "
          f"configs; Rnorm(partition) in "
          f"[{summary['partitioning_rnorm_min']:.3f}, "
          f"{summary['partitioning_rnorm_max']:.3f}], Rnorm(rotation) in "
          f"[{summary['rotation_rnorm_min']:.3f}, "
          f"{summary['rotation_rnorm_max']:.3f}]")
    rows = [
        {
            "label": o.label,
            "T1_h": o.baseline_h,
            "Tnorm_part_h": o.partitioned_norm_h,
            "Tnorm_rot_h": o.rotating_norm_h,
            "Rnorm_part": o.partitioning_rnorm,
            "Rnorm_rot": o.rotation_rnorm,
            "ordering": "ok" if o.ordering_holds else "VIOLATED",
            "frames": sum(cycles),
        }
        for o, cycles in zip(result.outcomes, result.cycles)
    ]
    if len(rows) <= 32:
        print()
        print(format_table(rows, float_fmt=".3f", title="outcomes"))
    if args.export:
        print(f"\nwrote {write_rows(rows, args.export)}")
    if args.verify:
        report = verify_sample(result, sample=args.verify)
        status = "ok" if report.ok else "MISMATCH"
        print(f"\nverify: {report.checked} config(s) re-run on the scalar "
              f"path — frames identical: {report.frames_identical}, max "
              f"lifetime rel err: {report.max_rel_err:.3g} [{status}]")
        if not report.ok:
            for line in report.mismatches:
                print(f"  {line}")
            return 1
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.apps.atr.profile import PAPER_PROFILE
    from repro.core.optimizer import optimize_configuration

    ranked = optimize_configuration(
        PAPER_PROFILE,
        max_stages=args.stages,
        deadline_s=args.deadline,
        objective=args.objective,
    )
    rows = [
        {
            "rank": i + 1,
            "configuration": c.description,
            "N": c.n_stages,
            "T_hours": c.lifetime_hours,
            "Tnorm_hours": c.normalized_hours,
        }
        for i, c in enumerate(ranked[: args.top])
    ]
    print(
        format_table(
            rows,
            title=(
                f"design space <= {args.stages} stages, D = {args.deadline} s, "
                f"objective = {args.objective}"
            ),
        )
    )
    if args.export:
        print(f"\nwrote {write_rows(rows, args.export)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import write_html_report

    if not str(args.output).endswith((".html", ".htm")):
        print(f"report output must be an .html file: {args.output}",
              file=sys.stderr)
        return 2
    journal = None
    if args.fleet:
        registry = _registry(args)
        if registry is None:
            print("--fleet needs the registry (drop --no-registry)",
                  file=sys.stderr)
            return 2
        journal = registry.list_journal()
    runs = run_paper_suite(
        args.labels or None,
        telemetry=True,
        monitor_interval_s=300.0,
        mode=_mode(args),
        **_sweep_kwargs(args),
    )
    path = write_html_report(args.output, runs, journal=journal)
    extra = f", fleet timeline over {len(journal)} item(s)" if journal else ""
    print(f"wrote {path} (self-contained HTML, {len(runs)} "
          f"experiments{extra})")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.core.experiments import run_experiment
    from repro.obs import causal
    from repro.obs import export as obs_export
    from repro.obs.energy import verify_conservation

    label = args.label
    if label not in PAPER_EXPERIMENTS:
        print(f"unknown experiment {label!r}", file=sys.stderr)
        print(f"available: {', '.join(PAPER_EXPERIMENTS)}", file=sys.stderr)
        return 2
    spec = PAPER_EXPERIMENTS[label]

    if args.explain_command == "frame":
        if not spec.io_enabled:
            print(f"experiment {label} has no pipeline (no frames to trace)",
                  file=sys.stderr)
            return 2
        # Bound the run just past the requested frame so the exact
        # event stream stays small; coalesced frames are untraceable.
        frames = args.frames or max(args.frame_id + 2, 8)
        run = run_experiment(
            spec, telemetry=True, max_frames=frames, mode="exact"
        )
        assert run.obs is not None
        trace = causal.build_frame_trace(run.obs.events, args.frame_id)
        if args.json:
            print(json.dumps(trace.as_dict(), sort_keys=True, indent=2))
        else:
            print(causal.render_frame_tree(trace))
        if args.flamegraph:
            traces = [
                causal.build_frame_trace(run.obs.events, frame_id)
                for frame_id in causal.frame_ids(run.obs.events)
            ]
            path = obs_export.write_collapsed_stacks(
                args.flamegraph, causal.collapsed_stacks(traces)
            )
            print(f"wrote {path} ({len(traces)} frame stacks, "
                  "flamegraph.pl/speedscope collapsed format)")
        return 0

    if args.explain_command == "energy":
        run = run_experiment(
            spec, telemetry=True, monitor_interval_s=300.0, mode=_mode(args)
        )
        assert run.obs is not None
        ledger = run.obs.energy
        rows = [
            row for row in obs_export.ledger_to_rows(ledger)
            if args.node is None or row["node"] == args.node
        ]
        if not rows:
            where = f" for node {args.node!r}" if args.node else ""
            print(f"no attributed energy{where}", file=sys.stderr)
            return 1
        print(format_table(
            rows, float_fmt=".4f",
            title=f"experiment {label} energy attribution",
        ))
        delivered = (
            run.pipeline.delivered_mah if run.pipeline is not None else {}
        )
        if delivered:
            checks = verify_conservation(ledger, delivered)
            print()
            print(format_table(
                [
                    {
                        "node": c.node,
                        "ledger_mAh": c.ledger_mah,
                        "delivered_mAh": c.delivered_mah,
                        "rel_error": f"{c.rel_error:.2e}",
                        "conserved": "ok" if c.ok else "FAIL",
                    }
                    for c in checks
                    if args.node is None or c.node == args.node
                ],
                float_fmt=".6f",
                title="conservation (ledger vs battery delivered)",
            ))
            if any(not c.ok for c in checks):
                return 1
        if args.export:
            path = write_rows(rows, args.export,
                              columns=obs_export.LEDGER_COLUMNS)
            print(f"\nwrote {path}")
        return 0

    print(f"unknown explain subcommand {args.explain_command!r}",
          file=sys.stderr)
    return 2


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.apps.atr.profile import PAPER_PROFILE, measure_profile

    profile = measure_profile(
        repeats=args.repeats, frames=args.frames, seed=args.seed
    )
    paper = {b.name: b for b in PAPER_PROFILE.blocks}
    rows = [
        {
            "block": b.name,
            "itsy_s": round(b.seconds_at_max, 4),
            "share_pct": round(
                100.0 * b.seconds_at_max / profile.total_seconds_at_max, 1
            ),
            "paper_s": round(paper[b.name].seconds_at_max, 4)
            if b.name in paper
            else None,
            "output_bytes": b.output_bytes,
        }
        for b in profile.blocks
    ]
    print(
        format_table(
            rows,
            title=(
                f"measured ATR profile, {args.frames} frame(s) x "
                f"{args.repeats} repeat(s), renormalized to "
                f"{profile.total_seconds_at_max:.2f} s Itsy total"
            ),
        )
    )
    print(f"\ninput frame: {profile.input_bytes} bytes")
    print(
        "(relative weights differ from Fig. 6: numpy's FFT is far better\n"
        " optimized relative to detection than the Itsy's code was)"
    )
    if args.export:
        print(f"\nwrote {write_rows(rows, args.export)}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.core.calibration import calibrate_battery

    x0 = None
    if args.from_scratch:
        x0 = (1000.0, 0.3, 1.0, 0.1, 45.0)
    kwargs: dict[str, t.Any] = {}
    if x0 is not None:
        kwargs["x0"] = x0
    result = calibrate_battery(**kwargs)
    b = result.battery
    print("fitted parameters:")
    print(f"  capacity     = {b.capacity_mah:.2f} mAh")
    print(f"  c            = {b.c:.5f}")
    print(f"  k'           = {b.k_prime_per_hour:.5f} /h")
    print(f"  io_activity  = {result.power_model.io_activity:.5f}")
    print("\nanchor residuals (hours):")
    for anchor, residual in zip(result.anchors, result.residuals_hours):
        print(f"  {anchor.label:3s} target {anchor.target_hours:6.2f}  "
              f"error {residual:+.3f}")
    print(f"\nworst |error| = {result.max_abs_residual_hours:.3f} h")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Attach to a running (or finished) sweep's progress plane."""
    import time

    from repro.obs.progress import render_snapshot

    registry = _registry(args)
    if registry is None:
        print("repro top needs the registry (drop --no-registry)",
              file=sys.stderr)
        return 2

    def fetch() -> tuple[dict[str, t.Any], float] | None:
        return registry.latest_progress(getattr(args, "label", None))

    def render(snapshot: dict[str, t.Any], updated_at: float) -> str:
        age = max(0.0, time.time() - updated_at)
        return (render_snapshot(snapshot)
                + f"\n(updated {age:.1f}s ago; plane {registry.path})")

    found = fetch()
    if found is None:
        target = (f"label {args.label!r}" if getattr(args, "label", None)
                  else "any sweep")
        print(f"no progress snapshots for {target} in {registry.path} "
              "(start a sweep with --progress or --journal)")
        return 1
    if args.once:
        print(render(*found))
        return 0

    # Follow mode: redraw in place while the sweep is live. A static
    # plain-text fallback keeps piped output readable.
    tty = sys.stdout.isatty()
    last_lines = 0
    try:
        while True:
            found = fetch() or found
            block = render(*found)
            if tty:
                if last_lines:
                    sys.stdout.write(f"\x1b[{last_lines}A")
                lines = block.split("\n")
                for line in lines:
                    sys.stdout.write(f"\x1b[2K{line}\n")
                last_lines = len(lines)
                sys.stdout.flush()
            else:
                print(block)
            if found[0].get("finished"):
                return 0
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        print()
        return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Liu & Chou, 'Distributed Embedded Systems for "
            "Low Power: A Case Study' (IPPS 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fast(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fast", action="store_true",
                       help="fast-forward steady-state epochs analytically "
                            "(frame counts identical to exact simulation)")

    def add_export(p: argparse.ArgumentParser) -> None:
        p.add_argument("--export", metavar="PATH",
                       help="write rows to a .csv or .json file")

    def add_registry(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", metavar="PATH",
                       help="run-registry database (default "
                            "$REPRO_RUNS_DB or .repro-runs.sqlite)")

    def add_sweep(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan experiments over N worker processes "
                            "(bit-identical to serial; default 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="recompute instead of reading .repro-cache")
        p.add_argument("--no-registry", action="store_true",
                       help="do not record or read registered runs")
        add_registry(p)

    def add_flight(p: argparse.ArgumentParser) -> None:
        p.add_argument("--progress", action="store_true",
                       help="live in-place progress dashboard (per-rung "
                            "bars, worker lanes, cache hits, ETA; plain "
                            "lines when stderr is not a TTY)")
        p.add_argument("--journal", metavar="PATH",
                       help="export the item-level execution journal as "
                            "canonical JSONL (byte-identical across "
                            "serial / --jobs N / cache replay)")

    p_run = sub.add_parser("run", help="run paper experiments by label")
    p_run.add_argument("labels", nargs="*", metavar="LABEL",
                       help=f"any of: {', '.join(PAPER_EXPERIMENTS)}")
    add_fast(p_run)
    add_export(p_run)
    add_sweep(p_run)
    add_flight(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run all eight experiments")
    add_fast(p_suite)
    add_export(p_suite)
    add_sweep(p_suite)
    add_flight(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    p_fig = sub.add_parser("figures", help="regenerate a paper figure")
    p_fig.add_argument("figure", choices=["fig6", "fig7", "fig8", "fig10"])
    add_fast(p_fig)
    add_export(p_fig)
    add_sweep(p_fig)
    p_fig.set_defaults(func=_cmd_figures)

    p_part = sub.add_parser("partition", help="partitioning analysis (Fig. 8)")
    p_part.add_argument("--deadline", type=float, default=2.3,
                        help="frame delay D in seconds (default 2.3)")
    p_part.add_argument("--stages", type=int, default=2,
                        help="pipeline depth (default 2)")
    p_part.add_argument("--bandwidth-kbps", type=float, default=80.0,
                        help="link goodput in Kbps (default 80)")
    add_export(p_part)
    p_part.set_defaults(func=_cmd_partition)

    p_trace = sub.add_parser(
        "trace", help="render a timing diagram or export a run's telemetry"
    )
    p_trace.add_argument("label", help="experiment label (e.g. 1, 2, 2C)")
    p_trace.add_argument("--frames", type=int, default=6)
    p_trace.add_argument("--width", type=int, default=100)
    p_trace.add_argument("--export", choices=["chrome", "jsonl", "csv"],
                         help="instead of the ASCII gantt, export the "
                              "run: 'chrome' writes a chrome://tracing/"
                              "Perfetto-loadable trace-event JSON, "
                              "'jsonl' the full telemetry bundle, 'csv' "
                              "the trace segments")
    p_trace.add_argument("-o", "--output", metavar="PATH",
                         help="output file (default trace_<label>.<ext>)")
    p_trace.set_defaults(func=_cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="run experiments with telemetry and print metrics"
    )
    p_metrics.add_argument("labels", nargs="*", metavar="LABEL",
                           help=f"any of: {', '.join(PAPER_EXPERIMENTS)} "
                                "(default: 1 1A 2 2A)")
    p_metrics.add_argument("--frames", type=int, default=None, metavar="N",
                           help="truncate each run after N frames "
                                "(default: run to battery death)")
    add_fast(p_metrics)
    add_export(p_metrics)
    add_sweep(p_metrics)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_runs = sub.add_parser(
        "runs", help="query the persistent run registry"
    )
    add_registry(p_runs)
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    pr_list = runs_sub.add_parser("list", help="list registered runs")
    pr_list.add_argument("--label", metavar="LABEL",
                         help="only runs of one experiment label")
    pr_list.add_argument("--limit", type=int, default=20, metavar="N",
                         help="show at most N runs (default 20)")
    pr_list.add_argument("--offset", type=int, default=0, metavar="K",
                         help="skip the K most recent runs first "
                              "(page through with --limit)")
    pr_list.add_argument("--json", action="store_true",
                         help="emit rows as JSON (full run ids, ISO-8601 "
                              "UTC created stamps)")
    pr_show = runs_sub.add_parser("show", help="one run in full")
    pr_show.add_argument("run_id", metavar="RUN",
                         help="run id (any unambiguous prefix)")
    pr_diff = runs_sub.add_parser(
        "diff", help="per-metric deltas between two registered runs"
    )
    pr_diff.add_argument("run_a", metavar="A", help="baseline run id prefix")
    pr_diff.add_argument("run_b", metavar="B", help="candidate run id prefix")
    pr_diff.add_argument("--threshold", type=float, default=0.0,
                         metavar="PCT",
                         help="flag metrics moving more than PCT%% "
                              "(default 0: report only, never fail)")
    pr_diff.add_argument("--all", action="store_true",
                         help="include metrics with zero delta")
    pr_gc = runs_sub.add_parser(
        "gc", help="trim old rows from the registry"
    )
    pr_gc.add_argument("--keep-last", type=int, metavar="N",
                       help="keep only the N most recent runs (per label "
                            "with --label, globally otherwise)")
    pr_gc.add_argument("--older-than-days", type=float, metavar="D",
                       help="remove rows recorded more than D days ago "
                            "(rows from before age tracking count as old)")
    pr_gc.add_argument("--label", metavar="LABEL",
                       help="restrict gc to one experiment label")
    runs_sub.add_parser("reset", help="delete every registered run")
    p_runs.set_defaults(func=_cmd_runs)

    p_check = sub.add_parser(
        "check",
        help="evaluate invariant monitors, or assert the Fig. 10 ordering",
    )
    p_check.add_argument("labels", nargs="*", metavar="LABEL",
                         help="experiments to check (default: 2 2A 2B 2C)")
    p_check.add_argument("--paper", action="store_true",
                         help="assert the Fig. 10 normalized-lifetime "
                              "ordering (2C > 2B > 2A > 2) over registered "
                              "runs; exits nonzero on violation")
    p_check.add_argument("--baseline", metavar="RUN",
                         help="diff a fresh run against a registered "
                              "baseline; exits nonzero past --threshold")
    p_check.add_argument("--fleet", action="store_true",
                         help="assert fleet health over the persisted "
                              "execution journal (failures, retries, "
                              "stragglers); exits nonzero on failures")
    p_check.add_argument("--threshold", type=float, default=5.0,
                         metavar="PCT",
                         help="regression threshold for --baseline "
                              "(default 5%%)")
    add_fast(p_check)
    add_sweep(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser(
        "sweep",
        help="parameter-sensitivity sweeps (vectorized cohorts)",
    )
    p_sweep.add_argument("--grid", type=int, default=3, metavar="N",
                         help="points per axis (default 3; grid mode "
                              "evaluates N^4 configs)")
    p_sweep.add_argument("--span", type=float, default=0.10, metavar="REL",
                         help="relative half-width of each axis "
                              "(default 0.10 = +/-10%%)")
    p_sweep.add_argument("--mode", choices=["grid", "one_at_a_time"],
                         default="grid",
                         help="sweep shape (default grid; one_at_a_time "
                              "is the classic table)")
    p_sweep.add_argument("--verify", type=int, default=0, metavar="K",
                         help="re-run K sampled configs on the scalar path "
                              "and assert frame-count identity (exit 1 on "
                              "mismatch)")
    p_sweep.add_argument("--chunk", type=int, default=2048, metavar="N",
                         help="configs per cohort chunk / cache entry "
                              "(default 2048)")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="fan cohort chunks over N worker processes "
                              "(bit-identical to serial; default 1)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="recompute instead of reading .repro-cache")
    p_sweep.add_argument("--export", metavar="PATH",
                         help="write per-config rows to a .csv or .json file")
    add_registry(p_sweep)
    p_sweep.add_argument("--no-registry", action="store_true",
                         help="do not persist journal/progress snapshots")
    add_flight(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_explore = sub.add_parser(
        "explore",
        help="multi-fidelity design-space exploration (successive "
             "halving to a Pareto frontier)",
    )
    p_explore.add_argument("--bandwidth-points", type=int, default=10,
                           metavar="N",
                           help="log-spaced link bandwidths, 40-160 kbps "
                                "(default 10)")
    p_explore.add_argument("--capacity-points", type=int, default=12,
                           metavar="N",
                           help="battery capacities, quarter to full scale "
                                "(default 12)")
    p_explore.add_argument("--io-points", type=int, default=12, metavar="N",
                           help="I/O activity levels, 0.05-0.60 "
                                "(default 12)")
    p_explore.add_argument("--chemistries", nargs="+", default=["kibam"],
                           choices=["kibam", "linear", "peukert"],
                           metavar="CHEM",
                           help="battery models to cross in "
                                "(default: kibam only)")
    p_explore.add_argument("--deadlines", nargs="+", type=float,
                           default=[2.3], metavar="D",
                           help="frame deadlines in seconds (default 2.3; "
                                "several values surface the "
                                "throughput/lifetime tradeoff)")
    p_explore.add_argument("--keep", nargs=3, type=int, default=[512, 16, 6],
                           metavar=("K0", "K1", "K2"),
                           help="promotion budgets after the predict, "
                                "cohort, and fast rungs "
                                "(default 512 16 6)")
    p_explore.add_argument("--limit", type=int, default=None, metavar="N",
                           help="deterministically subsample the space to "
                                "at most N configs")
    p_explore.add_argument("--chunk", type=int, default=256, metavar="N",
                           help="configs per cohort chunk / cache entry "
                                "(default 256)")
    p_explore.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="fan rung work over N worker processes "
                                "(bit-identical to serial; default 1)")
    p_explore.add_argument("--probe", type=int, default=2048, metavar="N",
                           help="size of the rung-0 sampler's initial "
                                "probe and of every proposal round; a "
                                "probe at least the space size scores "
                                "every config (default 2048)")
    p_explore.add_argument("--resume", metavar="RUN", default=None,
                           help="resume a killed exploration from its "
                                "latest registry cursor: a session-id "
                                "prefix, or 'latest' to match the current "
                                "arguments")
    p_explore.add_argument("--no-cache", action="store_true",
                           help="recompute instead of reading .repro-cache")
    p_explore.add_argument("--no-registry", action="store_true",
                           help="do not record runs or rung snapshots")
    p_explore.add_argument("--export", metavar="PATH",
                           help="write the frontier (canonical JSON) "
                                "to PATH")
    add_registry(p_explore)
    add_flight(p_explore)
    p_explore.set_defaults(func=_cmd_explore)

    p_cache = sub.add_parser(
        "cache", help="inspect or prune the result cache"
    )
    p_cache.add_argument("--root", default=".repro-cache", metavar="PATH",
                         help="cache directory (default .repro-cache)")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("info", help="entry counts and sizes per salt")
    pc_prune = cache_sub.add_parser("prune", help="evict cache entries")
    pc_prune.add_argument("--max-age-days", type=float, metavar="D",
                          help="remove entries older than D days")
    pc_prune.add_argument("--max-bytes", type=int, metavar="N",
                          help="evict oldest-first until the cache fits "
                               "in N bytes")
    pc_prune.add_argument("--stale", action="store_true",
                          help="remove entries written under a different "
                               "code version / salt (they can never hit)")
    pc_prune.add_argument("--all", action="store_true",
                          help="remove every entry")
    p_cache.set_defaults(func=_cmd_cache)

    p_opt = sub.add_parser(
        "optimize", help="rank every configuration in the design space"
    )
    p_opt.add_argument("--stages", type=int, default=2,
                       help="maximum pipeline depth (default 2)")
    p_opt.add_argument("--deadline", type=float, default=2.3)
    p_opt.add_argument("--objective", choices=["normalized", "absolute"],
                       default="normalized")
    p_opt.add_argument("--top", type=int, default=10,
                       help="how many candidates to print")
    add_export(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_report = sub.add_parser(
        "report",
        help="write the full reproduction report (one self-contained "
             "HTML file: every paper figure, inline SVG charts)",
    )
    p_report.add_argument("labels", nargs="*", metavar="LABEL",
                          help="experiments to include (default: full "
                               "suite)")
    p_report.add_argument("-o", "--output", default="reproduction_report.html",
                          help="output path, .html or .htm "
                               "(default reproduction_report.html)")
    add_fast(p_report)
    add_sweep(p_report)
    p_report.add_argument("--fleet", action="store_true",
                          help="append the fleet timeline track (per-"
                               "worker execution gantt from the persisted "
                               "journal)")
    p_report.set_defaults(func=_cmd_report)

    p_explain = sub.add_parser(
        "explain",
        help="causal explanations: a frame's critical path, or a run's "
             "energy attribution",
    )
    explain_sub = p_explain.add_subparsers(dest="explain_command",
                                           required=True)
    pe_frame = explain_sub.add_parser(
        "frame", help="reconstruct one frame's span tree and critical path"
    )
    pe_frame.add_argument("frame_id", type=int, metavar="ID",
                          help="frame id to explain")
    pe_frame.add_argument("--label", default="2", metavar="LABEL",
                          help="experiment to run (default 2)")
    pe_frame.add_argument("--frames", type=int, default=None, metavar="N",
                          help="simulate N frames (default: just past ID)")
    pe_frame.add_argument("--json", action="store_true",
                          help="machine-readable explanation instead of "
                               "the ASCII tree")
    pe_frame.add_argument("--flamegraph", metavar="PATH",
                          help="also write every traceable frame's "
                               "critical path as collapsed stacks")
    pe_frame.set_defaults(func=_cmd_explain)
    pe_energy = explain_sub.add_parser(
        "energy", help="per-(node, mode, block) energy attribution ledger"
    )
    pe_energy.add_argument("--label", default="2", metavar="LABEL",
                           help="experiment to run (default 2)")
    pe_energy.add_argument("--node", metavar="NAME",
                           help="restrict to one node")
    add_fast(pe_energy)
    pe_energy.add_argument("--export", metavar="PATH",
                           help="write ledger rows to a .csv or .json file")
    pe_energy.set_defaults(func=_cmd_explain)

    p_prof = sub.add_parser(
        "profile",
        help="time the real ATR blocks and derive a Fig. 6-style profile",
    )
    p_prof.add_argument("--frames", type=int, default=1, metavar="N",
                        help="scenes per timing batch (default 1; more "
                             "frames measure steady-state batched kernels)")
    p_prof.add_argument("--repeats", type=int, default=5, metavar="R",
                        help="timing repeats per stage, median taken "
                             "(default 5)")
    p_prof.add_argument("--seed", type=int, default=0,
                        help="scene-generation seed (default 0)")
    p_prof.add_argument("--export", metavar="PATH",
                        help="write rows to a .csv or .json file")
    p_prof.set_defaults(func=_cmd_profile)

    p_cal = sub.add_parser("calibrate", help="re-run the battery calibration")
    p_cal.add_argument("--from-scratch", action="store_true",
                       help="start far from the stored solution (slow)")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_top = sub.add_parser(
        "top",
        help="live fleet dashboard: attach to a running sweep's "
             "progress plane",
    )
    p_top.add_argument("--label", metavar="LABEL",
                       help="attach to one recorder label (suite, "
                            "explore, sweep; default: most recent)")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit (exit 1 when "
                            "no snapshot exists)")
    p_top.add_argument("--interval", type=float, default=0.5, metavar="S",
                       help="refresh period in seconds (default 0.5)")
    add_registry(p_top)
    p_top.set_defaults(func=_cmd_top, no_registry=False)

    return parser


def main(argv: t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed early (``repro top --once | head``): the
        # Unix convention is to die quietly, not with a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
