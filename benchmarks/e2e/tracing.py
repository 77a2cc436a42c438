"""Per-layer time attribution for the end-to-end benchmark.

:class:`Tracer` wraps the public functions listed in :data:`TARGETS`
with a count-and-time wrapper, patching each name where its callers look
it up (the class for methods, the calling module for functions), and
restores the originals on exit. Nothing under ``src/`` knows about it.

Each call is a span. A span's self time is its duration minus the time
its child spans cover, so the self times of one pass sum to the time
spent inside traced calls, and ``unattributed_s`` (traced wall minus
that sum) is the pass's time outside every layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import typing as t

#: (layer, owner module, attribute path, calls metric, self-time metric).
#: The owner is where callers look the name up. Every target's self time
#: lands in exactly one ``*_s`` metric, so those metrics plus
#: ``unattributed_s`` add up to ``traced_wall_s``.
TARGETS: tuple[tuple[str, str, str, str | None, str], ...] = (
    ("core.experiments", "repro.core.experiments", "run_experiment",
     None, "core.experiments.self_s"),
    ("pipeline.engine", "repro.pipeline.engine", "PipelineEngine.run",
     None, "pipeline.engine.self_s"),
    ("sim.kernel", "repro.sim.kernel", "Simulator.run",
     "sim.kernel.calls", "sim.kernel.self_s"),
    ("hw.node", "repro.hw.node", "ItsyNode.set_state",
     "hw.node.calls", "hw.node.self_s"),
    ("hw.node", "repro.hw.node", "ItsyNode.warp",
     "hw.node.calls", "hw.node.self_s"),
    ("hw.battery", "repro.hw.battery.kibam", "KiBaM.draw",
     "hw.battery.draw_calls", "hw.battery.draw_s"),
    ("hw.battery", "repro.hw.battery.kibam", "KiBaM.advance_cycles",
     "hw.battery.advance_calls", "hw.battery.advance_s"),
    ("hw.battery", "repro.hw.battery.kibam", "KiBaM.time_to_death",
     "hw.battery.death_calls", "hw.battery.death_s"),
    ("hw.link", "repro.hw.link", "SerialLink.offer_send",
     "hw.link.calls", "hw.link.self_s"),
    ("hw.link", "repro.hw.link", "SerialLink.offer_recv",
     "hw.link.calls", "hw.link.self_s"),
    ("sim.fastforward", "repro.sim.fastforward", "FastForwardController.install",
     "sim.fastforward.calls", "sim.fastforward.self_s"),
    ("sim.fastforward", "repro.sim.fastforward", "FastForwardController.on_result",
     "sim.fastforward.calls", "sim.fastforward.self_s"),
    ("batch", "repro.batch.stepper", "CohortStepper.run",
     "batch.stepper.calls", "batch.stepper.self_s"),
    ("batch", "repro.batch.sweep", "evaluate_tasks_batch",
     None, "batch.evaluate.self_s"),
    ("explore", "repro.explore.halving", "explore",
     None, "explore.self_s"),
    ("explore", "repro.explore.halving", "guided_sample",
     None, "explore.sampler.self_s"),
    ("exec.executor", "repro.exec.executor", "SweepExecutor.map",
     None, "exec.executor.self_s"),
    ("exec.cache", "repro.exec.cache", "ResultCache.get",
     None, "exec.cache.get_s"),
    ("exec.cache", "repro.exec.cache", "ResultCache.put",
     None, "exec.cache.put_s"),
    ("obs.store", "repro.obs.store", "RunRegistry.record_run",
     "obs.store.calls", "obs.store.self_s"),
    ("obs.store", "repro.obs.store", "RunRegistry.record_journal",
     "obs.store.calls", "obs.store.self_s"),
    ("obs.store", "repro.obs.store", "RunRegistry.record_progress",
     "obs.store.calls", "obs.store.self_s"),
    ("obs.events", "repro.obs.events", "EventLog.emit",
     "obs.events.emit_calls", "obs.events.emit_s"),
    ("obs.events", "repro.obs.events", "EventLog.as_dict",
     None, "obs.events.encode_s"),
    ("obs.events", "repro.obs.events", "EventLog.from_dict",
     None, "obs.events.decode_s"),
    ("obs.energy", "repro.obs.energy", "EnergyLedger.add",
     "obs.energy.add_calls", "obs.energy.self_s"),
    ("obs.flight", "repro.obs.flight", "FlightRecorder.flush",
     None, "obs.flight.self_s"),
    ("obs.flight", "repro.obs.flight", "FlightRecorder.finish",
     None, "obs.flight.self_s"),
)

#: Metrics counted from what traced calls return, not from span times.
COUNTED = (
    "core.experiments.slowest_s",
    "core.experiments.slowest_events",
    "pipeline.engine.frames",
    "sim.kernel.events",
    "hw.link.transactions",
    "sim.fastforward.jumps",
    "sim.fastforward.skipped_frac",
    "batch.epochs",
    "batch.root_solves",
    "exec.cache.hit_frac",
    "exec.cache.bytes",
)

#: Read from ``ExploreResult`` by the explore workload.
EXPLORE = (
    "explore.predict_s",
    "explore.cohort_s",
    "explore.fast_s",
    "explore.exact_s",
    "explore.exact_entered",
    "explore.probed_frac",
)

#: Whole-pass metrics.
RUN = ("traced_wall_s", "unattributed_s", "trace_overhead_pct")

#: Per layer: the (end-to-end metric, workload) pairs a change to the
#: layer should move, then the control workloads it should not move.
MOVES: dict[str, tuple[tuple[tuple[str, str], ...], tuple[str, ...]]] = {
    "core.experiments": ((("ref_wall_s", "suite_fast"),), ("batch_sweep",)),
    "pipeline.engine": ((("ref_wall_s", "suite_exact"),), ("batch_sweep",)),
    "sim.kernel": (
        (("ref_wall_s", "suite_exact"), ("ref_wall_s", "explore_guided")),
        ("batch_sweep",),
    ),
    "hw.node": ((("ref_wall_s", "suite_exact"),), ("batch_sweep",)),
    # Draws dominate suite_exact, cycle advances suite_fast, and the
    # cohort stepper's near-death root solves call time_to_death. Every
    # workload runs the battery model, so none is its control.
    "hw.battery": (
        (("ref_wall_s", "suite_exact"), ("ref_wall_s", "suite_fast"),
         ("ref_wall_s", "batch_sweep")),
        (),
    ),
    "hw.link": ((("ref_wall_s", "suite_exact"),), ("batch_sweep",)),
    "sim.fastforward": ((("ref_wall_s", "suite_fast"),), ("suite_exact",)),
    "batch": ((("ref_wall_s", "batch_sweep"),), ("suite_exact",)),
    "explore": ((("ref_wall_s", "explore_guided"),), ("suite_exact",)),
    "exec.executor": (
        (("ref_wall_s", "suite_recorded"), ("ref_wall_s", "batch_sweep")),
        ("suite_exact",),
    ),
    "exec.cache": (
        (("ref_wall_s", "suite_recorded"), ("peak_rss_mb", "suite_recorded")),
        ("suite_fast",),
    ),
    "obs.store": ((("ref_wall_s", "suite_recorded"),), ("suite_fast",)),
    # The explore ladder simulates its survivors with telemetry on.
    "obs.events": (
        (("ref_wall_s", "suite_recorded"), ("ref_wall_s", "explore_guided")),
        ("suite_fast",),
    ),
    "obs.energy": (
        (("ref_wall_s", "suite_recorded"), ("ref_wall_s", "explore_guided")),
        ("suite_fast",),
    ),
    "obs.flight": ((("ref_wall_s", "suite_recorded"),), ("suite_fast",)),
    "run": (
        tuple(
            ("ref_wall_s", w)
            for w in ("suite_exact", "suite_fast", "batch_sweep",
                      "explore_guided", "suite_recorded")
        ),
        (),
    ),
}

#: Individual spans kept per function and pass for the trace file; the
#: counts and times cover every call regardless.
SPAN_CAP = 200


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in table order."""
    names: list[str] = []
    for _, _, _, calls, self_metric in TARGETS:
        for name in (calls, self_metric):
            if name is not None and name not in names:
                names.append(name)
    return names + list(COUNTED) + list(EXPLORE) + list(RUN)


def layer_of(metric: str) -> str:
    """The :data:`MOVES` layer a per-layer metric belongs to."""
    if metric in RUN:
        return "run"
    return max((name for name in MOVES if metric.startswith(name + ".")), key=len)


def _resolve(module: str, path: str) -> tuple[t.Any, str]:
    owner: t.Any = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


# -- count hooks: (tracer, args, result, duration, token) -------------------

def _sim_before(args: tuple) -> int:
    return args[0].events_processed


def _sim_after(tr: "Tracer", args: tuple, result: t.Any, dur: float, token: t.Any) -> None:
    tr.counts["sim.kernel.events"] += args[0].events_processed - token


def _experiment_after(tr: "Tracer", args: tuple, result: t.Any, dur: float, token: t.Any) -> None:
    if dur > tr.counts["core.experiments.slowest_s"]:
        tr.counts["core.experiments.slowest_s"] = dur
        tr.counts["core.experiments.slowest_events"] = result.sim_events


def _engine_after(tr: "Tracer", args: tuple, result: t.Any, dur: float, token: t.Any) -> None:
    tr.counts["pipeline.engine.frames"] += result.frames_completed
    tr.counts["hw.link.transactions"] += result.total_link_transactions
    tr.counts["sim.fastforward.jumps"] += result.ff_jumps
    tr.counts["ff_frames_skipped"] += result.ff_frames_skipped


def _stepper_after(tr: "Tracer", args: tuple, result: t.Any, dur: float, token: t.Any) -> None:
    tr.counts["batch.epochs"] += result.epochs
    tr.counts["batch.root_solves"] += result.root_solves


def _cache_get_after(tr: "Tracer", args: tuple, result: t.Any, dur: float, token: t.Any) -> None:
    tr.counts["cache_hits" if result is not None else "cache_misses"] += 1


def _cache_put_after(tr: "Tracer", args: tuple, result: t.Any, dur: float, token: t.Any) -> None:
    cache, key = args[0], args[1]
    try:
        tr.counts["exec.cache.bytes"] += cache.path_for(key).stat().st_size
    except OSError:  # the cache degrades a failed write to "no cache"
        pass


HOOKS: dict[str, tuple[t.Callable | None, t.Callable]] = {
    "Simulator.run": (_sim_before, _sim_after),
    "run_experiment": (None, _experiment_after),
    "PipelineEngine.run": (None, _engine_after),
    "CohortStepper.run": (None, _stepper_after),
    "ResultCache.get": (None, _cache_get_after),
    "ResultCache.put": (None, _cache_put_after),
}


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "kept")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.kept = 0


class Tracer:
    """Installs the wrappers for one pass; use as a context manager.

    ``spans`` holds ``(name, layer, start_s, end_s, parent, pass_id)``
    tuples, start/end relative to the tracer's creation and ``parent``
    the index in ``spans`` of the nearest enclosing kept span (-1 if
    none; spans past :data:`SPAN_CAP` are not kept).
    """

    def __init__(self, pass_id: int = 0, spans: list | None = None):
        self.pass_id = pass_id
        self.spans: list[tuple] = spans if spans is not None else []
        self.stats = {path: _Stat() for _, _, path, _, _ in TARGETS}
        self.counts: dict[str, float] = dict.fromkeys(
            COUNTED + ("ff_frames_skipped", "cache_hits", "cache_misses"), 0
        )
        self._saved: list[tuple[t.Any, str, t.Any]] = []
        self._stack: list[list] = []  # [child time, span index]
        self._epoch = time.perf_counter()

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for layer, module, path, _, _ in TARGETS:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, path, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: t.Any) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, path: str, original: t.Any) -> t.Any:
        kind = None
        fn = original
        if isinstance(original, (classmethod, staticmethod)):
            kind, fn = type(original), original.__func__
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{path} is a generator; a span would end at its first yield")
        stat = self.stats[path]
        stack = self._stack
        spans = self.spans
        before, after = HOOKS.get(path, (None, None))
        clock = time.perf_counter
        epoch = self._epoch
        pass_id = self.pass_id
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: t.Any, **kwargs: t.Any) -> t.Any:
            token = before(args) if before is not None else None
            parent = stack[-1][1] if stack else -1
            index = -1
            if stat.kept < SPAN_CAP:
                stat.kept += 1
                index = len(spans)
                spans.append(None)
            frame = [0.0, index if index >= 0 else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if index >= 0:
                    spans[index] = (path, layer, start - epoch, end - epoch,
                                    parent, pass_id)
            if after is not None:
                after(tracer, args, result, dur, token)
            return result

        return kind(wrapper) if kind is not None else wrapper

    # -- results -------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced pass that took ``wall_s``."""
        out: dict[str, float] = dict.fromkeys(metric_names(), 0)
        attributed = 0.0
        for _, _, path, calls, self_metric in TARGETS:
            stat = self.stats[path]
            if calls is not None:
                out[calls] += stat.calls
            out[self_metric] += stat.self_s
            attributed += stat.self_s
        c = self.counts
        for name in COUNTED:
            out[name] = c[name]
        frames = c["pipeline.engine.frames"]
        out["sim.fastforward.skipped_frac"] = (
            c["ff_frames_skipped"] / frames if frames else 0.0
        )
        lookups = c["cache_hits"] + c["cache_misses"]
        out["exec.cache.hit_frac"] = c["cache_hits"] / lookups if lookups else 0.0
        out["traced_wall_s"] = wall_s
        out["unattributed_s"] = wall_s - attributed
        return out

    def layer_table(self, wall_s: float) -> list[dict[str, t.Any]]:
        """Calls and self time per layer, largest first."""
        rows: dict[str, dict[str, t.Any]] = {}
        for layer, _, path, _, _ in TARGETS:
            stat = self.stats[path]
            row = rows.setdefault(layer, {"layer": layer, "calls": 0, "self_s": 0.0})
            row["calls"] += stat.calls
            row["self_s"] += stat.self_s
        table = sorted(rows.values(), key=lambda r: -r["self_s"])
        attributed = sum(r["self_s"] for r in table)
        table.append({"layer": "(unattributed)", "calls": 0,
                      "self_s": wall_s - attributed})
        for row in table:
            row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
        return table

    def function_stats(self) -> dict[str, dict[str, float]]:
        return {
            path: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for path, s in self.stats.items()
        }
