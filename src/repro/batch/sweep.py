"""Sensitivity sweeps: 10k configs through one cohort.

The reproduction's conclusions rest on four fitted constants. This
module perturbs them — one at a time around the calibrated point, or
over a full grid — and recomputes the key comparison (the normalized
lifetimes of the baseline, the partitioned pipeline, and the rotating
pipeline), answering: *is the paper's ordering an artefact of the fit,
or a robust property of the model family?*

A sweep *point* perturbs the calibrated constants (KiBaM capacity /
``c`` / ``k'``, the power model's ``io_activity``) by per-axis factors;
evaluating a point means predicting the paper's three key lifetimes —
baseline, partitioned first death, ideal rotation — which reduces to
four battery cells per point, each repeating a fixed duty cycle. The
batch path packs every cell of every point into one
:class:`~repro.batch.kibam.KiBaMCohort` and lets the
:class:`~repro.batch.stepper.CohortStepper` drive them all at once.

Because the role structure (and therefore every segment *duration*) is
config-independent, only currents and battery constants vary across the
cohort: per-point currents follow the same affine
``idle + w * (peak - idle)`` expression the scalar
:meth:`~repro.hw.power.PowerModel.current_ma` evaluates, so batch and
the scalar reference :func:`task_reference_scalar` agree bit for bit
(see ``tests/batch/``).

:func:`batch_sweep` chunks the point list through
:class:`~repro.exec.SweepExecutor`, so cohort batching composes with
process parallelism and the content-addressed
:class:`~repro.exec.cache.ResultCache`; each chunk ships its telemetry
home inside the payload, cache hits included, keeping folded telemetry
deterministic across serial / parallel / replayed runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
import typing as t

import numpy as np

from repro.apps.atr.profile import PAPER_PROFILE
from repro.batch.kibam import CohortCell, KiBaMCohort
from repro.batch.stepper import CohortStepper
from repro.core.policies import BaselinePolicy, DVSDuringIOPolicy, SlowestFeasiblePolicy
from repro.core.prediction import role_duty_cycle
from repro.errors import CalibrationError, ConfigurationError, decoding
from repro.exec import SweepExecutor
from repro.exec.cache import ResultCache
from repro.hw.battery.kibam import (
    KiBaM,
    KiBaMParameters,
    PAPER_KIBAM_PARAMETERS,
    lifetime_seconds,
)
from repro.hw.dvs import SA1100_TABLE
from repro.hw.link import PAPER_LINK_TIMING
from repro.hw.power import PAPER_POWER_MODEL, PowerModel
from repro.obs import Telemetry
from repro.pipeline.schedule import plan_node
from repro.pipeline.tasks import Partition
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "PARAMETERS",
    "SCENARIO_KINDS",
    "ScenarioOutcome",
    "SweepPoint",
    "BatchSweepSpec",
    "BatchScenarioResult",
    "BatchStats",
    "BatchSweepResult",
    "VerifyReport",
    "scenario_segments",
    "evaluate_cycles_batch",
    "evaluate_tasks_batch",
    "task_reference_scalar",
    "batch_sweep",
    "verify_sample",
]

#: The calibrated parameters a sweep perturbs, in factor order.
PARAMETERS = ("capacity", "c", "k_prime", "io_activity")

#: The four cells a sensitivity scenario discharges, in cohort order.
SCENARIO_KINDS = ("baseline", "stage0", "stage1", "rotation")

#: Short axis names used in generated grid labels, aligned with
#: :data:`PARAMETERS`.
_SHORT = {"capacity": "cap", "c": "c", "k_prime": "kp", "io_activity": "io"}

#: One scenario task: (label, battery parameters, power model).
Task = tuple[str, KiBaMParameters, PowerModel]


@dataclasses.dataclass(frozen=True)
class ScenarioOutcome:
    """Key normalized lifetimes under one parameterization.

    Attributes
    ----------
    label:
        Which parameters were perturbed, and by how much.
    baseline_h:
        T(1): single node with I/O at full speed (experiment 1).
    partitioned_norm_h:
        Tnorm of the 2-node scheme-1 pipeline (first death / 2).
    rotating_norm_h:
        Tnorm with ideal rotation (balanced death / 2).
    """

    label: str
    baseline_h: float
    partitioned_norm_h: float
    rotating_norm_h: float

    @property
    def partitioning_rnorm(self) -> float:
        """Rnorm of partitioning alone vs the baseline."""
        return self.partitioned_norm_h / self.baseline_h

    @property
    def rotation_rnorm(self) -> float:
        """Rnorm of partitioning + rotation vs the baseline."""
        return self.rotating_norm_h / self.baseline_h

    @property
    def ordering_holds(self) -> bool:
        """The paper's headline: baseline < partitioned < rotating."""
        return self.baseline_h < self.partitioned_norm_h < self.rotating_norm_h


# ---------------------------------------------------------------------------
# sweep points
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One sweep config: per-axis perturbation factors.

    ``factors`` aligns with :data:`PARAMETERS`
    (capacity, c, k_prime, io_activity); a factor of 1.0 leaves that
    axis at its calibrated value.
    """

    label: str
    factors: tuple[float, float, float, float]

    def task(self) -> Task:
        """Resolve to the calibrated constants with factors applied.

        ``c`` is clamped to 0.95 and ``io_activity`` to 1.0, so large
        factors stay physical.
        """
        battery = PAPER_KIBAM_PARAMETERS
        power = PAPER_POWER_MODEL
        cap_f, c_f, kp_f, io_f = self.factors
        battery = dataclasses.replace(
            battery,
            capacity_mah=battery.capacity_mah * cap_f,
            c=min(0.95, battery.c * c_f),
            k_prime_per_hour=battery.k_prime_per_hour * kp_f,
        )
        power = power.replace(io_activity=min(1.0, power.io_activity * io_f))
        return (self.label, battery, power)


@dataclasses.dataclass(frozen=True)
class BatchSweepSpec:
    """What to sweep: axes, span, and grid resolution.

    ``mode="grid"`` takes the full cross product (``grid ** len(parameters)``
    configs — ``grid=10`` over all four axes is the 10k-config sweep);
    ``mode="one_at_a_time"`` perturbs each axis separately around the
    nominal point (``grid=3`` gives the classic nine-row table).
    """

    grid: int = 3
    rel_span: float = 0.10
    mode: str = "grid"
    parameters: tuple[str, ...] = PARAMETERS
    deadline_s: float = 2.3
    max_hours: float = 400.0

    def __post_init__(self) -> None:
        if self.grid < 1:
            raise ConfigurationError(f"grid must be >= 1, got {self.grid}")
        if not 0.0 < self.rel_span < 1.0:
            raise ConfigurationError(
                f"rel_span must be in (0, 1), got {self.rel_span}"
            )
        if self.mode not in ("grid", "one_at_a_time"):
            raise ConfigurationError(f"unknown sweep mode {self.mode!r}")
        unknown = [p for p in self.parameters if p not in PARAMETERS]
        if unknown or not self.parameters:
            raise ConfigurationError(
                f"parameters must be a non-empty subset of {PARAMETERS}, "
                f"got {self.parameters}"
            )

    def axis_factors(self) -> tuple[float, ...]:
        """Evenly spaced factors spanning ``1 ± rel_span``."""
        if self.grid == 1:
            return (1.0,)
        lo = 1.0 - self.rel_span
        step = 2.0 * self.rel_span / (self.grid - 1)
        return tuple(lo + step * i for i in range(self.grid))

    def points(self) -> tuple[SweepPoint, ...]:
        """The sweep's configs, in deterministic enumeration order."""
        factors = self.axis_factors()
        if self.mode == "one_at_a_time":
            points = [SweepPoint("nominal", (1.0, 1.0, 1.0, 1.0))]
            for parameter in self.parameters:
                for f in factors:
                    if f == 1.0:
                        continue
                    axis = tuple(
                        f if p == parameter else 1.0 for p in PARAMETERS
                    )
                    points.append(
                        SweepPoint(f"{parameter} {f - 1.0:+.0%}", axis)
                    )
            return tuple(points)
        axes = [factors if p in self.parameters else (1.0,) for p in PARAMETERS]
        points = []
        for combo in itertools.product(*axes):
            label = " ".join(
                f"{_SHORT[p]}{(f - 1.0) * 100.0:+.3g}%"
                for p, f in zip(PARAMETERS, combo)
                if p in self.parameters
            )
            points.append(SweepPoint(label, combo))
        return tuple(points)


# ---------------------------------------------------------------------------
# scenario structure (config-independent)
# ---------------------------------------------------------------------------

def scenario_segments(deadline_s: float = 2.3) -> tuple[tuple, ...]:
    """The four duty-cycle segment tuples a scenario discharges.

    Hoists the role structure out of the per-config loop: partitioning,
    plans, and DVS policy depend only on the paper's profile, link
    timing and the deadline, never on the battery or ``io_activity``,
    so all configs share these segments and differ only in currents.
    The cells are what the analytical predictor discharges — baseline
    from the single-node :class:`BaselinePolicy` role (experiment 1),
    the scheme-1 pair under DVS-during-I/O
    (:func:`~repro.core.prediction.predict_first_death`), and rotation
    as the pair's concatenated cycles
    (:func:`~repro.core.optimizer.predict_rotation_lifetime_hours`).
    """
    table = SA1100_TABLE
    timing = PAPER_LINK_TIMING
    single = Partition(PAPER_PROFILE)
    single_plans = [plan_node(single.stage(0), timing, deadline_s, table)]
    single_roles = BaselinePolicy().role_configs(single_plans, table)
    pair = Partition(PAPER_PROFILE, (1,))
    pair_plans = [plan_node(a, timing, deadline_s, table) for a in pair.assignments]
    pair_roles = DVSDuringIOPolicy(SlowestFeasiblePolicy()).role_configs(
        pair_plans, table
    )
    baseline = role_duty_cycle(single_roles[0], timing, deadline_s)
    stages = [role_duty_cycle(role, timing, deadline_s) for role in pair_roles]
    rotation: list = []
    for cycle in stages:
        rotation.extend(cycle)
    return (baseline, stages[0], stages[1], tuple(rotation))


def _task_cycles(
    task: Task,
    segments4: tuple[tuple, ...],
    memo: dict[t.Any, tuple[tuple[tuple[float, float], ...], ...]],
) -> tuple[tuple[tuple[float, float], ...], ...]:
    """The four ``(current, dt)`` cycles for one task's power model.

    Currents are memoized per power-model identity: sweep points share
    curve objects (only ``io_activity`` varies), so a 10k-point grid
    computes each distinct current set once.
    """
    _, _, power = task
    key = (
        power.io_activity,
        power.sleep_ma,
        id(power.table),
        tuple(id(curve) for curve in power.curves.values()),
    )
    got = memo.get(key)
    if got is not None:
        return got
    table = SA1100_TABLE
    cycles = tuple(
        tuple(
            (power.current_ma(seg.mode, table.level_at(seg.level_mhz)), seg.duration_s)
            for seg in segments
        )
        for segments in segments4
    )
    memo[key] = cycles
    return cycles


# ---------------------------------------------------------------------------
# batch evaluation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BatchScenarioResult:
    """Outcomes plus the identity oracle for one cohort evaluation."""

    outcomes: tuple[ScenarioOutcome, ...]
    #: Completed duty cycles per (config, cell kind) — compare against
    #: the scalar reference for frame-count identity.
    cycles: tuple[tuple[int, int, int, int], ...]
    epochs: int
    root_solves: int


def evaluate_cycles_batch(
    cells: t.Sequence[tuple[KiBaMParameters, tuple[tuple[float, float], ...]]],
    max_hours: float = 400.0,
    obs: t.Any = None,
) -> tuple[tuple[float, ...], tuple[int, ...], int, int]:
    """Advance arbitrary ``(battery, cycle)`` cells through one cohort.

    The rung-sized entry point the explore scheduler uses: unlike
    :func:`evaluate_tasks_batch` it imposes no four-cell scenario shape
    — callers pack whatever ragged cell list a promotion cohort needs —
    and a cell outliving ``max_hours`` reports ``inf`` instead of
    raising, because "no death within the horizon" is a verdict for the
    scheduler, not an error.

    Returns ``(death_s, cycles, epochs, root_solves)`` with ``death_s``
    and ``cycles`` aligned to ``cells``; each death is bit-identical to
    the scalar :func:`~repro.hw.battery.kibam.lifetime_seconds` walk.
    """
    if not cells:
        return ((), (), 0, 0)
    cohort = KiBaMCohort([CohortCell(params, cycle) for params, cycle in cells])
    result = CohortStepper(cohort, max_hours * SECONDS_PER_HOUR, obs=obs).run()
    return (
        tuple(float(d) for d in result.death_s),
        tuple(int(c) for c in result.cycles),
        result.epochs,
        result.root_solves,
    )


def evaluate_tasks_batch(
    tasks: t.Sequence[Task],
    deadline_s: float = 2.3,
    max_hours: float = 400.0,
    obs: t.Any = None,
) -> BatchScenarioResult:
    """Evaluate many sensitivity scenarios in one cohort pass.

    The batch twin of mapping :func:`task_reference_scalar` over
    ``tasks`` — same outcomes, bit for bit, at cohort speed.
    """
    if not tasks:
        return BatchScenarioResult((), (), 0, 0)
    segments4 = scenario_segments(deadline_s)
    memo: dict[t.Any, tuple] = {}
    cells: list[CohortCell] = []
    for task in tasks:
        _, battery, _ = task
        for cycle in _task_cycles(task, segments4, memo):
            cells.append(CohortCell(battery, cycle))
    cohort = KiBaMCohort(cells)
    result = CohortStepper(cohort, max_hours * SECONDS_PER_HOUR, obs=obs).run()
    if np.isinf(result.death_s).any():
        row = int(np.flatnonzero(np.isinf(result.death_s))[0])
        raise CalibrationError(
            f"{tasks[row // 4][0]} ({SCENARIO_KINDS[row % 4]}): no death "
            f"within {max_hours} h (current too low for this parameterization)"
        )
    hours = result.death_s / SECONDS_PER_HOUR
    outcomes = []
    cycle_counts = []
    for i, (label, _, _) in enumerate(tasks):
        base, s0, s1, rot = (float(h) for h in hours[4 * i : 4 * i + 4])
        outcomes.append(
            ScenarioOutcome(
                label=label,
                baseline_h=base,
                partitioned_norm_h=min(s0, s1) / 2.0,
                rotating_norm_h=rot / 2.0,
            )
        )
        cycle_counts.append(tuple(int(c) for c in result.cycles[4 * i : 4 * i + 4]))
    return BatchScenarioResult(
        outcomes=tuple(outcomes),
        cycles=tuple(cycle_counts),
        epochs=result.epochs,
        root_solves=result.root_solves,
    )


# ---------------------------------------------------------------------------
# scalar reference twin
# ---------------------------------------------------------------------------

def task_reference_scalar(
    task: Task,
    deadline_s: float = 2.3,
    max_hours: float = 400.0,
) -> tuple[ScenarioOutcome, tuple[int, int, int, int]]:
    """The scalar twin of one batched scenario: outcome + cycle counts.

    Runs the shared reference loop
    (:func:`repro.hw.battery.kibam.lifetime_seconds`) over the same
    four cycles the cohort packs, so spot checks can assert both
    lifetime equality and frame-count identity. The outcome also equals
    the analytical predictor's
    (:func:`~repro.core.prediction.predict_first_death` and
    :func:`~repro.core.optimizer.predict_rotation_lifetime_hours`) bit
    for bit (asserted in tests).
    """
    label, battery, _ = task
    segments4 = scenario_segments(deadline_s)
    cycles4 = _task_cycles(task, segments4, {})
    deaths = []
    counts = []
    for cycle in cycles4:
        death_s, count = lifetime_seconds(
            KiBaM(battery), cycle, max_hours * SECONDS_PER_HOUR
        )
        if not math.isfinite(death_s):
            raise CalibrationError(
                f"{label}: no death within {max_hours} h "
                "(current too low for this parameterization)"
            )
        deaths.append(death_s / SECONDS_PER_HOUR)
        counts.append(count)
    outcome = ScenarioOutcome(
        label=label,
        baseline_h=deaths[0],
        partitioned_norm_h=min(deaths[1], deaths[2]) / 2.0,
        rotating_norm_h=deaths[3] / 2.0,
    )
    return outcome, (counts[0], counts[1], counts[2], counts[3])


# ---------------------------------------------------------------------------
# chunked sweep through the executor
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BatchStats:
    """Accounting for one :func:`batch_sweep` call."""

    configs: int
    cells: int
    chunks: int
    executed: int
    cache_hits: int
    epochs: int
    root_solves: int
    wall_s: float

    @property
    def configs_per_sec(self) -> float:
        """Throughput over the whole call (cache hits included)."""
        return self.configs / self.wall_s if self.wall_s > 0 else float("inf")


@dataclasses.dataclass(frozen=True)
class BatchSweepResult:
    """Everything one batched sweep produced."""

    spec: BatchSweepSpec
    points: tuple[SweepPoint, ...]
    outcomes: tuple[ScenarioOutcome, ...]
    cycles: tuple[tuple[int, int, int, int], ...]
    stats: BatchStats

    def summary(self) -> dict[str, t.Any]:
        """JSON-stable headline numbers (registry / CLI / bench)."""
        holds = sum(1 for o in self.outcomes if o.ordering_holds)
        part = [o.partitioning_rnorm for o in self.outcomes]
        rot = [o.rotation_rnorm for o in self.outcomes]
        return {
            "configs": self.stats.configs,
            "ordering_holds": holds,
            "ordering_fraction": holds / max(1, len(self.outcomes)),
            "partitioning_rnorm_min": min(part),
            "partitioning_rnorm_max": max(part),
            "rotation_rnorm_min": min(rot),
            "rotation_rnorm_max": max(rot),
            "frames": int(sum(sum(c) for c in self.cycles)),
        }


def _chunk_job(item: tuple) -> dict[str, t.Any]:
    """Worker entry point: evaluate one chunk of points (picklable)."""
    points, deadline_s, max_hours, events = item
    obs = Telemetry(events=events)
    result = evaluate_tasks_batch(
        [point.task() for point in points],
        deadline_s=deadline_s,
        max_hours=max_hours,
        obs=obs,
    )
    # Labels are reconstructed by the parent from its own point list
    # (chunk outcomes are in point order), so shipping them back would
    # only fatten every pickle and cache entry.
    return {
        "outcomes": [
            [o.baseline_h, o.partitioned_norm_h, o.rotating_norm_h]
            for o in result.outcomes
        ],
        "cycles": [list(c) for c in result.cycles],
        "epochs": result.epochs,
        "root_solves": result.root_solves,
        "obs": obs,
    }


def _chunk_from_payload(item: tuple, payload: t.Any) -> dict[str, t.Any]:
    """A cached chunk, its telemetry rebuilt (stale forms raise
    :class:`~repro.errors.PayloadFormatError`, a cache miss)."""
    with decoding("cached batch chunk"):
        return {**payload, "obs": Telemetry.from_dict(payload["obs"])}


def batch_sweep(
    spec: BatchSweepSpec,
    jobs: int = 1,
    cache: ResultCache | None = None,
    chunk_size: int = 2048,
    obs: t.Any = None,
    events: bool = False,
    flight: t.Any = None,
) -> BatchSweepResult:
    """Run a whole sweep spec through chunked cohorts.

    Chunks of ``chunk_size`` points become :class:`SweepExecutor` work
    items, so ``jobs > 1`` fans cohorts over processes and a
    :class:`ResultCache` short-circuits repeated chunks — results are
    bit-identical across serial, parallel, and cache-replayed runs.
    Telemetry (``batch.epoch`` events when ``events=True``, ``batch.*``
    counters always) rides home inside each chunk payload and is folded
    into ``obs`` in input order, so ``obs`` is the same on cold,
    cache-replayed and parallel runs. An optional
    :class:`~repro.obs.flight.FlightRecorder` (``flight=``) journals
    each chunk and streams live progress.
    """
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    points = spec.points()
    started = time.perf_counter()
    items = [
        (points[i : i + chunk_size], spec.deadline_s, spec.max_hours, events)
        for i in range(0, len(points), chunk_size)
    ]
    keys = None
    if cache is not None:
        keys = [cache.key_for("batch_sweep", "v4", item) for item in items]
    if flight is not None:
        flight.phase("batch", total=len(items))
    executor = SweepExecutor(jobs=jobs, cache=cache, flight=flight)
    payloads = executor.map(
        _chunk_job,
        items,
        keys=keys,
        encode=lambda payload: {**payload, "obs": payload["obs"].as_dict()},
        decode=_chunk_from_payload,
    )
    outcomes: list[ScenarioOutcome] = []
    cycles: list[tuple[int, int, int, int]] = []
    epochs = 0
    root_solves = 0
    for payload in payloads:
        for base, part, rot in payload["outcomes"]:
            outcomes.append(
                ScenarioOutcome(points[len(outcomes)].label, base, part, rot)
            )
        cycles.extend(tuple(int(c) for c in row) for row in payload["cycles"])
        epochs += int(payload["epochs"])
        root_solves += int(payload["root_solves"])
        if obs is not None:
            child = payload["obs"]
            for event in child.events:
                obs.events.emit(event.kind, event.ts, event.actor, **event.data)
            obs.metrics.merge(child.metrics)
    wall_s = time.perf_counter() - started
    stats = BatchStats(
        configs=len(points),
        cells=len(points) * len(SCENARIO_KINDS),
        chunks=len(items),
        executed=executor.stats.executed,
        cache_hits=executor.stats.cache_hits,
        epochs=epochs,
        root_solves=root_solves,
        wall_s=wall_s,
    )
    return BatchSweepResult(
        spec=spec,
        points=points,
        outcomes=tuple(outcomes),
        cycles=tuple(cycles),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# scalar-vs-vector spot checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Outcome of a scalar-vs-vector spot check."""

    checked: int
    frames_identical: bool
    max_rel_err: float
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Frames identical and lifetimes within float noise (1e-9)."""
        return self.frames_identical and self.max_rel_err <= 1e-9


def verify_sample(result: BatchSweepResult, sample: int = 8) -> VerifyReport:
    """Re-run a deterministic sample of configs through the scalar path.

    Asserts the acceptance contract: per-cell completed-cycle counts
    (frame counts) identical, lifetimes within float noise. In practice
    the batch path is bit-identical, so ``max_rel_err`` is 0.0.
    """
    n = len(result.points)
    k = max(1, min(sample, n))
    indices = sorted({round(i * (n - 1) / max(1, k - 1)) for i in range(k)})
    max_rel = 0.0
    frames_ok = True
    mismatches: list[str] = []
    for i in indices:
        point = result.points[i]
        outcome, counts = task_reference_scalar(
            point.task(),
            deadline_s=result.spec.deadline_s,
            max_hours=result.spec.max_hours,
        )
        got = result.outcomes[i]
        for field in ("baseline_h", "partitioned_norm_h", "rotating_norm_h"):
            a = getattr(got, field)
            b = getattr(outcome, field)
            rel = abs(a - b) / max(abs(b), 1e-300)
            max_rel = max(max_rel, rel)
            if rel > 1e-9:
                mismatches.append(
                    f"{point.label}: {field} batch={a!r} scalar={b!r}"
                )
        if result.cycles[i] != counts:
            frames_ok = False
            mismatches.append(
                f"{point.label}: frames batch={result.cycles[i]} scalar={counts}"
            )
    return VerifyReport(
        checked=len(indices),
        frames_identical=frames_ok,
        max_rel_err=max_rel,
        mismatches=tuple(mismatches),
    )
