"""Successive halving over a four-rung fidelity ladder.

The whole design space enters rung 0 and rung 2 settles the frontier:

=====  ==========  =====================================  ============
rung   name        evaluator                              cost/config
=====  ==========  =====================================  ============
0      predict     closed-form average-current prescreen  ~ microseconds
1      cohort      exact battery walk (KiBaM cohort or    ~ milliseconds
                   closed-form bucket for the ablation
                   chemistries)
2      fast        full simulation, ``mode="fast"``       ~ 0.1 s
3      exact       audit: a hash-picked sample re-run     ~ seconds per
                   with ``mode="exact"``                  audited config
=====  ==========  =====================================  ============

The ladder is data. :data:`RUNGS` lists each :class:`Rung`: its name,
a ``score(ladder, candidates, report)`` function that evaluates the
entrants at that rung's fidelity and drops the disqualified, and its
promotion. One loop in :func:`explore` owns everything the rungs
share: the :class:`RungReport`, executor accounting, wall time, the
flight-recorder phase, ``progress``, and the registry snapshot with
its resume cursor.

After each rung, candidates are ranked by normalized lifetime (T/N,
the paper's efficiency metric at that rung's fidelity) and only the
top ``keep[rung]`` promote — so with the default budgets well over 99%
of a 100k-config space never reaches a simulation. Every promotion is
the one rule :func:`repro.explore.budget.promote`: stratify by
deadline value, split ``keep`` across the strata, take each stratum's
head, sort the result on ``(-score, index)``. Rungs 0 and 1 split
evenly and rank by score. Promotion into rung 3 is *adaptive* — strata
get places in proportion to how much rung 1 and rung 2 disagreed
about their ranking — and *frontier-aware*: within a stratum,
candidates promote by Pareto layer over (lifetime, frames, deadline
misses) before scalar score, so a config that trades lifetime for
throughput reaches the frontier instead of being buried by a scalar
sort (:func:`repro.explore.pareto.pareto_layers`).

Rung 3 is an audit, after Yu et al.'s assertions on sampled traces
(arXiv 0710.4714). Its entrants keep their fast-rung numbers and
``run_id``s; the one in :data:`AUDIT_EVERY` that a hash of (session
fingerprint, index) picks re-runs in exact mode and must match its
fast run (:func:`repro.sim.fastforward.divergence`), or the session
raises :class:`~repro.errors.AuditError`.

Constraints ride the ladder too: each rung applies the cheapest check
that can already disqualify a config (static schedule feasibility and
link budget at rung 0, death-within-horizon at rung 1, the full
:func:`repro.obs.checks.paper_monitors` replay at rung 2), all
speaking the same :class:`~repro.obs.checks.Verdict` vocabulary.

Rung 0 is driven by the model-guided sampler
(:mod:`repro.explore.surrogate`), which keeps the space implicit and
proposes batches from a quantized effect surrogate until the set rung 0
promotes is stable and closed under single-axis moves. It never scores:
every number comes from the analytic prescreen, and a probe at least
the size of the space scores every config, which is the brute-force
reference the tests compare against.

Determinism contract
--------------------
The exported frontier is byte-identical across serial, ``--jobs N``,
and cache-replayed executions because every ingredient is: enumeration
order and indices are fixed by the space; promotion sorts on
``(-score, index)``; the audit sample is a hash, not a draw; workers
return JSON-round-trippable payloads the parent folds in input order;
and no wall-clock or scheduling value enters scores, verdicts,
records, or the export payload. The guided sampler and the budget
controller keep the contract — no RNG, ties on enumeration index —
and ``resume=`` extends it across process deaths: each completed rung
persists a cursor (promoted set, scores, verdicts) through the
registry's explore-session snapshots, and a resumed run replays that
cursor into exactly the state an uninterrupted run would hold, so the
resumed frontier is byte-identical too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
import typing as t

from repro.apps.atr.profile import PAPER_PROFILE, TaskProfile
from repro.core.optimizer import duty_cycle_currents, resolve_roles
from repro.core.prediction import role_duty_cycle
from repro.errors import (
    AuditError,
    ConfigurationError,
    InfeasiblePartitionError,
    ScheduleError,
    decoding,
)
from repro.exec import SweepExecutor
from repro.exec.cache import ResultCache, stable_key
from repro.explore.budget import promote, rank_disagreement
from repro.explore.pareto import OBJECTIVES, pareto_indices, pareto_layers
from repro.explore.space import ExploreConfig, SpaceSpec, check_limit
from repro.explore.surrogate import guided_sample
from repro.hw.battery.peukert import peukert_rate
from repro.hw.power import PowerMode
from repro.obs.checks import (
    Verdict,
    paper_monitors,
    replay,
    static_link_budget_verdict,
    static_verdict,
)
from repro.sim.fastforward import divergence
from repro.units import SECONDS_PER_HOUR, mah_to_mas

__all__ = [
    "AUDIT_EVERY",
    "FRONTIER_FORMAT",
    "RUNGS",
    "Rung",
    "RungReport",
    "FrontierMember",
    "ExploreResult",
    "check_explore_args",
    "explore",
    "explore_fingerprint",
]

@dataclasses.dataclass
class RungReport:
    """Accounting for one rung of the ladder.

    ``entered``/``evaluated``/``disqualified``/``promoted`` are
    deterministic content (they enter registry records and the export);
    ``wall_s``/``executed``/``cache_hits`` describe *this* execution and
    stay out of anything compared across modes.
    """

    name: str
    entered: int = 0
    evaluated: int = 0
    disqualified: int = 0
    promoted: int = 0
    wall_s: float = 0.0
    executed: int = 0
    cache_hits: int = 0

    #: The deterministic fields, in record order.
    CONTENT: t.ClassVar = ("name", "entered", "evaluated", "disqualified", "promoted")

    def content(self) -> dict[str, t.Any]:
        """The deterministic subset (registry / export form)."""
        return {field: getattr(self, field) for field in self.CONTENT}


@dataclasses.dataclass(frozen=True)
class FrontierMember:
    """One last-rung survivor with the objectives of its fast run."""

    config: ExploreConfig
    lifetime_hours: float
    frames: int
    deadline_misses: int
    run_id: str

    @property
    def tnorm_hours(self) -> float:
        """Normalized lifetime T/N, the paper's efficiency metric."""
        return self.lifetime_hours / self.config.n_stages

    def as_dict(self) -> dict[str, t.Any]:
        """JSON-stable form for exports and registry records."""
        return {
            "label": self.config.label,
            "config": dict(
                dataclasses.asdict(self.config), cut=list(self.config.cut)
            ),
            "lifetime_hours": self.lifetime_hours,
            "tnorm_hours": self.tnorm_hours,
            "frames": self.frames,
            "deadline_misses": self.deadline_misses,
            "run_id": self.run_id,
        }


@dataclasses.dataclass
class ExploreResult:
    """Everything one exploration produced."""

    space: SpaceSpec
    keep: tuple[int, int, int]
    fingerprint: str
    n_configs: int
    rungs: list[RungReport]
    frontier: tuple[FrontierMember, ...]
    survivors: tuple[FrontierMember, ...]
    disqualified: dict[str, int]
    wall_s: float
    #: Guided-sampler accounting (:meth:`GuidedReport.content` form).
    sampler: dict[str, t.Any]
    #: How many rungs were replayed from a resume cursor (telemetry).
    resumed_rungs: int = 0

    @property
    def configs_per_sec(self) -> float:
        """Whole-session throughput over the full population."""
        return self.n_configs / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def pruned_before_sim_fraction(self) -> float:
        """Share of configs that never reached a full simulation."""
        if self.n_configs == 0:
            return 0.0
        sim_entered = next(
            (r.entered for r in self.rungs if r.name == "fast"), 0
        )
        return 1.0 - sim_entered / self.n_configs

    def frontier_payload(self) -> dict[str, t.Any]:
        """The deterministic export: byte-identical across modes.

        ``format`` is :data:`FRONTIER_FORMAT`; ``sampler`` is the
        deterministic rung-0 sampler accounting; the ``frontier`` array
        is what serial, ``--jobs N``, cache-replayed and resumed runs
        agree on byte-for-byte.
        """
        return {
            "format": FRONTIER_FORMAT,
            "space": {"size": self.n_configs, "fingerprint": self.fingerprint},
            "keep": list(self.keep),
            "objectives": [[name, sense] for name, sense in OBJECTIVES],
            "sampler": self.sampler,
            "rungs": [r.content() for r in self.rungs],
            "disqualified": dict(sorted(self.disqualified.items())),
            "frontier": [m.as_dict() for m in self.frontier],
        }


@dataclasses.dataclass
class _Candidate:
    """Mutable per-config state threaded through the rungs."""

    config: ExploreConfig
    score: float = 0.0  # normalized lifetime (hours) at the last rung
    prev_score: float = 0.0  # score at the rung before (fidelity check)
    lifetime_hours: float = 0.0
    frames: int = 0
    deadline_misses: int = 0
    run_id: str = ""


# ---------------------------------------------------------------------------
# shared ladder state
# ---------------------------------------------------------------------------

#: Resume-cursor format. Since 2, candidate run ids hash the columnar
#: event digest (:meth:`repro.obs.events.EventLog.digest`); since 3,
#: the last rung keeps the fast runs' ids instead of minting exact ones.
CURSOR_VERSION = 3
#: The rungs an older cursor may resume after: those whose run ids
#: (none before ``fast``) this build reproduces.
_OLDER_CURSORS = ((1, ("predict", "cohort")), (2, ("predict", "cohort", "fast")))
#: The last rung re-runs in exact mode one entrant in this many.
AUDIT_EVERY = 8
#: The export's format: since 2, frontier values and run ids come from
#: the fast rung; exports without the key confirmed each in exact mode.
FRONTIER_FORMAT = "repro-frontier/2"


@dataclasses.dataclass
class _Ladder:
    """One exploration's shared state: what every rung function reads."""

    space: SpaceSpec
    keep: tuple[int, int, int]
    limit: int | None
    mode: str  # the rung-0 driver, recorded in cursors: always "guided"
    fingerprint: str
    n_configs: int
    probe: int
    chunk_size: int
    executor: SweepExecutor  # holds the result cache, if any
    registry: t.Any
    disqualified: dict[str, int] = dataclasses.field(default_factory=dict)
    rungs: list[RungReport] = dataclasses.field(default_factory=list)
    #: Guided-sampler accounting (:meth:`GuidedReport.content` form).
    sampler: dict[str, t.Any] | None = None
    #: Fast runs of the survivors the audit picks, by config index.
    fast_runs: dict[int, t.Any] = dataclasses.field(default_factory=dict)

    def cursor(self, candidates: list[_Candidate]) -> dict[str, t.Any]:
        """The resumable state after the last completed rung — pure content.

        The promoted set (enumeration indices plus the scores and metrics
        later rungs read), the rung reports, verdict tallies and the
        identity fields a resume checks. No wall clock enters, and JSON
        floats round-trip exactly, so a restored cursor is bit-identical.
        """
        return {
            "version": CURSOR_VERSION,
            "mode": self.mode,
            "keep": list(self.keep),
            "limit": self.limit,
            "n_configs": self.n_configs,
            "rung": self.rungs[-1].name,
            "rungs": [r.content() for r in self.rungs],
            "disqualified": dict(sorted(self.disqualified.items())),
            "sampler": self.sampler,
            "candidates": [
                [c.config.index, c.score, c.prev_score, c.lifetime_hours,
                 c.frames, c.deadline_misses, c.run_id]
                for c in candidates
            ],
        }

    def restore(self, resume: dict[str, t.Any]) -> tuple[list[_Candidate], int]:
        """Validate a resume cursor against this ladder and load its state.

        The cursor must name the same driver mode, budgets, limit and
        universe size (the caller matches the space by fingerprint), or
        resuming would mix two ladders. Returns ``(candidates,
        completed_rungs)``.
        """
        if not isinstance(resume, dict) or "rung" not in resume:
            raise ConfigurationError(
                "resume cursor must be a dict with rung state (got "
                f"{type(resume).__name__})"
            )
        version, rung = resume.get("version"), resume["rung"]
        if version != CURSOR_VERSION and not any(
            version == v and rung in rungs for v, rungs in _OLDER_CURSORS
        ):
            raise ConfigurationError(
                f"resume cursor version {version!r} after rung {rung!r} "
                f"cannot resume under cursor version {CURSOR_VERSION}; "
                "start the exploration afresh"
            )
        for field, want in (
            ("mode", self.mode),
            ("keep", list(self.keep)),
            ("limit", self.limit),
            ("n_configs", self.n_configs),
        ):
            got = resume.get(field)
            if got != want:
                raise ConfigurationError(
                    f"resume cursor disagrees on {field}: cursor has "
                    f"{got!r}, this invocation has {want!r}"
                )
        names = [r.name for r in RUNGS]
        if rung not in names:
            raise ConfigurationError(
                f"resume cursor names unknown rung {rung!r}"
            )
        completed = names.index(rung) + 1
        contents = resume.get("rungs", [])
        if [r["name"] for r in contents] != names[:completed]:
            raise ConfigurationError(
                f"resume cursor rung reports inconsistent with rung {rung!r}"
            )
        self.rungs = [
            RungReport(r["name"], *(int(r[k]) for k in RungReport.CONTENT[1:]))
            for r in contents
        ]
        self.disqualified = {
            str(k): int(v) for k, v in resume.get("disqualified", {}).items()
        }
        self.sampler = resume.get("sampler")
        candidates = [
            _Candidate(
                self.space.config_at(int(index)), float(score), float(prev),
                float(hours), int(frames), int(misses), str(run_id),
            )
            for index, score, prev, hours, frames, misses, run_id in (
                resume.get("candidates", [])
            )
        ]
        return candidates, completed

    def snapshot(
        self,
        rung: str,
        candidates: list[_Candidate],
        frontier: t.Sequence[dict[str, t.Any]] = (),
    ) -> None:
        """Append one explore-session row, with its cursor, to the registry."""
        if self.registry is None:
            return
        from repro.obs.store import build_explore_record, git_revision

        self.registry.record_explore(
            build_explore_record(
                self.fingerprint,
                self.n_configs,
                rung,
                [r.content() for r in self.rungs],
                frontier,
                git_sha=git_revision(),
                cursor=self.cursor(candidates),
            )
        )


def _disqualify(
    disqualified: dict[str, int], report: RungReport, *verdicts: Verdict
) -> None:
    """Tally one disqualified config under each failed monitor."""
    for verdict in verdicts:
        disqualified[verdict.monitor] = disqualified.get(verdict.monitor, 0) + 1
    report.disqualified += 1


# ---------------------------------------------------------------------------
# rung 0: analytic prescreen
# ---------------------------------------------------------------------------

def _config_structure(
    config: ExploreConfig, profile: TaskProfile
) -> tuple[tuple, ...]:
    """Per-role duty cycles (DutySegments) for one config's structure.

    Raises the scheduling errors of its parts; callers translate those
    into disqualification verdicts.
    """
    roles = resolve_roles(
        profile,
        config.cut,
        config.policy_object(),
        config.timing(),
        config.deadline_s,
    )
    return tuple(
        role_duty_cycle(role, config.timing(), config.deadline_s)
        for role in roles
    )


def _prescreen(
    space: SpaceSpec,
    configs: t.Sequence[ExploreConfig],
    report: RungReport,
    disqualified: dict[str, int],
    structures: dict[tuple, tuple] | None = None,
    drains: dict[tuple, tuple[float, float, float, float]] | None = None,
) -> list[_Candidate]:
    """Rung 0: score every config analytically; drop infeasible ones.

    Structure (roles and segment durations) depends only on (policy,
    cut, bandwidth, deadline); currents additionally on io_activity —
    so a 100k-config space collapses to a few hundred structure
    resolutions and a few thousand current evaluations, with each
    config just an O(1) capacity/chemistry lookup on top.

    Report counts accumulate, and the memo dicts can be supplied by the
    caller — the guided sampler scores the space in many small batches
    and must not redo structure resolutions (or double-count) per batch.
    """
    # structure key -> ("ok", cycles, comm_s) | ("fail", Verdict)
    if structures is None:
        structures = {}
    # (structure key, io_activity) -> (k_norot_plain, k_rot_plain,
    #                                  k_norot_peukert, k_rot_peukert)
    if drains is None:
        drains = {}
    out: list[_Candidate] = []
    for config in configs:
        if config.rotation_period is not None and config.n_stages < 2:
            _disqualify(disqualified, report, static_verdict(
                "rotation-feasibility", False,
                "rotation needs a pipeline of at least two nodes",
            ))
            continue
        skey = (config.policy, config.cut, config.bandwidth_bps, config.deadline_s)
        entry = structures.get(skey)
        if entry is None:
            try:
                cycles = _config_structure(config, space.profile)
            except (InfeasiblePartitionError, ScheduleError, ConfigurationError) as exc:
                entry = (
                    "fail",
                    static_verdict("schedule-feasibility", False, str(exc)),
                )
            else:
                comm_s = max(
                    sum(
                        seg.duration_s
                        for seg in cycle
                        if seg.mode is PowerMode.COMMUNICATION
                    )
                    for cycle in cycles
                )
                link = static_link_budget_verdict(comm_s, config.deadline_s)
                entry = ("fail", link) if not link.ok else ("ok", cycles, comm_s)
            structures[skey] = entry
        if entry[0] == "fail":
            _disqualify(disqualified, report, entry[1])
            continue
        cycles = entry[1]
        dkey = (skey, config.io_activity)
        factors = drains.get(dkey)
        if factors is None:
            power = config.power_model()
            current_cycles = [
                duty_cycle_currents(cycle, power) for cycle in cycles
            ]
            plain = [sum(i * dt for i, dt in c) for c in current_cycles]
            peuk = [
                sum(peukert_rate(i) * dt for i, dt in c)
                for c in current_cycles
            ]
            n = len(cycles)
            d = config.deadline_s
            factors = (
                d / (max(plain) * n),  # no rotation: critical stage decides
                d / sum(plain),  # rotation: every node sees the concat cycle
                d / (max(peuk) * n),
                d / sum(peuk),
            )
            drains[dkey] = factors
        rotating = config.rotation_period is not None
        if config.chemistry == "peukert":
            k = factors[3] if rotating else factors[2]
        else:
            # KiBaM delivers less than rated capacity at high rates, but
            # the plain average-current bound preserves ranking — which
            # is all a prescreen needs.
            k = factors[1] if rotating else factors[0]
        out.append(
            _Candidate(config=config, score=config.capacity_mah * k)
        )
    report.evaluated += len(configs)
    report.executed += len(configs)
    return out


def _predict(
    ladder: _Ladder, candidates: list[_Candidate], report: RungReport
) -> list[_Candidate]:
    """Rung 0: prescreen what the guided sampler probes."""
    space = ladder.space
    structures: dict[tuple, tuple] = {}
    drains: dict[tuple, tuple[float, float, float, float]] = {}
    by_index: dict[int, _Candidate] = {}

    def evaluate(indices: list[int]) -> list[float | None]:
        found = _prescreen(
            space, space.configs_at(indices), report, ladder.disqualified,
            structures, drains,
        )
        got = {c.config.index: c for c in found}
        by_index.update(got)
        return [got[i].score if i in got else None for i in indices]

    scores, sampler = guided_sample(
        space, ladder.keep[0], evaluate, limit=ladder.limit,
        probe=ladder.probe,
    )
    ladder.sampler = sampler.content()
    return [by_index[i] for i in sorted(scores)]


# ---------------------------------------------------------------------------
# rung 1: cohort / closed-form battery walk
# ---------------------------------------------------------------------------

def _bucket_walk(
    capacity_mas: float,
    cycle: tuple[tuple[float, float], ...],
    rate_fn: t.Callable[[float], float],
    limit_s: float,
) -> tuple[float | None, int]:
    """Death time of a recovery-free charge bucket repeating ``cycle``.

    Closed form over whole cycles plus a segment walk through the last
    partial one — what the KiBaM cohort's exact stepping does for the
    linear and Peukert chemistries. Returns ``(death_s or None past the horizon, full cycles)``.
    """
    drain = sum(rate_fn(i) * dt for i, dt in cycle)
    cycle_s = sum(dt for _, dt in cycle)
    if drain <= 0.0:
        return None, 0
    full = int(capacity_mas // drain)
    t_now = full * cycle_s
    if t_now > limit_s:
        return None, full
    remaining = capacity_mas - full * drain
    for current, dt in cycle:
        rate = rate_fn(current)
        if rate * dt >= remaining:
            if rate <= 0.0:  # pragma: no cover - zero-rate can't drain
                break
            death = t_now + remaining / rate
            return (death, full) if death <= limit_s else (None, full)
        remaining -= rate * dt
        t_now += dt
    # Float slop: the remainder drained exactly at a cycle boundary.
    return (t_now, full + 1) if t_now <= limit_s else (None, full)


def _cohort_job(item: tuple) -> dict[str, t.Any]:
    """Worker entry point: rung-1 metrics for one chunk of configs.

    Returns per-config ``lifetime_s`` (None = alive past the horizon)
    and delivered ``frames``, plus cohort accounting. KiBaM configs
    batch through one structure-of-arrays cohort; the ablation
    chemistries take their closed-form walk.
    """
    from repro.batch.sweep import evaluate_cycles_batch

    configs, max_hours, profile = item
    profile = profile if profile is not None else PAPER_PROFILE
    limit_s = max_hours * SECONDS_PER_HOUR
    lifetimes: list[float | None] = [None] * len(configs)
    frames: list[int] = [0] * len(configs)
    struct_memo: dict[tuple, tuple] = {}
    kibam_cells: list[tuple] = []  # (params, cycle)
    kibam_groups: list[tuple[int, int, int, bool]] = []  # (cfg, start, n, rot)
    for pos, config in enumerate(configs):
        skey = (config.policy, config.cut, config.bandwidth_bps, config.deadline_s)
        cycles = struct_memo.get(skey)
        if cycles is None:
            cycles = _config_structure(config, profile)
            struct_memo[skey] = cycles
        power = config.power_model()
        current_cycles = [duty_cycle_currents(c, power) for c in cycles]
        rotating = config.rotation_period is not None
        if rotating:
            concat: list[tuple[float, float]] = []
            for c in current_cycles:
                concat.extend(c)
            current_cycles = [tuple(concat)]
        if config.chemistry == "kibam":
            params = config.battery_parameters()
            kibam_groups.append(
                (pos, len(kibam_cells), len(current_cycles), rotating)
            )
            kibam_cells.extend((params, cycle) for cycle in current_cycles)
        else:
            rate = peukert_rate if config.chemistry == "peukert" else (
                lambda i: i
            )
            capacity_mas = mah_to_mas(config.capacity_mah)
            deaths = []
            counts = []
            for cycle in current_cycles:
                death, count = _bucket_walk(capacity_mas, cycle, rate, limit_s)
                deaths.append(death)
                counts.append(count)
            _fold_cell_metrics(
                pos, deaths, counts, rotating, config.n_stages,
                lifetimes, frames,
            )
    epochs = 0
    root_solves = 0
    if kibam_cells:
        death_s, counts, epochs, root_solves = evaluate_cycles_batch(
            kibam_cells, max_hours=max_hours
        )
        for pos, start, n, rotating in kibam_groups:
            deaths = [
                None if death_s[start + j] == float("inf") else death_s[start + j]
                for j in range(n)
            ]
            _fold_cell_metrics(
                pos, deaths, list(counts[start : start + n]), rotating,
                configs[pos].n_stages, lifetimes, frames,
            )
    return {
        "lifetime_s": lifetimes,
        "frames": frames,
        "epochs": epochs,
        "root_solves": root_solves,
    }


def _fold_cell_metrics(
    pos: int,
    deaths: list[float | None],
    counts: list[int],
    rotating: bool,
    n_stages: int,
    lifetimes: list[float | None],
    frames: list[int],
) -> None:
    """Per-config lifetime/frames from its cells' deaths and cycles."""
    if rotating:
        # One concatenated cycle per node; every node dies together.
        # Each completed concat cycle delivers n_stages frames.
        lifetimes[pos] = deaths[0]
        frames[pos] = counts[0] * n_stages
    else:
        if any(d is None for d in deaths):
            # Some stage outlives the horizon; the system's first death
            # is not established, so the config can't be ranked exactly.
            lifetimes[pos] = None
            frames[pos] = 0
            return
        critical = min(range(len(deaths)), key=lambda j: (deaths[j], j))
        lifetimes[pos] = deaths[critical]
        frames[pos] = counts[critical]


def _cohort_from_payload(item: tuple, payload: t.Any) -> dict[str, t.Any]:
    """A cached rung-1 chunk: one ``lifetime_s`` and one ``frames`` entry
    per config, or :class:`~repro.errors.PayloadFormatError` (a miss)."""
    n = len(item[0])
    with decoding("cached cohort chunk"):
        if len(payload["lifetime_s"]) != n or len(payload["frames"]) != n:
            raise ValueError(f"expected {n} entries per column")
    return payload


def _cohort_rung(
    ladder: _Ladder, survivors: list[_Candidate], report: RungReport
) -> list[_Candidate]:
    """Rung 1: exact battery walks, chunked through the executor."""
    space, chunk_size = ladder.space, ladder.chunk_size
    items = [
        (
            tuple(c.config for c in survivors[i : i + chunk_size]),
            space.max_hours,
            space.profile,
        )
        for i in range(0, len(survivors), chunk_size)
    ]
    cache = ladder.executor.cache
    keys = None
    if cache is not None:
        keys = [cache.key_for("explore_cohort", "v2", item) for item in items]
    payloads = ladder.executor.map(
        _cohort_job,
        items,
        keys=keys,
        encode=lambda payload: payload,
        decode=_cohort_from_payload,
    )
    out: list[_Candidate] = []
    pos = 0
    for payload in payloads:
        for lifetime_s, n_frames in zip(payload["lifetime_s"], payload["frames"]):
            cand = survivors[pos]
            pos += 1
            if lifetime_s is None:
                _disqualify(ladder.disqualified, report, static_verdict(
                    "death-within-horizon", False,
                    f"no battery death within {space.max_hours:g} h",
                ))
                continue
            cand.lifetime_hours = lifetime_s / SECONDS_PER_HOUR
            cand.frames = int(n_frames)
            cand.score = cand.lifetime_hours / cand.config.n_stages
            out.append(cand)
    report.evaluated = pos
    return out


# ---------------------------------------------------------------------------
# rungs 2/3: full simulation and its audit
# ---------------------------------------------------------------------------

def _sim_kwargs(config: ExploreConfig) -> dict[str, t.Any]:
    """run_experiment kwargs for one config (shared by fast/exact)."""
    return dict(
        battery_factory=config.battery_factory(),
        power_model=config.power_model(),
        timing=config.timing(),
        telemetry=True,
        monitor_interval_s=60.0,
        seed=0,
    )


def _sim_job(item: tuple):
    """Worker entry point: one full simulation (picklable)."""
    from repro.core.experiments import run_experiment

    config, mode, profile = item
    profile = profile if profile is not None else PAPER_PROFILE
    return run_experiment(
        config.experiment_spec(profile), mode=mode, **_sim_kwargs(config)
    )


def _simulate(
    ladder: _Ladder, sims: list[tuple[_Candidate, str]]
) -> list[tuple[t.Any, str]]:
    """Run each ``(candidate, mode)`` in one executor map and register
    each run; returns ``(run, run_id)`` pairs in input order."""
    from repro.core.experiments import (
        _run_from_payload, _run_payload, experiment_fingerprint,
    )
    from repro.obs.store import build_run_record, git_revision

    space, registry = ladder.space, ladder.registry
    items = [(c.config, mode, space.profile) for c, mode in sims]
    cache = ladder.executor.cache
    keys = None
    if cache is not None:
        keys = [cache.key_for("explore_sim", "v1", item) for item in items]
    runs = ladder.executor.map(
        _sim_job,
        items,
        keys=keys,
        encode=_run_payload,
        decode=lambda item, payload: _run_from_payload(
            item[0].experiment_spec(
                item[2] if item[2] is not None else PAPER_PROFILE
            ),
            payload,
        ),
    )
    git_sha = git_revision() if registry is not None else None
    out = []
    for (config, mode, _), run in zip(items, runs):
        kwargs = dict(_sim_kwargs(config), mode=mode)
        record = build_run_record(
            run, experiment_fingerprint(run.spec, kwargs), git_sha=git_sha
        )
        if registry is not None:
            registry.record(record)
        out.append((run, record.run_id))
    return out


def _fast(
    ladder: _Ladder, candidates: list[_Candidate], report: RungReport
) -> list[_Candidate]:
    """Rung 2: fast simulation and the paper monitors. Sets ``prev_score``
    (the cohort score the last promotion compares against) here and
    nowhere else, and keeps the runs the audit will pick."""
    out: list[_Candidate] = []
    runs = _simulate(ladder, [(c, "fast") for c in candidates])
    for cand, (run, run_id) in zip(candidates, runs):
        assert run.obs is not None
        verdicts = replay(run.obs.events, paper_monitors(run.spec))
        failed = [v for v in verdicts if not v.ok]
        if failed:
            _disqualify(ladder.disqualified, report, *failed)
            continue
        if _audited(ladder, cand):
            ladder.fast_runs[cand.config.index] = run
        cand.prev_score = cand.score
        cand.lifetime_hours = run.t_hours
        cand.frames = run.frames
        cand.deadline_misses = run.pipeline.late_results if run.pipeline else 0
        cand.score = run.t_hours / run.spec.n_nodes
        cand.run_id = run_id
        out.append(cand)
    report.evaluated = len(candidates)
    return out


def _audited(ladder: _Ladder, cand: _Candidate) -> bool:
    """Whether the audit re-runs ``cand``: a counter hash, no RNG."""
    key = f"audit:{ladder.fingerprint}:{cand.config.index}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") % AUDIT_EVERY == 0


def _audit(
    ladder: _Ladder, candidates: list[_Candidate], report: RungReport
) -> list[_Candidate]:
    """Rung 3: keep every entrant; audited ones must match in exact mode."""
    audited = [c for c in candidates if _audited(ladder, c)]
    # A session resumed past rung 2 holds no fast runs: re-run them too.
    missing = [c for c in audited if c.config.index not in ladder.fast_runs]
    runs = _simulate(
        ladder, [(c, "fast") for c in missing] + [(c, "exact") for c in audited]
    )
    for cand, (run, _) in zip(missing, runs):
        ladder.fast_runs[cand.config.index] = run
    for cand, (run, _) in zip(audited, runs[len(missing):]):
        problem = divergence(run, ladder.fast_runs[cand.config.index])
        if problem is not None:
            raise AuditError(cand.config.index, *problem)
    report.evaluated = len(audited)
    return candidates


# ---------------------------------------------------------------------------
# promotion and the rung table
# ---------------------------------------------------------------------------

def _rank(cand: _Candidate) -> tuple[float, int]:
    return (-cand.score, cand.config.index)


def _deadline(cand: _Candidate) -> float:
    return cand.config.deadline_s


def _scalar_promotion(
    candidates: list[_Candidate], keep: int
) -> list[_Candidate]:
    """Top ``keep`` by score, split evenly across deadline strata."""
    return promote(candidates, keep, _deadline, _rank)


def _frontier_promotion(
    candidates: list[_Candidate], keep: int
) -> list[_Candidate]:
    """Promotion into the last rung: adaptive budgets, frontier-aware.

    Rung 2 is the first rung that measures all three objectives and the
    first with two fidelities behind it, so two things change:

    - each stratum's share of ``keep`` is weighted by its rung-1-vs-rung-2
      :func:`~repro.explore.budget.rank_disagreement`: strata whose cheap
      fidelity mis-ranked survivors get more places;
    - within a stratum, candidates promote by Pareto layer over
      (lifetime, frames, deadline misses) before scalar score, so a
      config on the running frontier promotes ahead of a dominated
      config with a fatter scalar score.

    With one stratum and mutually non-dominated survivors this is plain
    top-``keep`` by ``(-score, index)``.
    """

    def disagreement(stratum: list[_Candidate]) -> float:
        return rank_disagreement(
            [(c.prev_score, c.score, c.config.index) for c in stratum]
        )

    def by_layer(stratum: list[_Candidate]) -> list[_Candidate]:
        points = [
            (c.lifetime_hours, c.frames, c.deadline_misses) for c in stratum
        ]
        return [
            cand
            for layer in pareto_layers(points)
            for cand in sorted((stratum[i] for i in layer), key=_rank)
        ]

    return promote(
        candidates, keep, _deadline, _rank,
        weight=disagreement, arrange=by_layer,
    )


@dataclasses.dataclass(frozen=True)
class Rung:
    """One rung of the ladder, as data."""

    name: str
    #: ``score(ladder, candidates, report)``: evaluate the entrants at
    #: this rung's fidelity, tally the disqualified into ``report`` and
    #: the ladder, and return the survivors.
    score: t.Callable[[_Ladder, list[_Candidate], RungReport], list[_Candidate]]
    #: ``promotion(survivors, keep)``, or None for the last rung, where
    #: every survivor is a frontier candidate.
    promotion: t.Callable[[list[_Candidate], int], list[_Candidate]] | None


#: The ladder, cheapest rung first. Rung ``k`` promotes ``keep[k]``.
RUNGS = (
    Rung("predict", _predict, _scalar_promotion),
    Rung("cohort", _cohort_rung, _scalar_promotion),
    Rung("fast", _fast, _frontier_promotion),
    Rung("exact", _audit, None),
)


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------

def explore_fingerprint(
    space: SpaceSpec,
    keep: tuple[int, int, int],
    limit: int | None,
) -> str:
    """The session fingerprint :func:`explore` files registry rows under.

    Exposed so callers (the CLI's ``--resume latest``) can locate a
    prior session's cursor without re-running anything. The trailing
    ``"guided"`` names the rung-0 driver; it keeps the keys of sessions
    recorded by earlier builds valid.
    """
    return stable_key("explore", space, tuple(keep), limit, "guided")


def check_explore_args(
    keep: t.Sequence[int],
    chunk_size: int,
    limit: int | None,
    probe: int,
    guided: bool = True,
) -> None:
    """Refuse :func:`explore` arguments that name no valid session.

    :func:`explore` runs this before any work; the CLI runs it before
    printing its header.
    """
    if len(keep) != 3 or any(k < 1 for k in keep):
        raise ConfigurationError(
            f"keep must be three positive budgets, got {keep!r}"
        )
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    check_limit(limit)
    if probe < 1:
        raise ConfigurationError(f"probe must be >= 1, got {probe}")
    if not guided:
        raise ConfigurationError(
            "the exhaustive rung-0 driver was removed; the guided sampler "
            "scores every config when probe >= the space size"
        )


def explore(
    space: SpaceSpec,
    keep: tuple[int, int, int] = (512, 16, 6),
    jobs: int = 1,
    cache: ResultCache | None = None,
    registry: t.Any = None,
    chunk_size: int = 256,
    limit: int | None = None,
    progress: t.Callable[[RungReport], None] | None = None,
    flight: t.Any = None,
    guided: bool = True,
    probe: int = 2048,
    resume: dict[str, t.Any] | None = None,
) -> ExploreResult:
    """Resolve a design space to its Pareto frontier.

    Parameters
    ----------
    space:
        What to search.
    keep:
        Promotion budgets after rungs 0, 1, and 2 (rung 3 keeps all
        its entrants and audits a sample of them).
    jobs, cache:
        Fan rung work over processes / short-circuit repeated rungs;
        results are bit-identical either way.
    registry:
        Optional :class:`~repro.obs.store.RunRegistry`: every simulated
        survivor registers as a run record, and each completed rung
        appends an explore-session snapshot carrying a resume cursor.
    chunk_size:
        Configs per rung-1 cohort chunk (one cache entry each).
    limit:
        Deterministically subsample the space to at most this many
        configs (at least one) before rung 0.
    progress:
        Called with each rung's :class:`RungReport` as it completes.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`: attaches to
        the rung executor (per-item journal, heartbeats) and opens one
        recorder phase per rung.
    guided:
        Must be True: the model-guided sampler is the only rung-0
        driver, and it never materializes the space.
    probe:
        Size of the sampler's initial stratified probe batch and of
        each subsequent proposal round. A probe at least the size of
        the space scores every config.
    resume:
        A cursor from a previous session's explore snapshot (see
        ``RunRegistry.latest_explore_cursor``). Completed rungs are
        restored; the rung in flight when the session died re-runs
        against the result cache, so at most the killed chunk repeats,
        and the frontier is byte-identical to an uninterrupted run's.
    """
    check_explore_args(keep, chunk_size, limit, probe, guided)
    started = time.perf_counter()
    n_configs = len(space.indices(limit)) if limit is not None else space.size()
    executor = SweepExecutor(jobs=jobs, cache=cache, flight=flight)
    ladder = _Ladder(
        space=space,
        keep=tuple(keep),
        limit=limit,
        mode="guided",
        fingerprint=explore_fingerprint(space, keep, limit),
        n_configs=n_configs,
        probe=probe,
        chunk_size=chunk_size,
        executor=executor,
        registry=registry,
    )
    candidates: list[_Candidate] = []
    completed = 0
    if resume is not None:
        candidates, completed = ladder.restore(resume)

    totals = executor.lifetime
    for position in range(completed, len(RUNGS)):
        rung = RUNGS[position]
        t0 = time.perf_counter()
        executed, cache_hits = totals.executed, totals.cache_hits
        phase = flight.phase(rung.name) if flight is not None else None
        report = RungReport(
            rung.name, entered=len(candidates) if position else n_configs
        )
        candidates = rung.score(ladder, candidates, report)
        if rung.promotion is not None:
            candidates = rung.promotion(candidates, keep[position])
        report.promoted = len(candidates)
        report.executed += totals.executed - executed
        report.cache_hits += totals.cache_hits - cache_hits
        report.wall_s = time.perf_counter() - t0
        ladder.rungs.append(report)
        if phase is not None:
            if phase.total is None:
                # A rung with no executor items (the analytic prescreen)
                # ticks its bar wholesale when it completes.
                phase.total = phase.done = report.evaluated
            flight.finish_phase(
                note=f"promoted {report.promoted}/{report.entered}"
            )
        ladder.snapshot(rung.name, candidates)
        if progress is not None:
            progress(report)

    survivors = tuple(
        FrontierMember(
            c.config, c.lifetime_hours, c.frames, c.deadline_misses, c.run_id
        )
        for c in candidates
    )
    points = [
        (m.lifetime_hours, m.frames, m.deadline_misses) for m in survivors
    ]
    frontier = tuple(survivors[i] for i in pareto_indices(points))
    result = ExploreResult(
        space=space,
        keep=tuple(keep),
        fingerprint=ladder.fingerprint,
        n_configs=n_configs,
        rungs=ladder.rungs,
        frontier=frontier,
        survivors=survivors,
        disqualified=ladder.disqualified,
        wall_s=time.perf_counter() - started,
        sampler=ladder.sampler,
        resumed_rungs=completed,
    )
    ladder.snapshot("frontier", candidates, [m.as_dict() for m in frontier])
    return result
