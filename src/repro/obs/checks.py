"""Invariant monitors, replayed over recorded telemetry event logs.

The paper's claims are *behavioural*: frames land within the delay
constraint D (§3), batteries only discharge, serial links are never
saturated past what the 115.2 kbps budget allows (§4.5), rotation
equalizes discharge across nodes (§5.5), and the recovery protocol
detects a dead node within its ack timeout (§5.4). Each claim here
becomes an :class:`InvariantMonitor` — a small state machine that
:func:`replay` feeds a recorded :class:`~repro.obs.events.EventLog`,
event by event, keeping the first violating event as evidence. That is
the one way monitors run: a live run and a run decoded from the cache or
the registry are checked by the same pass over the same stored stream,
without re-simulating.

:func:`paper_monitors` builds the applicable set for one experiment
spec, and :func:`check_paper_ordering` asserts the Fig. 10 headline —
normalized lifetime ordered rotation > recovery > DVS-I/O >
plain partitioning (2C > 2B > 2A > 2) — over registry summaries.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.obs.events import EventLog, TelemetryEvent

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.experiments import ExperimentSpec
    from repro.obs.store import RunRecord

__all__ = [
    "Verdict",
    "InvariantMonitor",
    "FrameDeadlineMonitor",
    "ChargeMonotonicMonitor",
    "LinkBusyFractionMonitor",
    "RotationBalanceMonitor",
    "RecoveryLatencyMonitor",
    "replay",
    "static_verdict",
    "static_link_budget_verdict",
    "paper_monitors",
    "PAPER_ORDERING",
    "check_paper_ordering",
    "tnorms_from_records",
]

#: Fig. 10 normalized-lifetime ordering, best first: rotation (2C)
#: beats recovery (2B) beats DVS over I/O (2A) beats plain
#: partitioning (2).
PAPER_ORDERING = ("2C", "2B", "2A", "2")


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of one invariant check.

    Attributes
    ----------
    monitor:
        The monitor's name (e.g. ``"frame-deadline"``).
    ok:
        True when the invariant held over every observed event.
    detail:
        Human-readable explanation (what held, or how it broke).
    violating_event:
        The *first* event that broke the invariant, or None.
    events_seen:
        How many relevant events the monitor inspected — a passing
        verdict over zero events means "vacuously true", and callers
        may want to distinguish that.
    violations:
        Total violation count (the verdict keeps only the first event,
        but counts all of them).
    inconclusive:
        True when the monitor saw a ``log.truncated`` terminal record
        and found no violation: the stored stream is incomplete, so
        "no violation observed" cannot be promoted to "invariant held".
        An inconclusive verdict is never ``ok``.
    """

    monitor: str
    ok: bool
    detail: str
    violating_event: TelemetryEvent | None = None
    events_seen: int = 0
    violations: int = 0
    inconclusive: bool = False

    def as_dict(self) -> dict[str, t.Any]:
        """JSON-stable form for CLI output and tests."""
        return {
            "monitor": self.monitor,
            "ok": self.ok,
            "detail": self.detail,
            "violating_event": (
                self.violating_event.as_dict() if self.violating_event else None
            ),
            "events_seen": self.events_seen,
            "violations": self.violations,
            "inconclusive": self.inconclusive,
        }


class InvariantMonitor:
    """Base class: a check over a stream of recorded telemetry events.

    Subclasses set :attr:`name`, declare the event kinds they care
    about in :attr:`kinds` (empty = all), implement :meth:`_observe`,
    and optionally :meth:`_final_detail` for the passing-verdict text.
    The base class handles kind filtering, counting, and first-violation
    bookkeeping: a subclass reports a violation by calling
    :meth:`_violate`. :func:`replay` drives it with :meth:`observe`.
    """

    name = "invariant"
    #: Event kinds this monitor inspects; empty tuple = every kind.
    kinds: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.events_seen = 0
        self.violations = 0
        self.first_violation: TelemetryEvent | None = None
        self._first_detail: str | None = None
        #: Events dropped by the log's storage cap, from the terminal
        #: ``log.truncated`` record (see :meth:`EventLog.seal`).
        self.truncated_dropped = 0

    # -- event interface ------------------------------------------------
    def observe(self, event: TelemetryEvent) -> None:
        """Inspect one event (what :func:`replay` calls per event)."""
        if event.kind == "log.truncated":
            # The stream is incomplete past the storage cap — every
            # monitor notes this regardless of its kinds filter, since
            # *its* events may be among the dropped ones.
            self.truncated_dropped = int(event.data.get("dropped", 0))
            return
        if self.kinds and event.kind not in self.kinds:
            return
        self.events_seen += 1
        self._observe(event)

    def _observe(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def _violate(self, event: TelemetryEvent, detail: str) -> None:
        """Record one violation (first one becomes the evidence)."""
        self.violations += 1
        if self.first_violation is None:
            self.first_violation = event
            self._first_detail = detail

    # -- verdict ---------------------------------------------------------
    def _final_detail(self) -> str:
        """Explanation for a *passing* verdict."""
        return f"held over {self.events_seen} events"

    def _finalize(self) -> None:
        """Hook for end-of-stream checks (e.g. aggregate bounds)."""

    def verdict(self) -> Verdict:
        """Evaluate the invariant over everything observed so far.

        A monitor that observed a ``log.truncated`` record without
        finding a violation returns an *inconclusive* (not-ok) verdict:
        absence of evidence over a truncated stream proves nothing. A
        found violation stays conclusive — it happened in the events
        that *were* kept.
        """
        self._finalize()
        violated = self.violations > 0
        inconclusive = self.truncated_dropped > 0 and not violated
        if violated:
            detail = self._first_detail or "violated"
            if self.violations > 1:
                detail += f" (+{self.violations - 1} more)"
        elif inconclusive:
            detail = (
                f"inconclusive: event log truncated "
                f"({self.truncated_dropped} events dropped); "
                f"over the kept events: {self._final_detail()}"
            )
        else:
            detail = self._final_detail()
        return Verdict(
            monitor=self.name,
            ok=not violated and not inconclusive,
            detail=detail,
            violating_event=self.first_violation,
            events_seen=self.events_seen,
            violations=self.violations,
            inconclusive=inconclusive,
        )


class FrameDeadlineMonitor(InvariantMonitor):
    """Every frame's end-to-end latency respects the §3 contract.

    A frame traversing an N-stage pipeline with frame delay D must
    finish within N * D of its emission (the engine reports
    ``latency_s`` against emission); ``tolerance_s`` mirrors the
    engine's lateness tolerance for boundary frames. ``grace_s``
    widens the bound for configurations whose protocol legitimately
    delays frames — with §5.4 recovery enabled, a frame in flight when
    a node dies waits out the detection timeout before the survivor
    migrates, so the worst-case contract extends by that timeout.
    """

    name = "frame-deadline"
    kinds = ("frame.result", "ff.epoch", "batch.epoch")

    def __init__(
        self,
        deadline_s: float,
        n_stages: int = 1,
        tolerance_s: float = 0.05,
        grace_s: float = 0.0,
    ):
        super().__init__()
        self.bound_s = n_stages * deadline_s + grace_s + tolerance_s
        self.frames = 0

    def _observe(self, event: TelemetryEvent) -> None:
        if event.kind in ("ff.epoch", "batch.epoch"):
            # Fast-forwarded frames are analytic copies of a steady-state
            # period whose frames were simulated exactly — and already
            # individually checked here as frame.result events — so the
            # epoch only contributes to the coverage count. Batched
            # cohort epochs coalesce whole duty cycles the same way.
            self.frames += int(event.data.get("frames", 0))
            return
        self.frames += 1
        latency = event.data.get("latency_s")
        if latency is not None and latency > self.bound_s:
            self._violate(
                event,
                f"frame {event.data.get('frame')} latency "
                f"{latency:.3f}s > bound {self.bound_s:.3f}s",
            )

    def _final_detail(self) -> str:
        return f"{self.frames} frames within {self.bound_s:.3f}s"


class ChargeMonotonicMonitor(InvariantMonitor):
    """Battery state-of-charge never increases (no charger on board).

    Tracks ``battery.draw`` samples per node; any uptick beyond
    ``tolerance`` (float-noise allowance) is a violation — a charge
    increase would mean the battery model leaked energy back.
    """

    name = "charge-monotonic"
    kinds = ("battery.draw",)

    def __init__(self, tolerance: float = 1e-9):
        super().__init__()
        self.tolerance = tolerance
        self._last: dict[str, float] = {}

    def _observe(self, event: TelemetryEvent) -> None:
        fraction = event.data.get("charge_fraction")
        if fraction is None:
            return
        prev = self._last.get(event.actor)
        if prev is not None and fraction > prev + self.tolerance:
            self._violate(
                event,
                f"{event.actor} charge rose {prev:.6f} -> {fraction:.6f}",
            )
        self._last[event.actor] = fraction

    def _final_detail(self) -> str:
        return (
            f"charge non-increasing across {len(self._last)} nodes, "
            f"{self.events_seen} samples"
        )


class LinkBusyFractionMonitor(InvariantMonitor):
    """Serial-link utilisation stays inside its physical budget.

    Accumulates ``link.xfer`` durations per sender and checks the busy
    fraction (transfer seconds per elapsed second) against
    ``max_fraction``. A fraction above 1.0 would mean overlapping
    transactions on a half-duplex serial port — a scheduler bug — and
    the paper's §4.5 budget keeps the intended fraction well below
    saturation. Checked at stream end over the full span (a warmup
    window avoids meaningless fractions over the first transfer).

    Fast-forwarded runs report skipped transfers as coalesced
    ``ff.epoch`` records whose ``link_busy_s`` is keyed by the same
    sender names ``link.xfer`` uses, so both sources accumulate into
    one per-sender total and the busy fraction stays well-defined.
    Batched cohort runs emit the same shape as ``batch.epoch``
    (analytic sweeps involve no link at all, so their ``link_busy_s``
    is empty and only the coverage span widens).
    """

    name = "link-busy-fraction"
    kinds = ("link.xfer", "ff.epoch", "batch.epoch")

    def __init__(self, max_fraction: float = 0.98, warmup_s: float = 10.0):
        super().__init__()
        self.max_fraction = max_fraction
        self.warmup_s = warmup_s
        self._busy_s: dict[str, float] = {}
        self._first_ts: float | None = None
        self._last_ts = 0.0
        self._last_event: dict[str, TelemetryEvent] = {}

    def _observe(self, event: TelemetryEvent) -> None:
        if event.kind in ("ff.epoch", "batch.epoch"):
            for actor, busy in event.data.get("link_busy_s", {}).items():
                self._busy_s[actor] = self._busy_s.get(actor, 0.0) + busy
                self._last_event[actor] = event
            if self._first_ts is None:
                self._first_ts = event.data.get("t0", event.ts)
            self._last_ts = max(self._last_ts, event.ts)
            return
        duration = event.data.get("duration_s", 0.0)
        self._busy_s[event.actor] = self._busy_s.get(event.actor, 0.0) + duration
        self._last_event[event.actor] = event
        if self._first_ts is None:
            self._first_ts = event.ts - duration
        self._last_ts = max(self._last_ts, event.ts)

    def busy_fractions(self) -> dict[str, float]:
        """Per-sender busy fraction over the observed span."""
        if self._first_ts is None:
            return {}
        span = self._last_ts - self._first_ts
        if span <= 0:
            return {}
        return {actor: busy / span for actor, busy in self._busy_s.items()}

    def _finalize(self) -> None:
        if self.violations:
            return
        span = (self._last_ts - self._first_ts) if self._first_ts is not None else 0.0
        if span < self.warmup_s:
            return
        for actor, fraction in sorted(self.busy_fractions().items()):
            if fraction > self.max_fraction:
                self._violate(
                    self._last_event[actor],
                    f"{actor} busy fraction {fraction:.3f} > "
                    f"{self.max_fraction:.3f}",
                )

    def _final_detail(self) -> str:
        fractions = self.busy_fractions()
        if not fractions:
            return "no link traffic"
        peak = max(fractions.values())
        return (
            f"{self.events_seen} transfers, peak busy fraction "
            f"{peak:.3f} <= {self.max_fraction:.3f}"
        )


class RotationBalanceMonitor(InvariantMonitor):
    """Rotation equalizes discharge across the pipeline (§5.5).

    The whole point of node rotation is that no node burns its battery
    on the expensive stage while others idle. Tracks each node's
    state-of-charge from ``battery.draw`` samples; once every node has
    reported, the spread between the fullest and emptiest cell must
    stay within ``tolerance`` (a charge fraction). The check is
    evaluated per sample, so the verdict pins the moment balance was
    first lost. An ``ff.epoch`` record refreshes every node's charge to
    its post-jump value (without a check of its own), so the first
    sample after a fast-forward jump is not compared against another
    node's sample from before the skipped span.
    """

    name = "rotation-balance"
    kinds = ("battery.draw", "ff.epoch")

    def __init__(self, tolerance: float = 0.12, n_nodes: int | None = None):
        super().__init__()
        self.tolerance = tolerance
        self.n_nodes = n_nodes
        self._charge: dict[str, float] = {}

    def _observe(self, event: TelemetryEvent) -> None:
        fraction = event.data.get("charge_fraction")
        if fraction is None:
            return
        if event.kind == "ff.epoch":
            self._charge.update(fraction)
            return
        self._charge[event.actor] = fraction
        expected = self.n_nodes if self.n_nodes is not None else 2
        if len(self._charge) < max(expected, 2):
            return
        spread = max(self._charge.values()) - min(self._charge.values())
        if spread > self.tolerance:
            self._violate(
                event,
                f"discharge spread {spread:.4f} > {self.tolerance:.4f} "
                f"at t={event.ts:.0f}s",
            )

    def _final_detail(self) -> str:
        if len(self._charge) < 2:
            return "fewer than two nodes reported"
        spread = max(self._charge.values()) - min(self._charge.values())
        return f"discharge spread {spread:.4f} <= {self.tolerance:.4f}"


class RecoveryLatencyMonitor(InvariantMonitor):
    """Dead nodes are detected within the §5.4 ack timeout.

    The recovery protocol detects a partner's death by missed acks:
    the survivor migrates after at most ``detect_timeout_s`` (the
    paper's 3-deadline bound, 6.9 s) plus up to one in-flight frame.
    Pairs each ``recovery.migrate`` with the most recent
    ``battery.dead`` and checks the gap.
    """

    name = "recovery-latency"
    kinds = ("battery.dead", "recovery.migrate")

    def __init__(self, detect_timeout_s: float, slack_s: float = 2.3):
        super().__init__()
        self.bound_s = detect_timeout_s + slack_s
        self._last_death_ts: float | None = None
        self.migrations = 0

    def _observe(self, event: TelemetryEvent) -> None:
        if event.kind == "battery.dead":
            self._last_death_ts = event.ts
            return
        self.migrations += 1
        if self._last_death_ts is None:
            self._violate(event, "migration with no preceding node death")
            return
        gap = event.ts - self._last_death_ts
        if gap > self.bound_s:
            self._violate(
                event,
                f"detection latency {gap:.3f}s > bound {self.bound_s:.3f}s",
            )

    def _final_detail(self) -> str:
        if not self.migrations:
            return "no migrations observed"
        return f"{self.migrations} migrations detected within {self.bound_s:.3f}s"


# ---------------------------------------------------------------------------
# driving monitors
# ---------------------------------------------------------------------------

def replay(
    log: EventLog | t.Iterable[TelemetryEvent],
    monitors: t.Sequence[InvariantMonitor],
) -> list[Verdict]:
    """Feed a recorded event stream through monitors; return verdicts.

    The only monitor driver: a run is checked after it ends, from its
    stored log, so a cached run re-checked later yields the verdicts its
    live run did; a sealed (truncated) log yields *inconclusive* ones
    unless a violation was seen. A log is read with
    :meth:`~repro.obs.events.EventLog.stream`, so the pass keeps no
    event behind and builds only the events some monitor inspects: the
    union of their :attr:`InvariantMonitor.kinds` plus ``log.truncated``,
    which every monitor notes.
    """
    if isinstance(log, EventLog):
        kinds: set[str] | None = {"log.truncated"}
        for monitor in monitors:
            if not monitor.kinds:
                kinds = None
                break
            kinds.update(monitor.kinds)
        records = log.stream(kinds)
    else:
        records = log
    for event in records:
        for monitor in monitors:
            monitor.observe(event)
    return [monitor.verdict() for monitor in monitors]


def static_verdict(monitor: str, ok: bool, detail: str) -> Verdict:
    """A verdict decided analytically, without an event stream.

    The explore scheduler's cheap rungs (analytic prescreen, cohort
    pass) have no telemetry events to replay, but their constraint
    outcomes should speak the same :class:`Verdict` language the
    replayed monitors do — one vocabulary for "why was this config
    disqualified" across the whole fidelity ladder.
    """
    return Verdict(monitor=monitor, ok=ok, detail=detail)


def static_link_budget_verdict(
    busy_s: float, deadline_s: float, max_fraction: float = 0.98
) -> Verdict:
    """Closed-form counterpart of :class:`LinkBusyFractionMonitor`.

    In steady state each stage repeats its transfers once per frame
    period, so the worst per-sender busy fraction is just (transfer
    seconds per frame) / deadline. Uses the replayed monitor's name
    and default bound, so a config the prescreen disqualifies here is
    the same config the full simulation's monitor would have flagged.
    """
    fraction = busy_s / deadline_s if deadline_s > 0 else float("inf")
    ok = fraction <= max_fraction
    detail = (
        f"static busy fraction {fraction:.3f} "
        + ("<=" if ok else ">")
        + f" {max_fraction:.3f}"
    )
    return Verdict(monitor="link-busy-fraction", ok=ok, detail=detail)


def paper_monitors(spec: "ExperimentSpec") -> list[InvariantMonitor]:
    """The invariant set applicable to one experiment configuration.

    Every pipeline run gets the deadline, charge-monotonicity, and
    link-budget checks; rotation configurations add discharge balance,
    recovery configurations add detection latency.
    """
    monitors: list[InvariantMonitor] = [
        ChargeMonotonicMonitor(),
    ]
    if spec.io_enabled:
        grace_s = (
            spec.recovery_detect_timeout_s + spec.deadline_s
            if spec.recovery
            else 0.0
        )
        monitors.append(
            FrameDeadlineMonitor(
                spec.deadline_s, n_stages=spec.n_nodes, grace_s=grace_s
            )
        )
        monitors.append(LinkBusyFractionMonitor())
    if spec.rotation_period is not None:
        monitors.append(RotationBalanceMonitor(n_nodes=spec.n_nodes))
    if spec.recovery:
        monitors.append(
            RecoveryLatencyMonitor(
                spec.recovery_detect_timeout_s, slack_s=spec.deadline_s
            )
        )
    return monitors


def check_paper_ordering(
    tnorms: t.Mapping[str, float],
    ordering: t.Sequence[str] = PAPER_ORDERING,
) -> list[Verdict]:
    """Assert the Fig. 10 normalized-lifetime ordering.

    ``tnorms`` maps experiment label -> normalized lifetime in hours
    (typically from registry summaries). Produces one verdict per
    adjacent pair in ``ordering`` (2C > 2B, 2B > 2A, 2A > 2) plus a
    missing-label verdict for any label without a run.
    """
    verdicts: list[Verdict] = []
    missing = [label for label in ordering if label not in tnorms]
    if missing:
        verdicts.append(
            Verdict(
                monitor="paper-ordering",
                ok=False,
                detail=f"no registered run for labels: {', '.join(missing)}",
            )
        )
        return verdicts
    for better, worse in zip(ordering, ordering[1:]):
        a, b = tnorms[better], tnorms[worse]
        verdicts.append(
            Verdict(
                monitor=f"paper-ordering:{better}>{worse}",
                ok=a > b,
                detail=f"Tnorm[{better}]={a:.2f}h "
                + (">" if a > b else "<=")
                + f" Tnorm[{worse}]={b:.2f}h",
                events_seen=2,
            )
        )
    return verdicts


def tnorms_from_records(records: t.Iterable["RunRecord"]) -> dict[str, float]:
    """label -> normalized lifetime (hours) from registry records."""
    out: dict[str, float] = {}
    for record in records:
        tnorm = record.summary.get("tnorm_hours")
        if tnorm is not None:
            out[record.label] = float(tnorm)
    return out
