"""Steady-state epoch fast-forward for battery-exhaustion runs.

The paper's workload is strictly periodic — one ATR frame every D
seconds until the batteries give out — so after the pipeline fills, the
simulation replays the *same* per-frame event schedule tens of
thousands of times, changing nothing but the battery state. This module
detects that steady state and skips whole epochs of it analytically:

1. **Detection.** Frame deliveries at the host sink anchor the period.
   Every P results (P = 1, or ``n_stages * rotation.period`` under
   §5.5 rotation, whose *system* state only recurs once every node has
   held every role) the controller snapshots every counter and the
   per-node battery-draw logs. Two consecutive windows that match —
   identical ``(current, dt, mode, bucket)`` draw sequences per node,
   identical counter deltas, equal anchor spacing — mean the system
   state is periodic: the next period will replay the last one exactly.
2. **The jump.** ``n`` periods are advanced at once: each battery
   through :meth:`KiBaM.advance_cycles
   <repro.hw.battery.kibam.KiBaM.advance_cycles>` (an O(log n) affine
   map power over the recorded cycle), every counter arithmetically,
   and the pending event schedule rigidly via :meth:`Simulator.warp
   <repro.sim.kernel.Simulator.warp>`. Because the recorded window ends
   exactly at the current draw-log position, the cycle is phase-aligned
   with the lazily-integrated battery state — no cyclic-shift error.
3. **Re-synchronization.** ``n`` is capped so the jump can never
   overshoot a boundary that breaks periodicity: battery death
   (:meth:`KiBaM.safe_cycles <repro.hw.battery.kibam.KiBaM.safe_cycles>`,
   the largest jump whose end state keeps ``DEATH_MARGIN_CYCLES``
   cycles' drain in the available well, crediting the bound well's
   recovery during the jump, so one jump reaches the endgame),
   ``max_frames`` and the horizon. Everything else that breaks
   periodicity — DVS policy switches, rotation epochs (folded into P),
   recovery migrations and timeouts — simply makes consecutive windows differ,
   so the run stays event-exact through the transition and the detector
   re-arms afterwards (e.g. for a recovery survivor's new steady state).

Runs whose timing or workload is stochastic never detect a period (the
windows never match), so ``mode="fast"`` degrades gracefully to exact
simulation; the controller additionally refuses to install when a
random stream *could* advance per frame (link jitter, workload models),
because skipping frames would desynchronize the stream even if the
drawn values happened to repeat.

Each jump is reported as one coalesced ``ff.epoch`` telemetry event
(frames, periods, span, per-node drain and post-jump charge fraction,
per-direction link busy time)
so event-log digests and the invariant monitors in
:mod:`repro.obs.checks` stay well-defined in fast mode.

What fast mode promises is written once, in :func:`divergence`: the
explore ladder's audit and the differential oracle tests both hold a
fast run against its exact run through it.
"""

from __future__ import annotations

import itertools
import typing as t
from collections import deque

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.experiments import ExperimentRun
    from repro.pipeline.engine import PipelineEngine

__all__ = ["FastForwardController", "divergence"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * abs(a)


def divergence(
    exact: "ExperimentRun", fast: "ExperimentRun"
) -> tuple[str, str] | None:
    """The first field where a fast run departs from its exact run.

    Fast mode promises exact mode's frames and bitwise its
    ``repr(t_hours)``; the same node deaths, each within 1e-9 relative;
    the same run end (``end_reason``, and ``end_time_s`` within 1e-9);
    the same deadline misses; and, when both runs recorded telemetry,
    the same paper-monitor verdicts. Returns ``(field, "exact vs
    fast")`` for the first broken promise, or None when all hold.
    """
    from repro.obs.checks import paper_monitors, replay

    def differ(field: str, want: t.Any, got: t.Any) -> tuple[str, str]:
        return field, f"{want!r} vs {got!r}"

    if exact.frames != fast.frames:
        return differ("frames", exact.frames, fast.frames)
    if repr(exact.t_hours) != repr(fast.t_hours):
        return differ("t_hours", exact.t_hours, fast.t_hours)
    deaths, fast_deaths = exact.death_times_s, fast.death_times_s
    if deaths.keys() != fast_deaths.keys() or not all(
        _close(s, fast_deaths[name]) for name, s in deaths.items()
    ):
        return differ("death_times_s", deaths, fast_deaths)
    ex, ff = exact.pipeline, fast.pipeline
    if ex is not None and ff is not None:
        if ex.end_reason != ff.end_reason:
            return differ("end_reason", ex.end_reason, ff.end_reason)
        if not _close(ex.end_time_s, ff.end_time_s):
            return differ("end_time_s", ex.end_time_s, ff.end_time_s)
        if ex.late_results != ff.late_results:
            return differ("deadline_misses", ex.late_results, ff.late_results)
    if exact.obs is not None and fast.obs is not None:
        verdicts = [
            [(v.monitor, v.ok) for v in replay(r.obs.events, paper_monitors(r.spec))]
            for r in (exact, fast)
        ]
        if verdicts[0] != verdicts[1]:
            return differ("verdicts", *verdicts)
    return None


def _timing_is_deterministic(timing: t.Any) -> bool:
    """True when link transactions consume no randomness."""
    return (
        getattr(timing, "startup_jitter_s", 0.0) == 0.0
        and getattr(timing, "corruption_prob", 0.0) == 0.0
    )


def _battery_supports_cycles(battery: t.Any) -> bool:
    """True when the battery exposes the analytic multi-cycle interface."""
    return hasattr(battery, "safe_cycles") and hasattr(battery, "advance_cycles")


class FastForwardController:
    """Detects pipeline steady state and applies epoch jumps.

    Installed by :class:`~repro.pipeline.engine.PipelineEngine` when the
    config requests fast-forward; driven entirely by the engine's
    result-delivery hook (no process of its own), so a run that never
    reaches steady state costs only the per-segment draw logging.
    """

    #: Smallest worthwhile jump: below this the detection bookkeeping
    #: costs more than the skipped events.
    MIN_EPOCHS = 4
    #: Whole cycles of charge left un-jumped above the death boundary.
    #: advance_cycles accepts any end state above one cycle's drain; the
    #: second cycle absorbs rounding between safe_cycles' lifting and
    #: advance_cycles' power, and the endgame — death mid-cycle — is
    #: always simulated exactly.
    DEATH_MARGIN_CYCLES = 2

    def __init__(self, engine: "PipelineEngine"):
        self.engine = engine
        self.sim = engine.sim
        cfg = engine.config
        rot = cfg.rotation
        #: Frames per candidate period: the system state recurs every
        #: frame normally, but only every full rotation cycle under
        #: §5.5 (each node must return to its original role).
        self.period_frames = rot.period * rot.n_stages if rot is not None else 1
        self.enabled = (
            cfg.workload is None
            and _timing_is_deterministic(cfg.timing)
            and all(
                _battery_supports_cycles(n.battery) for n in engine.nodes.values()
            )
        )
        #: Jumps applied / frames and simulated seconds skipped.
        self.jumps = 0
        self.frames_skipped = 0
        self.time_skipped_s = 0.0

        self._node_list = list(engine.nodes.items())
        self._n_nodes = len(self._node_list)
        # Links are created lazily by the hub as traffic first flows, so
        # the set is re-resolved at every anchor (it only ever grows and
        # stabilizes within the first frame; anchors with different link
        # sets are never compared).
        self._link_senders: list[tuple[t.Any, str]] = []
        self._refresh_links()
        # Draw logs are shared list objects installed into the nodes;
        # anchors store *absolute* indices (base + len) so logs can be
        # trimmed as anchors age out of the 3-deep window.
        self._logs: dict[str, list] = {}
        self._base: dict[str, int] = {}
        self._anchors: deque = deque(maxlen=3)
        self._next_anchor = 0

    # -- installation ------------------------------------------------------
    def install(self) -> bool:
        """Attach draw logs to the nodes; returns False when gated off."""
        if not self.enabled:
            return False
        for name, node in self._node_list:
            log: list = []
            self._logs[name] = log
            self._base[name] = 0
            node._draw_log = log
        self._next_anchor = self.engine.results_count + self.period_frames
        return True

    # -- detection ---------------------------------------------------------
    def on_result(self) -> None:
        """Engine hook: called after every delivered result."""
        if self.engine.results_count < self._next_anchor:
            return
        self._take_anchor()
        self._next_anchor = self.engine.results_count + self.period_frames
        if len(self._anchors) == 3:
            self._maybe_jump()

    def _refresh_links(self) -> None:
        links = self.engine.hub.all_links()
        if 2 * len(links) != len(self._link_senders):
            self._link_senders = [
                (link, sender) for link in links for sender in (link.a, link.b)
            ]

    def _take_anchor(self) -> None:
        eng = self.engine
        self._refresh_links()
        self._anchors.append(
            (
                eng.results_count,
                self.sim.now,
                {
                    name: self._base[name] + len(log)
                    for name, log in self._logs.items()
                },
                self._counter_snapshot(),
            )
        )
        if len(self._anchors) == 3:
            # Entries before the oldest retained anchor can never be
            # compared again; drop them so memory stays ~3 periods.
            oldest = self._anchors[0][2]
            for name, log in self._logs.items():
                cut = oldest[name] - self._base[name]
                if cut > 0:
                    del log[:cut]
                    self._base[name] += cut

    def _counter_snapshot(self) -> tuple:
        """Every counter a jump must advance, as one flat tuple.

        Layout: frame_seq, late_results, migrations, then per-node
        frames_processed / level_switches / io_stalls blocks, then
        per-direction link transfer counts, then link byte counts.
        """
        eng = self.engine
        nodes = self._node_list
        parts: list[int] = [eng._frame_seq, eng.late_results, len(eng.migrations)]
        parts.extend(n.frames_processed for _, n in nodes)
        parts.extend(n.level_switches for _, n in nodes)
        parts.extend(n.io_stalls for _, n in nodes)
        parts.extend(link.transfer_count[s] for link, s in self._link_senders)
        parts.extend(link.bytes_moved[s] for link, s in self._link_senders)
        return tuple(parts)

    def _maybe_jump(self) -> None:
        (c0, t0, i0, s0), (c1, t1, i1, s1), (c2, t2, i2, s2) = self._anchors
        if c1 - c0 != c2 - c1:
            return
        if len(s0) != len(s1) or len(s1) != len(s2):
            return  # a link appeared mid-window; wait for fresh anchors
        period = t2 - t1
        if period <= 0 or abs((t1 - t0) - period) > 1e-9 * max(period, 1.0):
            return
        d1 = tuple(b - a for a, b in zip(s0, s1))
        d2 = tuple(b - a for a, b in zip(s1, s2))
        # Identical counter deltas, and no migration inside the window
        # (a migration means the schedule is still reshaping).
        if d1 != d2 or d2[2] != 0:
            return
        cycles: dict[str, list[tuple[float, float, str, str]]] = {}
        # The (current, dt) cycle each battery sees, built once so the
        # budget and the advance integrate the same list.
        segments: dict[str, list[tuple[float, float]]] = {}
        for name, log in self._logs.items():
            base = self._base[name]
            a, b, c = i0[name] - base, i1[name] - base, i2[name] - base
            if b - a != c - b:
                return
            w1, w2 = log[a:b], log[b:c]
            for (cur1, dt1, m1, b1), (cur2, dt2, m2, b2) in zip(w1, w2):
                # Currents, modes and attribution buckets must repeat
                # exactly; durations get a relative tolerance because
                # the emission grid is a float accumulation (last-ulp
                # wobble is expected).
                if (
                    cur1 != cur2
                    or m1 != m2
                    or b1 != b2
                    or abs(dt1 - dt2) > 1e-9 * (dt1 + 1.0)
                ):
                    return
            cycles[name] = w2
            segments[name] = [(cur, dt) for cur, dt, *_ in w2]
        self._jump(period, c2 - c1, d2, cycles, segments)

    # -- the jump ----------------------------------------------------------
    def _epoch_budget(
        self,
        period_s: float,
        frames_per_period: int,
        segments: dict[str, list[tuple[float, float]]],
        drains: dict[str, float],
    ) -> int:
        """Largest number of periods the jump may safely skip."""
        eng = self.engine
        cfg = eng.config
        limit = int((cfg.horizon_s - self.sim.now) / period_s) - 1
        if cfg.max_frames is not None:
            limit = min(
                limit, (cfg.max_frames - eng.results_count - 1) // frames_per_period
            )
        n: int | None = None
        for name, node in self._node_list:
            if node.is_dead or drains[name] <= 0.0:
                continue
            k = node.battery.safe_cycles(
                segments[name], self.DEATH_MARGIN_CYCLES, limit
            )
            n = k if n is None else min(n, k)
        # Nothing drains: the run would never end by exhaustion, so
        # there is no death boundary to race toward — don't jump
        # (max_frames/horizon runs end through exact simulation).
        return 0 if n is None else n

    def _jump(
        self,
        period_s: float,
        frames_per_period: int,
        delta: tuple,
        cycles: dict[str, list[tuple[float, float, str, str]]],
        segments: dict[str, list[tuple[float, float]]],
    ) -> None:
        drains = {
            name: sum(cur * dt for cur, dt in segs) for name, segs in segments.items()
        }
        n = self._epoch_budget(period_s, frames_per_period, segments, drains)
        if n < self.MIN_EPOCHS:
            return
        eng = self.engine
        sim = self.sim
        t_before = sim.now
        span = n * period_s

        # Batteries first (advance_cycles validates its own margin and
        # must see the pre-jump state), then the clock and schedule,
        # then per-node time state against the *new* clock.
        for name, node in self._node_list:
            if node.is_dead or not cycles[name]:
                continue
            node.battery.advance_cycles(segments[name], n)
        sim.warp(span)
        eng._arm_horizon()
        for name, node in self._node_list:
            if node.is_dead:
                continue
            node.warp(span)
            ledger = node._ledger
            if ledger is not None:
                # Advance the energy ledger with the same per-segment
                # products advance_cycles integrated, keeping the
                # conservation invariant within float tolerance.
                for cur, dt, mode, bucket in cycles[name]:
                    ledger.add_charge(name, mode, bucket, cur * dt * n, dt * n)

        # The skipped deliveries repeat the last window's, whole periods
        # later. While the timestamp sample has room it holds every
        # delivery so far, so it takes them as exact simulation would.
        times = eng.result_times
        room = eng.keep_result_times - len(times)
        if room > 0:
            window = times[-frames_per_period:]
            skipped = (ts + k * period_s for k in range(1, n + 1) for ts in window)
            times.extend(itertools.islice(skipped, room))
        eng.results_count += n * frames_per_period
        eng._frame_seq += n * delta[0]
        eng.late_results += n * delta[1]
        eng._next_emit += span
        eng._last_progress += span
        if eng._live_frames:
            for frame in eng._live_frames.values():
                frame.emitted_s += span

        nn = self._n_nodes
        for i, (name, node) in enumerate(self._node_list):
            node.frames_processed += n * delta[3 + i]
            node.level_switches += n * delta[3 + nn + i]
            node.io_stalls += n * delta[3 + 2 * nn + i]
        off = 3 + 3 * nn
        nl = len(self._link_senders)
        for j, (link, sender) in enumerate(self._link_senders):
            link.transfer_count[sender] += n * delta[off + j]
            link.bytes_moved[sender] += n * delta[off + nl + j]

        self.jumps += 1
        self.frames_skipped += n * frames_per_period
        self.time_skipped_s += span
        if eng._log:
            eng._log.emit(
                "ff.epoch",
                sim.now,
                "host",
                frames=n * frames_per_period,
                periods=n,
                period_s=period_s,
                t0=t_before,
                t1=sim.now,
                late=n * delta[1],
                drained_mah={
                    name: drains[name] * n / 3600.0 for name, _ in self._node_list
                },
                charge_fraction={
                    name: node.battery.charge_fraction()
                    for name, node in self._node_list
                },
                link_busy_s=self._link_busy(delta, n),
            )

        # Re-arm detection: logs and anchors restart from the post-jump
        # state (a recovery survivor's new steady state, or the rest of
        # a run whose jump was capped by max_frames or the horizon).
        self._anchors.clear()
        for name, log in self._logs.items():
            log.clear()
            self._base[name] = 0
        self._next_anchor = eng.results_count + self.period_frames

    def _link_busy(self, delta: tuple, n: int) -> dict[str, float]:
        """Per-sender busy seconds in the skipped span (deterministic
        timing: startup per transaction plus the byte rate). Keyed by
        the sending endpoint's name — the same actor naming ``link.xfer``
        events use — so monitors can merge both sources directly."""
        timing = self.engine.config.timing
        base = timing.nominal_duration(0)
        per_byte = timing.nominal_duration(1) - base
        off = 3 + 3 * self._n_nodes
        nl = len(self._link_senders)
        busy: dict[str, float] = {}
        for j, (_link, sender) in enumerate(self._link_senders):
            tx = delta[off + j]
            if not tx:
                continue
            busy[sender] = busy.get(sender, 0.0) + n * (
                tx * base + delta[off + nl + j] * per_byte
            )
        return busy
