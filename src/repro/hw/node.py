"""The node: one Itsy pocket computer.

A node bundles a DVS-capable CPU, a battery, and serial-link endpoints
behind a *power-mode state machine*. The paper's §4.4 taxonomy — idle /
communication / computation — maps one-to-one onto
:class:`~repro.hw.power.PowerMode`; the battery is integrated lazily
over the piecewise-constant segments between mode changes, and a lazy
death timer (see :meth:`ItsyNode._schedule_death_timer`) makes battery
exhaustion interrupt the node at the exact simulated instant the
available charge runs out.
"""

from __future__ import annotations

import typing as t

from repro.errors import ConfigurationError, SimulationError
from repro.hw.battery import Battery
from repro.hw.dvs import DVSTable, FrequencyLevel
from repro.hw.link import SerialLink, Transfer
from repro.hw.power import PowerMode, PowerModel
from repro.sim import Event, Process, Simulator, TraceRecorder

#: PowerMode -> display string, precomputed: segment closes and DVS
#: events need the string form, and enum __str__ is a measurable cost
#: on the per-segment path.
_MODE_STR = {m: str(m) for m in PowerMode}

# Mode constants for the per-event paths (set_state, compute, transfer):
# a module global is one dict probe where ``PowerMode.IDLE`` is two
# attribute lookups.
_IDLE = PowerMode.IDLE
_COMMUNICATION = PowerMode.COMMUNICATION
_COMPUTATION = PowerMode.COMPUTATION
_DEAD = PowerMode.DEAD

__all__ = ["ItsyNode", "NodeDead"]


class NodeDead:
    """Interrupt cause delivered to a node's processes on battery death.

    Attributes
    ----------
    node:
        Name of the node that died.
    time_s:
        Simulated time of death.
    """

    def __init__(self, node: str, time_s: float):
        self.node = node
        self.time_s = time_s

    def __repr__(self) -> str:
        return f"NodeDead({self.node!r} at {self.time_s:.3f}s)"


class ItsyNode:
    """One battery-powered, DVS-capable pipeline node.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Actor name, used in traces and link endpoints.
    battery:
        The node's private battery (the paper's point is precisely that
        batteries are *not* shared).
    power_model:
        Mode/frequency -> current lookup.
    dvs_table:
        Available operating points.
    trace:
        Optional trace recorder (Figs. 2/3/9).
    obs:
        Optional telemetry event bus; the node publishes ``dvs.switch``
        (level changes), ``link.stall`` (blocked rendezvous),
        ``battery.draw`` (state-of-charge samples, see
        ``monitor_interval_s``) and ``battery.dead`` records.
    monitor_interval_s:
        Minimum spacing of ``battery.draw`` samples — the role of
        Itsy's on-board power monitor (§4.4). A sample is taken when a
        battery segment closes at least this long after the previous
        one; ``0`` samples every segment, ``None`` (or no live bus)
        none.
    ledger:
        Optional :class:`~repro.obs.energy.EnergyLedger`; every closed
        battery segment is attributed to a ``(node, mode, bucket)``
        triple (block name / ``"link"`` / ``"idle"``).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        battery: Battery,
        power_model: PowerModel,
        dvs_table: DVSTable,
        trace: TraceRecorder | None = None,
        obs: t.Any = None,
        ledger: t.Any = None,
        monitor_interval_s: float | None = None,
    ):
        self.sim = sim
        self.name = name
        self.battery = battery
        self.power_model = power_model
        self.dvs_table = dvs_table
        self.trace = trace
        # Falsy bus -> None: set_state/transfer guard every emit with
        # ``if self.obs is not None:`` in the hottest loops of the simulation, and a
        # None test is free where a disabled EventLog's __bool__ is not.
        self.obs = obs if obs else None
        #: Optional energy-attribution ledger (repro.obs.energy); None
        #: keeps the per-segment cost at one C-level test.
        self._ledger = ledger
        #: battery.draw sampling period; None unless a live bus listens.
        self._sample_interval = monitor_interval_s if self.obs is not None else None
        self._last_sample_s = -float("inf")

        self.mode = PowerMode.IDLE
        self.level: FrequencyLevel = dvs_table.min
        self.activity = "idle"
        self._detail = ""
        self._segment_start = sim.now
        #: id(level) -> {mode value: current}, for every level of the
        #: node's own DVS table, fixed at construction. Neither key needs
        #: a Python-level ``__hash__`` (the enum's and the frozen
        #: dataclass's both are), and the table's levels stay alive with
        #: the node, so their ids cannot be reused by other objects.
        self._currents: dict[int, dict[str, float]] = {
            id(level): {mode._value_: power_model.current_ma(mode, level) for mode in PowerMode}
            for level in dvs_table.levels
        }
        self._current_ma = self._currents[id(self.level)][self.mode._value_]

        #: Fires (once) with a :class:`NodeDead` when the battery dies.
        self.died: Event = sim.event()
        self.death_time_s: float | None = None
        # Earliest pending death-timer target (absolute sim time); inf
        # when no timer is outstanding. See _schedule_death_timer. The
        # timer event itself is kept alongside because identity — not
        # the armed-for timestamp — must decide whether a firing timer
        # is the earliest pending one: a fast-forward warp shifts
        # targets after timers are armed.
        self._armed_at = float("inf")
        self._armed_timer: Event | None = None
        self._attached: list[Process] = []
        #: Unmatched link offers by grant event, withdrawn on death.
        self._open_offers: dict[Event, SerialLink] = {}
        #: Completed frames this node has fully processed (diagnostics).
        self.frames_processed = 0
        #: DVS level changes performed (the paper treats them as free;
        #: the switch-cost ablation uses this to quantify that choice).
        self.level_switches = 0
        #: Rendezvous the node had to *wait* for (the link partner was
        #: not yet ready when this side offered). A perfectly balanced
        #: pipeline stalls only at the frame cadence; growing stalls
        #: indicate an upstream/downstream imbalance.
        self.io_stalls = 0
        #: Fast-forward instrumentation: when a list is installed here
        #: (see :mod:`repro.sim.fastforward`), every closed segment
        #: appends ``(current_ma, dt_s, mode, bucket)`` so the
        #: steady-state detector can compare whole duty-cycle windows
        #: and a jump can advance the energy ledger analytically. None
        #: (the default) costs one C-level test per segment.
        self._draw_log: list[tuple[float, float, str, str]] | None = None

        self._schedule_death_timer()

    # -- state inspection -------------------------------------------------
    @property
    def is_dead(self) -> bool:
        """True once the battery has been exhausted."""
        return self.mode is PowerMode.DEAD

    @property
    def current_ma(self) -> float:
        """Present battery current draw."""
        return self._current_ma

    def attach(self, process: Process) -> Process:
        """Register a process to be interrupted when this node dies."""
        self._attached.append(process)
        return process

    def spawn(self, generator: t.Generator, name: str | None = None) -> Process:
        """Start and attach a process in one call."""
        return self.attach(self.sim.process(generator, name=name or self.name))

    # -- the power-mode state machine ----------------------------------
    def set_state(
        self,
        mode: PowerMode,
        level: FrequencyLevel | None = None,
        activity: str | None = None,
        detail: str = "",
    ) -> None:
        """Transition to ``mode`` (and optionally a new DVS level) *now*.

        Integrates the battery over the segment just ended, records it
        in the trace, and re-arms the death timer if the new draw could
        outrun the pending one. This is the per-event hot path of exact
        simulation, so the current comes from the construction-time
        table, a zero-length segment is not closed at all, and the
        lazy death-timer test of :meth:`_schedule_death_timer` is
        inlined.
        """
        if self.mode is _DEAD:
            raise SimulationError(f"node {self.name!r} is dead; cannot set state")
        if level is None:
            level = self.level
        elif level is not self.level:
            # Membership is only worth checking for a genuinely new
            # level object: the current one was validated when set.
            if level not in self.dvs_table.levels:
                raise ConfigurationError(f"{level} is not in this node's DVS table")
            self.level_switches += 1
            if self.obs is not None:
                self.obs.emit(
                    "dvs.switch",
                    self.sim._now,
                    self.name,
                    from_mhz=self.level.mhz,
                    to_mhz=level.mhz,
                    mode=_MODE_STR[mode],
                )
        if self.sim._now > self._segment_start:
            self._close_segment()
        self.mode = mode
        self.level = level
        self.activity = activity if activity is not None else _MODE_STR[mode]
        self._detail = detail
        row = self._currents.get(id(level))
        if row is not None:
            current = row[mode._value_]
        else:
            # An equal level that is not the table's own object draws the
            # same current. It is computed, not cached: its id may be
            # reused by another object once it is freed.
            current = self.power_model.current_ma(mode, level)
        self._current_ma = current
        # _schedule_death_timer, inlined; an infinite bound gives an
        # infinite target, which never undercuts a pending timer.
        target = self._segment_start + self.battery.time_to_death_lower_bound(current)
        if target < self._armed_at:
            self._arm_death_timer(target)

    def _segment_bucket(self) -> str:
        """Attribution bucket of the *current* (closing) segment.

        Computation segments carry the ATR block name (the ``"proc"``
        detail is ``"<block> f<frame>"``; the frame suffix is stripped
        so buckets repeat identically across periods — a requirement of
        fast-forward window matching); other computation activities
        (``"reconfig"``, ``"wake"``) keep their activity name.
        Communication is ``"link"``, everything else ``"idle"``.
        """
        mode = self.mode
        if mode is PowerMode.COMPUTATION:
            activity = self.activity
            if activity == "proc":
                block = self._detail.rpartition(" f")[0]
                return block if block else "proc"
            return activity
        if mode is PowerMode.COMMUNICATION:
            return "link"
        return "idle"

    def _close_segment(self) -> None:
        """Integrate battery/trace over [segment_start, now]."""
        now = self.sim._now
        dt = now - self._segment_start
        if dt > 0:
            self.battery.draw(self._current_ma, dt)
            ledger = self._ledger
            if self._draw_log is not None or ledger is not None:
                bucket = self._segment_bucket()
                if self._draw_log is not None:
                    self._draw_log.append(
                        (self._current_ma, dt, _MODE_STR[self.mode], bucket)
                    )
                if ledger is not None:
                    ledger.add(
                        self.name, _MODE_STR[self.mode], bucket, self._current_ma, dt
                    )
            if (
                self._sample_interval is not None
                and now - self._last_sample_s >= self._sample_interval
            ):
                self._last_sample_s = now
                self.obs.emit(
                    "battery.draw",
                    now,
                    self.name,
                    charge_fraction=self.battery.charge_fraction(),
                    current_ma=self._current_ma,
                    mode=_MODE_STR[self.mode],
                )
            if self.trace is not None:
                self.trace.add(
                    self.name,
                    self._segment_start,
                    now,
                    self.activity,
                    frequency_mhz=self.level.mhz,
                    current_ma=self._current_ma,
                    detail=self._detail,
                )
        self._segment_start = now

    def warp(self, delta: float) -> None:
        """Shift this node's absolute-time bookkeeping after a time warp.

        Called by the fast-forward engine *after* the battery has been
        advanced analytically and :meth:`Simulator.warp` has shifted the
        clock and the pending schedule (including any outstanding death
        timers, which move with the heap). The open segment keeps its
        elapsed portion; ``_armed_at`` tracks its (shifted) timer; the
        ``battery.draw`` sampling clock moves with the warp (no samples
        are taken for skipped epochs); and
        the death timer is re-armed because the drained battery's bound
        is now much tighter than whatever was pending before the jump —
        without the re-arm, death inside the first post-jump epoch could
        be missed.
        """
        self._segment_start += delta
        self._last_sample_s += delta
        if self._armed_at != float("inf"):
            self._armed_at += delta
        self._schedule_death_timer()

    # -- death handling -----------------------------------------------------
    def _schedule_death_timer(self) -> None:
        """Arm a one-shot callback no later than battery exhaustion.

        Timers are *lazy*: one is armed only when the new draw could
        kill the node before the earliest already-pending timer fires
        (``_armed_at``). State changes far from death therefore cost no
        timer events at all — a timer that fires early simply re-checks
        the battery under the then-current draw and re-arms.
        :meth:`set_state` inlines this test.

        Why skipping is safe. Write ``s`` for ``_segment_start``, ``I``
        for the segment's current, ``LB(I)`` for
        ``battery.time_to_death_lower_bound(I)`` evaluated on the
        battery state at ``s`` (the state is integrated lazily, so it
        does not change while the segment is open), and ``D`` for the
        instant the battery would empty if the segment lasted forever.
        The invariant is: while the segment is open and ``D`` is finite,
        a pending timer fires at ``_armed_at <= D``.

        1. ``LB`` is a lower bound, so ``s + LB(I) <= D``.
        2. A state change that finds ``s + LB(I) >= _armed_at`` keeps the
           pending timer, and ``_armed_at <= s + LB(I) <= D`` holds.
           Otherwise it arms a timer at ``s + LB(I) <= D``. Right after
           any state change, then, ``_armed_at <= s + LB(I)``.
        3. ``_armed_at`` is the earliest pending timer: a timer is armed
           only below the current ``_armed_at``, and ``_armed_at`` is
           reset to infinity only when the timer it names fires.
        4. A timer that fires early (``now < s + LB(I)``) re-arms at
           ``s + LB(I)`` unless an earlier one is pending. One that fires
           once the bound has passed solves for ``D`` exactly and either
           kills the node (``D <= now``) or re-arms at ``D`` unless an
           earlier one is pending.
        5. A warp shifts ``s``, ``D`` and every pending timer by the same
           delta, then re-runs this test against the drained battery.

        So whenever the node can die, some pending timer fires at or
        before its true death instant, where :meth:`_on_death_timer`
        finds it. Step 4's exact re-arm may leave ``_armed_at`` above
        ``s + LB(I)`` between state changes; step 2 restores the
        stronger bound at the next one.
        """
        target = self._segment_start + self.battery.time_to_death_lower_bound(
            self._current_ma
        )
        if target < self._armed_at:
            self._arm_death_timer(target)

    def _arm_death_timer(self, target: float) -> None:
        self._armed_at = target
        timer = self.sim.timeout(max(0.0, target - self.sim._now))
        self._armed_timer = timer
        timer.add_callback(self._on_death_timer)

    def _on_death_timer(self, event: Event) -> None:
        if event is self._armed_timer:
            self._armed_at = float("inf")
            self._armed_timer = None
        if self.is_dead:
            return
        # Battery state is lazily integrated: it is current as of
        # _segment_start. Re-check the cheap bound first — a lazily
        # armed timer often fires early because the draw dropped after
        # it was armed — and root-solve only when the bound says death
        # is due under the present draw.
        now = self.sim._now
        bound = self.battery.time_to_death_lower_bound(self._current_ma)
        target = self._segment_start + bound
        if target > now + 1e-9:
            if target < self._armed_at:
                self._arm_death_timer(target)
            return
        exact = self.battery.time_to_death(self._current_ma)
        death_at = self._segment_start + exact
        if death_at > now + 1e-9:
            if death_at < self._armed_at:
                self._arm_death_timer(death_at)
            return
        self._die()

    def fail_at(self, time_s: float) -> None:
        """Schedule a forced failure at absolute simulated time ``time_s``.

        Fault injection for testing the §5.4 recovery protocol with a
        failure cause other than battery exhaustion (a crash, a pulled
        battery): the node dies at exactly that instant, with whatever
        charge remains stranded.
        """
        if time_s < self.sim.now:
            raise SimulationError(
                f"cannot schedule a failure in the past ({time_s} < {self.sim.now})"
            )
        timer = self.sim.timeout(time_s - self.sim.now)
        timer.add_callback(lambda _event: None if self.is_dead else self._die())

    def _die(self) -> None:
        """Common death path: close accounting, notify, cancel offers."""
        self._close_segment()
        self.mode = PowerMode.DEAD
        self.activity = "dead"
        self._current_ma = 0.0
        self.death_time_s = self.sim.now
        # Withdraw pending link offers so live peers cannot rendezvous
        # with a corpse.
        for offer, link in self._open_offers.items():
            link.cancel(offer)
        self._open_offers.clear()
        if self.obs is not None:
            self.obs.emit(
                "battery.dead",
                self.sim.now,
                self.name,
                delivered_mah=self.battery.delivered_mah,
            )
        cause = NodeDead(self.name, self.sim.now)
        self.died.succeed(cause)
        for process in self._attached:
            if process.is_alive:
                process.interrupt(cause)

    # -- behaviour helpers (generators for process bodies) ---------------
    def _offer(
        self, link: SerialLink, grant: Event, activity: str, frame: int | None
    ) -> None:
        """Register an open link offer; count (and report) a stall if the
        partner is not ready yet."""
        self._open_offers[grant] = link
        if not grant.triggered:
            self.io_stalls += 1
            if self.obs is not None:
                if frame is None:
                    self.obs.emit(
                        "link.stall", self.sim._now, self.name, activity=activity
                    )
                else:
                    self.obs.emit(
                        "link.stall",
                        self.sim._now,
                        self.name,
                        activity=activity,
                        frame=frame,
                    )

    def compute(
        self,
        seconds_at_max: float,
        level: FrequencyLevel,
        activity: str = "proc",
        detail: str = "",
    ) -> t.Generator:
        """Run ``seconds_at_max`` (profiled at f_max) of work at ``level``.

        Yields inside a process body::

            yield from node.compute(0.162, level)
        """
        scaled = self.dvs_table.scale_time(seconds_at_max, level)
        self.set_state(_COMPUTATION, level, activity, detail)
        yield self.sim.timeout(scaled)
        self.set_state(_IDLE, level, "idle")

    def transfer(
        self,
        link: SerialLink,
        grant: Event,
        io_level: FrequencyLevel,
        activity: str,
        detail: str = "",
        frame: int | None = None,
    ) -> t.Generator:
        """Complete one link transaction, managing power modes.

        The node idles (at its current level) while waiting for the
        rendezvous, switches to COMMUNICATION at ``io_level`` for the
        transaction itself, then returns to IDLE. Returns the
        :class:`~repro.hw.link.Transfer`. ``frame`` tags the resulting
        ``link.stall`` event when the caller knows which frame the
        rendezvous serves (send sides do; receive sides are waiting for
        a frame they have not seen yet).
        """
        self._offer(link, grant, activity, frame)
        self.set_state(_IDLE, self.level, "wait", detail)
        try:
            transfer: Transfer = yield grant
        finally:
            # Already gone if death handling cleared the offers.
            self._open_offers.pop(grant, None)
        self.set_state(_COMMUNICATION, io_level, activity, detail)
        yield transfer.done
        self.set_state(_IDLE, io_level, "idle")
        return transfer

    def transfer_or_timeout(
        self,
        link: SerialLink,
        grant: Event,
        io_level: FrequencyLevel,
        activity: str,
        timeout_s: float,
        detail: str = "",
        frame: int | None = None,
    ) -> t.Generator:
        """Like :meth:`transfer`, but give up after ``timeout_s`` waiting.

        Returns the :class:`~repro.hw.link.Transfer`, or ``None`` if the
        rendezvous did not start within the timeout (the offer is then
        withdrawn). This is the primitive the §5.4 failure-detection
        protocol is built on.
        """
        self._offer(link, grant, activity, frame)
        self.set_state(_IDLE, self.level, "wait", detail)
        timer = self.sim.timeout(timeout_s)
        try:
            yield self.sim.any_of([grant, timer])
        finally:
            # Already gone if death handling cleared the offers.
            self._open_offers.pop(grant, None)
        if not grant.triggered:
            link.cancel(grant)
            return None
        transfer: Transfer = grant.value
        self.set_state(_COMMUNICATION, io_level, activity, detail)
        yield transfer.done
        self.set_state(_IDLE, io_level, "idle")
        return transfer

    def comm_delay(
        self, seconds: float, io_level: FrequencyLevel, activity: str = "ack", detail: str = ""
    ) -> t.Generator:
        """Spend fixed time in COMMUNICATION mode without a link partner.

        Models protocol exchanges with the mains-powered host (whose
        side of the transaction costs it nothing we account for), e.g.
        acknowledgment transactions in the recovery protocol.
        """
        if seconds <= 0:
            return
        self.set_state(PowerMode.COMMUNICATION, io_level, activity, detail)
        yield self.sim.timeout(seconds)
        self.set_state(PowerMode.IDLE, io_level, "idle")

    def idle_for(self, seconds: float, level: FrequencyLevel | None = None) -> t.Generator:
        """Idle at ``level`` (default: current) for a fixed time."""
        self.set_state(PowerMode.IDLE, level or self.level, "idle")
        yield self.sim.timeout(seconds)

    def sleep_for(self, seconds: float, wake_latency_s: float = 0.0) -> t.Generator:
        """Deep-sleep for ``seconds``, then pay the wake-up latency.

        Sleep draws the power model's flat ``sleep_ma``; the wake-up
        (PLL restart, DRAM exit from self-refresh) is charged at the
        computation current of the current level. The Itsy platform
        supports this mode; the paper's experiments idle instead — the
        sleep-in-slack extension measures the difference.
        """
        if seconds <= 0:
            return
        self.set_state(PowerMode.SLEEP, self.level, "sleep")
        yield self.sim.timeout(seconds)
        if wake_latency_s > 0:
            self.set_state(PowerMode.COMPUTATION, self.level, "wake")
            yield self.sim.timeout(wake_latency_s)
        self.set_state(PowerMode.IDLE, self.level, "idle")

    def reconfigure(self, seconds: float, detail: str = "") -> t.Generator:
        """Spend ``seconds`` reloading code during a rotation (§5.5).

        Modelled at computation power: the node is refreshing its code
        memory, not sleeping.
        """
        if seconds <= 0:
            return
        self.set_state(PowerMode.COMPUTATION, self.level, "reconfig", detail)
        yield self.sim.timeout(seconds)
        self.set_state(PowerMode.IDLE, self.level, "idle")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ItsyNode {self.name!r} {self.mode} @ {self.level}>"
