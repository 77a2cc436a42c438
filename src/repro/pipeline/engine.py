"""The distributed-pipeline execution engine.

Builds the simulated testbed — host hub, nodes, links — from a
:class:`PipelineConfig` and runs the paper's frame protocol (§3) until
the batteries give out:

- the **host source** emits one frame every D seconds to whichever node
  currently holds pipeline role 0;
- each **node** loops RECV -> PROC -> SEND for its role, fully
  serialized, switching power modes (and DVS levels, per policy) as it
  goes;
- the **host sink** listens on every node's serial port and records
  final results;
- the run ends on the event that ends it: the last node's ``died``
  event, a stall (after a death, ``20 * D`` with no result — the
  paper's experiments (2)/(2A)), or one timer at the safety horizon.

Node rotation (§5.5) and power-failure recovery (§5.4) plug into the
node loop; see :mod:`repro.pipeline.rotation` and
:mod:`repro.pipeline.recovery` for the protocol definitions.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import ConfigurationError
from repro.hw.battery import Battery
from repro.hw.dvs import SA1100_TABLE, DVSTable, FrequencyLevel
from repro.hw.host import HOST_NAME, HostHub
from repro.hw.link import PAPER_LINK_TIMING, SerialLink, TransactionTiming
from repro.hw.node import ItsyNode
from repro.hw.power import PAPER_POWER_MODEL, PowerModel
from repro.pipeline.recovery import RecoveryConfig
from repro.pipeline.rotation import RotationController
from repro.pipeline.workload import WorkloadModel
from repro.pipeline.schedule import plan_node
from repro.pipeline.tasks import NodeAssignment, Partition
from repro.sim import Event, Simulator, TraceRecorder

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Telemetry

__all__ = ["Frame", "RoleConfig", "PipelineConfig", "PipelineEngine", "PipelineResult"]


@dataclasses.dataclass
class Frame:
    """One image frame travelling down the pipeline.

    Attributes
    ----------
    id:
        Sequence number assigned by the host source.
    emitted_s:
        When the host offered it.
    stages_done:
        How many pipeline stages have processed it (for invariants).
    scale:
        Per-frame PROC scale factor from the workload model (1.0 = the
        profiled cost).
    """

    id: int
    emitted_s: float
    stages_done: int = 0
    scale: float = 1.0


class _Ack:
    """Marker message for recovery-protocol acknowledgments."""

    __slots__ = ("frame_id",)

    def __init__(self, frame_id: int):
        self.frame_id = frame_id


@dataclasses.dataclass(frozen=True)
class RoleConfig:
    """Operating configuration of one pipeline role.

    Attributes
    ----------
    assignment:
        The blocks, payloads, and work of this stage.
    comp_level:
        DVS level during PROC.
    io_level:
        DVS level during RECV/SEND — equal to ``comp_level`` without
        the DVS-during-I/O technique, the minimum level with it.
    """

    assignment: NodeAssignment
    comp_level: FrequencyLevel
    io_level: FrequencyLevel
    #: PROC time available inside the frame (D minus nominal comm and
    #: protocol overhead); used by adaptive per-frame DVS. None when
    #: the policy did not derive it from a plan.
    proc_budget_s: float | None = None


@dataclasses.dataclass
class PipelineConfig:
    """Everything needed to build and run one pipeline experiment.

    Attributes
    ----------
    partition:
        The block-chain partition (also used for recovery merging).
    roles:
        Per-stage operating configuration, one per partition stage.
    node_names:
        Physical node names; ``node_names[i]`` initially holds role i.
    battery_factory:
        Called once per node to build its private battery.
    deadline_s:
        The frame delay D.
    timing:
        Serial-link transaction timing.
    power_model, dvs_table:
        Shared hardware models.
    rotation:
        Optional §5.5 rotation controller.
    recovery:
        Optional §5.4 recovery protocol configuration.
    max_frames:
        Stop after this many delivered results (None = run to death).
    horizon_s:
        Hard safety limit on simulated time.
    trace:
        Optional trace recorder for timing-diagram figures.
    monitor_interval_s:
        Spacing of the nodes' ``battery.draw`` state-of-charge samples
        on the telemetry bus (None disables sampling; no effect
        without ``obs``).
    store_and_forward:
        Host-hub forwarding mode (see :class:`~repro.hw.host.HostHub`).
    validate_schedules:
        Check every role's static schedule fits D before running.
    seed:
        Root seed for stochastic components (link startup jitter).
        Irrelevant when the timing is deterministic.
    lateness_tolerance_s:
        A result delivered more than this much after its per-frame
        contract (emission time + N * D) counts as a deadline miss.
    workload:
        Optional per-frame workload scaling (see
        :mod:`repro.pipeline.workload`).
    adaptive_workload_dvs:
        Re-pick each frame's compute level from its actual workload and
        the stage's PROC budget (intra-frame DVS for variable workload).
    """

    partition: Partition
    roles: tuple[RoleConfig, ...]
    node_names: tuple[str, ...]
    battery_factory: t.Callable[[], Battery]
    deadline_s: float = 2.3
    timing: TransactionTiming = PAPER_LINK_TIMING
    power_model: PowerModel = PAPER_POWER_MODEL
    dvs_table: DVSTable = SA1100_TABLE
    rotation: RotationController | None = None
    recovery: RecoveryConfig | None = None
    max_frames: int | None = None
    horizon_s: float = 100 * 24 * 3600.0
    trace: TraceRecorder | None = None
    monitor_interval_s: float | None = 300.0
    #: Optional telemetry sink (see :mod:`repro.obs`). When set, the
    #: engine publishes structured events (link.xfer, dvs.switch,
    #: frame.emit/result, rotation.reconfig, recovery.migrate, ...)
    #: into ``obs.events`` and fills ``obs.metrics`` at the end of the
    #: run. Disabled telemetry costs one branch per emit site.
    obs: "Telemetry | None" = None
    store_and_forward: bool = False
    validate_schedules: bool = True
    seed: int = 0
    lateness_tolerance_s: float = 0.05
    #: Optional per-frame workload scaling (see repro.pipeline.workload).
    workload: "WorkloadModel | None" = None
    #: Re-pick each frame's compute level from its actual workload and
    #: the stage's PROC budget (intra-frame DVS for variable workload).
    adaptive_workload_dvs: bool = False
    #: Deep-sleep through each frame's trailing slack instead of idling
    #: (the Itsy supports sleep; the paper idles — this extension
    #: measures the difference). Requires deterministic workload and no
    #: rotation, because the sleep window is sized from the static
    #: schedule.
    sleep_in_slack: bool = False
    #: Wake-up latency paid (at computation current) after each sleep.
    sleep_wake_latency_s: float = 0.05
    #: Minimum slack worth sleeping through (shorter windows idle).
    sleep_min_slack_s: float = 0.1
    #: Skip steady-state epochs analytically (see
    #: :mod:`repro.sim.fastforward`). Frame counts stay identical to
    #: exact simulation and lifetimes agree to well under 0.1%; runs
    #: with stochastic timing or a workload model silently stay exact.
    #: Incompatible with a trace recorder (skipped epochs have no
    #: segments to record).
    fast_forward: bool = False

    def __post_init__(self) -> None:
        if self.adaptive_workload_dvs and any(
            rc.proc_budget_s is None for rc in self.roles
        ):
            raise ConfigurationError(
                "adaptive_workload_dvs needs RoleConfig.proc_budget_s on "
                "every role (policies derive it from the node plans)"
            )
        if self.sleep_in_slack:
            if self.rotation is not None or self.workload is not None:
                raise ConfigurationError(
                    "sleep_in_slack sizes its window from the static "
                    "schedule; it cannot combine with rotation or a "
                    "variable workload"
                )
            if any(rc.proc_budget_s is None for rc in self.roles):
                raise ConfigurationError(
                    "sleep_in_slack needs RoleConfig.proc_budget_s on "
                    "every role (policies derive it from the node plans)"
                )
            if self.sleep_wake_latency_s < 0 or self.sleep_min_slack_s < 0:
                raise ConfigurationError("sleep latencies must be >= 0")
        if len(self.roles) != self.partition.n_stages:
            raise ConfigurationError(
                f"{len(self.roles)} role configs for "
                f"{self.partition.n_stages} partition stages"
            )
        if len(self.node_names) != len(self.roles):
            raise ConfigurationError(
                f"{len(self.node_names)} nodes for {len(self.roles)} roles"
            )
        if self.deadline_s <= 0:
            raise ConfigurationError("frame delay D must be positive")
        if self.rotation is not None and self.recovery is not None:
            raise ConfigurationError(
                "rotation and recovery are separate techniques in the paper; "
                "configure one at a time"
            )
        if self.rotation is not None and self.rotation.n_stages != len(self.roles):
            raise ConfigurationError("rotation controller depth != pipeline depth")
        if self.recovery is not None and len(self.roles) != 2:
            raise ConfigurationError(
                "failure recovery is implemented for 2-node pipelines "
                "(the configuration the paper evaluates)"
            )
        if self.fast_forward and self.trace is not None:
            raise ConfigurationError(
                "fast-forward coalesces whole epochs into analytic jumps; "
                "timing traces need exact simulation"
            )


@dataclasses.dataclass
class PipelineResult:
    """Outcome of one pipeline run.

    Attributes
    ----------
    frames_completed:
        Results delivered to the host (the paper's F).
    result_times_s:
        Delivery timestamp of each result (capped at ``keep_result_times``).
    end_time_s:
        When the run ended, the same in both modes: the last death, the
        last result + 20 * D (a stall), exactly ``horizon_s``, or the
        ``max_frames``-th delivery.
    end_reason:
        ``"all-dead"``, ``"stall"``, ``"max-frames"`` or ``"horizon"``.
    death_times_s:
        node name -> battery-death time (missing if still alive).
    delivered_mah:
        node name -> charge actually delivered by its battery.
    remaining_mah:
        node name -> charge left in its battery at run end (the
        stranded charge of a node that outlived the pipeline).
    migrations:
        (time, surviving node) pairs recorded by the recovery protocol.
    trace:
        The trace recorder (if provided).
    """

    frames_completed: int
    result_times_s: list[float]
    end_time_s: float
    end_reason: str
    death_times_s: dict[str, float]
    delivered_mah: dict[str, float]
    remaining_mah: dict[str, float]
    migrations: list[tuple[float, str]]
    trace: TraceRecorder | None
    #: Telemetry bundle (events + metrics + spans) if the run was
    #: configured with one.
    obs: "Telemetry | None" = None
    #: Delivery time of the final result. Stored separately because
    #: ``result_times_s`` keeps only a bounded sample of timestamps.
    last_result_s: float | None = None
    #: Results that arrived later than their nominal slot by more than
    #: the configured tolerance (non-zero only under stochastic timing
    #: or reconfiguration hiccups).
    late_results: int = 0
    #: Worst observed lateness against the nominal delivery grid.
    max_lateness_s: float = 0.0
    #: Frames each node fully processed (a rotating node counts every
    #: frame it touched; sums to more than frames_completed for N > 1).
    frames_processed: dict[str, int] = dataclasses.field(default_factory=dict)
    #: DVS level switches each node performed.
    level_switches: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Completed serial transactions per link direction ("a->b").
    link_transactions: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Payload bytes moved per link direction ("a->b").
    link_bytes: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Rendezvous each node had to wait for (see ItsyNode.io_stalls).
    stage_stalls: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Kernel events dispatched over the whole run (simulation cost).
    #: In fast-forward mode this is the *actual* dispatch count — the
    #: honest measure of what the run cost — not what exact simulation
    #: would have dispatched.
    events_processed: int = 0
    #: Fast-forward jumps applied (0 in exact mode or when no steady
    #: state was ever detected).
    ff_jumps: int = 0
    #: Frames advanced analytically inside those jumps.
    ff_frames_skipped: int = 0

    @property
    def total_link_transactions(self) -> int:
        """Completed transactions summed over every link direction."""
        return sum(self.link_transactions.values())

    @property
    def total_link_bytes(self) -> int:
        """Payload bytes summed over every link direction."""
        return sum(self.link_bytes.values())

    def mean_result_period_s(self) -> float | None:
        """Average spacing of deliveries (should approximate D)."""
        if len(self.result_times_s) < 2:
            return None
        first, last = self.result_times_s[0], self.result_times_s[-1]
        return (last - first) / (len(self.result_times_s) - 1)


class PipelineEngine:
    """Builds and runs one pipeline experiment. Single use: build, run."""

    #: Cap on stored per-result timestamps (inter-arrival statistics only
    #: need a sample; lifetimes come from counters).
    keep_result_times = 4096

    def __init__(self, config: PipelineConfig, sim: Simulator | None = None):
        self.config = config
        # The event bus every emitter publishes into; None when the run
        # is untraced OR the log is a null sink, so emit sites stay a
        # single C-level None test (a disabled EventLog would cost a
        # Python-level __bool__ call per guard).
        log = config.obs.events if config.obs is not None else None
        self._log = log if log else None
        # Energy-attribution ledger: every node segment lands in the
        # telemetry bundle's ledger so Fig. 6/7-style breakdowns come
        # from the run itself. None when the run is untraced or the
        # event bus is a null sink — attribution does per-segment dict
        # work, which the events=False cheap mode must not pay.
        self._ledger = config.obs.energy if self._log is not None else None
        # Per-result latency histogram, resolved once: the registry
        # lookup is a dict get, but on the per-frame hot path even that
        # is measurable telemetry overhead.
        self._latency_hist = (
            config.obs.metrics.histogram("frame.latency_s")
            if config.obs is not None
            else None
        )
        self.sim = sim or Simulator(obs=self._log)
        self._validate()

        rng = None
        if config.timing.startup_jitter_s > 0 or config.timing.corruption_prob > 0:
            from repro.sim import RngStreams

            rng = RngStreams(config.seed).stream("link.startup")
        self.hub = HostHub(
            self.sim,
            config.node_names,
            timing=config.timing,
            store_and_forward=config.store_and_forward,
            rng=rng,
            obs=self._log,
        )
        self.nodes: dict[str, ItsyNode] = {}
        for name in config.node_names:
            self.nodes[name] = ItsyNode(
                self.sim,
                name,
                config.battery_factory(),
                config.power_model,
                config.dvs_table,
                trace=config.trace,
                obs=self._log,
                ledger=self._ledger,
                monitor_interval_s=config.monitor_interval_s,
            )

        self.done: Event = self.sim.event()
        self._end_reason = "unknown"
        self.results_count = 0
        self.result_times: list[float] = []
        self._last_progress = 0.0
        self.late_results = 0
        self.max_lateness_s = 0.0
        self.migrations: list[tuple[float, str]] = []
        self._stage0_holder = config.node_names[0]
        self._source_offer: tuple[SerialLink, Event] | None = None
        self._stall_watched = False
        # Source state lives on the engine (not in _source's locals) so
        # a fast-forward jump can advance the emission grid and frame
        # numbering along with the clock.
        self._frame_seq = 0
        self._next_emit = 0.0
        # Frames currently in flight, by id: a jump must shift their
        # emission timestamps or every post-jump delivery would look
        # epochs late. Only maintained in fast mode.
        self._live_frames: dict[int, Frame] | None = (
            {} if config.fast_forward else None
        )
        self._ff = None
        # (node name, role) -> (link, peer), resolved on first use: the
        # hub validates names and builds a key on every lookup, and the
        # ring never changes. The first use creates the link, so links
        # are still created, and tabulated, in first-use order.
        self._upstream_hops: dict[tuple[str, int], tuple[SerialLink, str]] = {}
        self._downstream_hops: dict[tuple[str, int], tuple[SerialLink, str]] = {}

    # -- validation -------------------------------------------------------
    def _validate(self) -> None:
        if not self.config.validate_schedules:
            return
        n = len(self.config.roles)
        for i, role in enumerate(self.config.roles):
            overhead = self._ack_overhead_for_stage(i)
            if self.config.store_and_forward:
                # Inter-node edges cost two serial hops; validate each
                # edge against the timing it will actually see.
                from repro.hw.host import store_and_forward_timing

                inter = store_and_forward_timing(self.config.timing)
                host = self.config.timing
                recv_timing = inter if i > 0 else host
                send_timing = inter if i < n - 1 else host
                recv_s = recv_timing.nominal_duration(role.assignment.recv_bytes)
                send_s = send_timing.nominal_duration(role.assignment.send_bytes)
                proc_s = self.config.dvs_table.scale_time(
                    role.assignment.proc_seconds_at_max, role.comp_level
                )
                busy = recv_s + send_s + overhead + proc_s
                if busy > self.config.deadline_s + 1e-9:
                    from repro.errors import DeadlineMissError

                    raise DeadlineMissError(
                        f"stage{i} (store-and-forward)", busy, self.config.deadline_s
                    )
            else:
                plan_node(
                    role.assignment,
                    self.config.timing,
                    self.config.deadline_s,
                    self.config.dvs_table,
                    overhead_s=overhead,
                    level=role.comp_level,
                )

    def _ack_overhead_for_stage(self, stage: int) -> float:
        """Static per-frame ack time of a stage under the recovery protocol."""
        rec = self.config.recovery
        if rec is None:
            return 0.0
        n_stages = len(self.config.roles)
        acked = 0
        # Inter-node transactions always carry acks: the upstream edge
        # of stages > 0 and the downstream edge of stages < N-1.
        if stage > 0:
            acked += 1
        if stage < n_stages - 1:
            acked += 1
        if not rec.acks_between_nodes_only:
            # Host-facing edges acked too.
            if stage == 0:
                acked += 1
            if stage == n_stages - 1:
                acked += 1
        return rec.per_frame_overhead_s(self.config.timing, acked)

    # -- stage-0 bookkeeping (who receives from the host) ------------------
    def _set_stage0(self, node_name: str) -> None:
        """Hand role 0 over; an unmatched host offer is re-made to the new holder."""
        if node_name == self._stage0_holder:
            return
        self._stage0_holder = node_name
        offer = self._source_offer
        if offer is not None and offer[0].cancel(offer[1]):
            offer[1].succeed(None)

    # -- run --------------------------------------------------------------
    def run(self) -> PipelineResult:
        """Execute the experiment and collect the result."""
        cfg = self.config
        if cfg.fast_forward:
            from repro.sim.fastforward import FastForwardController

            ff = FastForwardController(self)
            if ff.install():
                self._ff = ff
        self.sim.process(self._source(), name="host-source")
        for name in cfg.node_names:
            self.sim.process(self._sink_loop(name), name=f"host-sink-{name}")
        for i, name in enumerate(cfg.node_names):
            node = self.nodes[name]
            node.spawn(self._node_loop(node, i), name=f"loop-{name}")
            node.died.add_callback(self._on_death)
        self._arm_horizon()
        self.sim.run(until=self.done)

        death_times = {
            name: node.death_time_s
            for name, node in self.nodes.items()
            if node.death_time_s is not None
        }
        delivered = {
            name: node.battery.delivered_mah for name, node in self.nodes.items()
        }
        remaining = {
            name: node.battery.charge_fraction() * node.battery.capacity_mah
            for name, node in self.nodes.items()
        }
        link_transactions: dict[str, int] = {}
        link_bytes: dict[str, int] = {}
        for link in self.hub.all_links():
            for sender in (link.a, link.b):
                key = f"{sender}->{link.peer_of(sender)}"
                link_transactions[key] = link.transfer_count[sender]
                link_bytes[key] = link.bytes_moved[sender]
        if cfg.obs is not None:
            if self._log is not None:
                # A filled log silently stopped storing; make the
                # truncation visible as a terminal record so replayed
                # monitors and summaries know the stream is incomplete.
                self._log.seal(self.sim.now)
            self._fill_metrics(cfg, link_transactions, link_bytes)
        return PipelineResult(
            frames_completed=self.results_count,
            result_times_s=list(self.result_times),
            end_time_s=self.sim.now,
            end_reason=self._end_reason,
            death_times_s=death_times,
            delivered_mah=delivered,
            remaining_mah=remaining,
            migrations=list(self.migrations),
            trace=cfg.trace,
            obs=cfg.obs,
            last_result_s=self._last_progress if self.results_count else None,
            late_results=self.late_results,
            max_lateness_s=self.max_lateness_s,
            frames_processed={
                name: node.frames_processed for name, node in self.nodes.items()
            },
            level_switches={
                name: node.level_switches for name, node in self.nodes.items()
            },
            link_transactions=link_transactions,
            link_bytes=link_bytes,
            stage_stalls={
                name: node.io_stalls for name, node in self.nodes.items()
            },
            events_processed=self.sim.events_processed,
            ff_jumps=self._ff.jumps if self._ff is not None else 0,
            ff_frames_skipped=(
                self._ff.frames_skipped if self._ff is not None else 0
            ),
        )

    def _fill_metrics(
        self,
        cfg: PipelineConfig,
        link_transactions: dict[str, int],
        link_bytes: dict[str, int],
    ) -> None:
        """Absorb the run's loose counters into the metrics registry.

        Everything here is derived from simulated state, so the values
        are deterministic for a given (spec, seed) regardless of how
        many worker processes or cache hits produced them.
        """
        m = cfg.obs.metrics  # type: ignore[union-attr]
        m.counter("frames.completed").inc(self.results_count)
        m.counter("frames.late").inc(self.late_results)
        m.counter("recovery.migrations").inc(len(self.migrations))
        m.counter("kernel.events").inc(self.sim.events_processed)
        m.gauge("frames.max_lateness_s").set(self.max_lateness_s)
        m.gauge("sim.end_time_s").set(self.sim.now)
        for name, node in sorted(self.nodes.items()):
            m.counter(f"node.frames.{name}").inc(node.frames_processed)
            m.counter(f"node.stalls.{name}").inc(node.io_stalls)
            m.counter(f"node.level_switches.{name}").inc(node.level_switches)
            m.gauge(f"node.delivered_mah.{name}").set(node.battery.delivered_mah)
        for key in sorted(link_transactions):
            m.counter(f"link.transactions.{key}").inc(link_transactions[key])
            m.counter(f"link.bytes.{key}").inc(link_bytes[key])
        if cfg.obs.events:  # type: ignore[union-attr]
            for kind, n in cfg.obs.events.counts_by_kind().items():  # type: ignore[union-attr]
                m.counter(f"events.{kind}").inc(n)

    def _finish(self, reason: str) -> None:
        if not self.done.triggered:
            self._end_reason = reason
            self.done.succeed(reason)

    def _on_death(self, _died: Event) -> None:
        """End the run when no node is left; else watch for a stall."""
        if all(node.is_dead for node in self.nodes.values()):
            self._finish("all-dead")
        elif not self._stall_watched:
            # Two nodes can die at the same instant: one watch suffices.
            self._stall_watched = True
            self.sim.process(self._stall_watch(), name="stall-watch")

    def _stall_watch(self) -> t.Generator:
        """End the run once ``20 * D`` pass with no result delivered."""
        window, seen = 20.0 * self.config.deadline_s, None
        while seen != self._last_progress:
            seen = self._last_progress
            yield self.sim.timeout(max(seen + window - self.sim.now, 0.0))
        self._finish("stall")

    def _arm_horizon(self) -> None:
        """Arm the one timer that ends the run at ``horizon_s``. A warp
        drags it along, so each fast-forward jump re-arms it."""
        timer = self.sim.timeout(self.config.horizon_s - self.sim.now)
        timer.add_callback(lambda _timer: self._finish("horizon"))

    # -- host processes -----------------------------------------------------
    def _source(self) -> t.Generator:
        """Emit one frame every D to the current role-0 holder."""
        cfg = self.config
        input_bytes = cfg.partition.profile.input_bytes
        workload_rng = None
        if cfg.workload is not None:
            from repro.sim import RngStreams

            workload_rng = RngStreams(cfg.seed).stream("workload")
        while True:
            if self.sim.now < self._next_emit:
                yield self.sim.timeout(self._next_emit - self.sim.now)
            scale = 1.0
            if cfg.workload is not None:
                scale = cfg.workload.scale_for(self._frame_seq, workload_rng)
            frame = Frame(id=self._frame_seq, emitted_s=self.sim.now, scale=scale)
            if self._live_frames is not None:
                self._live_frames[frame.id] = frame
            transfer = None  # a handover (_set_stage0) fires the grant with None
            while transfer is None:
                target = self._stage0_holder
                link, _ = self._upstream(target, 0)  # the holder's host link
                grant = link.offer_send(frame, input_bytes, frm=HOST_NAME)
                self._source_offer = (link, grant)
                transfer = yield grant
            yield transfer.done
            if cfg.trace is not None:
                cfg.trace.add(
                    HOST_NAME,
                    transfer.start_s,
                    transfer.end_s,
                    "send",
                    detail=f"frame {frame.id} -> {target}",
                )
            if self._log:
                self._log.emit(
                    "frame.emit",
                    self.sim.now,
                    HOST_NAME,
                    frame=frame.id,
                    to=target,
                    scale=frame.scale,
                )
            self._frame_seq += 1
            self._next_emit += cfg.deadline_s

    def _sink_loop(self, node_name: str) -> t.Generator:
        """Accept final results arriving on one node's serial port."""
        link = self.hub.host_link(node_name)
        while True:
            grant = link.offer_recv(to=HOST_NAME)
            transfer = yield grant
            yield transfer.done
            if self.config.trace is not None:
                self.config.trace.add(
                    HOST_NAME,
                    transfer.start_s,
                    transfer.end_s,
                    "recv",
                    detail=f"result {transfer.message.id} <- {node_name}",
                )
            self._record_result(transfer.message)

    def _record_result(self, frame: Frame) -> None:
        self.results_count += 1
        self._last_progress = self.sim.now
        if self._live_frames is not None:
            self._live_frames.pop(frame.id, None)
        # The per-frame latency contract implied by §3/§4.5: a frame
        # entering an N-stage pipeline must leave within N * D of its
        # emission. Measuring against each frame's own emission time is
        # robust both to early deliveries (light-workload frames finish
        # ahead of schedule) and to hiccups (a failure migration delays
        # only the frames actually in flight, not every later one).
        contract = len(self.config.roles) * self.config.deadline_s
        latency = self.sim.now - frame.emitted_s
        lateness = latency - contract
        if lateness > self.max_lateness_s:
            self.max_lateness_s = lateness
        if lateness > self.config.lateness_tolerance_s:
            self.late_results += 1
        if self._latency_hist is not None:
            if self._log is not None:
                self._log.emit(
                    "frame.result",
                    self.sim.now,
                    HOST_NAME,
                    frame=frame.id,
                    latency_s=latency,
                    late=lateness > self.config.lateness_tolerance_s,
                )
            self._latency_hist.observe(latency)
        if len(self.result_times) < self.keep_result_times:
            self.result_times.append(self.sim.now)
        if (
            self.config.max_frames is not None
            and self.results_count >= self.config.max_frames
        ):
            self._finish("max-frames")
        elif self._ff is not None and not self.done.triggered:
            # Fast-forward hook: a delivery is the cleanest phase point
            # to anchor periodicity detection (and, when two windows
            # match, to warp from — the draw logs and battery states
            # are exactly aligned here by construction).
            self._ff.on_result()

    # -- node behaviour ------------------------------------------------------
    def _upstream(self, node_name: str, role: int) -> tuple[SerialLink, str]:
        """Link and peer a role receives its input on (physical ring)."""
        key = (node_name, role)
        hop = self._upstream_hops.get(key)
        if hop is None:
            if role == 0:
                hop = self.hub.host_link(node_name), HOST_NAME
            else:
                names = self.config.node_names
                peer = names[(names.index(node_name) - 1) % len(names)]
                hop = self.hub.link(peer, node_name), peer
            self._upstream_hops[key] = hop
        return hop

    def _downstream(self, node_name: str, role: int) -> tuple[SerialLink, str]:
        """Link and peer a role sends its output on (physical ring)."""
        key = (node_name, role)
        hop = self._downstream_hops.get(key)
        if hop is None:
            if role == len(self.config.roles) - 1:
                hop = self.hub.host_link(node_name), HOST_NAME
            else:
                names = self.config.node_names
                peer = names[(names.index(node_name) + 1) % len(names)]
                hop = self.hub.link(node_name, peer), peer
            self._downstream_hops[key] = hop
        return hop

    def _proc_blocks(
        self,
        node: ItsyNode,
        assignment: NodeAssignment,
        rolecfg: RoleConfig,
        frame: Frame,
    ) -> t.Generator:
        """Execute a stage's blocks back to back (per-block trace segments).

        Block times scale with the frame's workload factor. With
        adaptive_workload_dvs the compute level is re-chosen for this
        frame's actual work against the stage's PROC budget (clamped at
        the table maximum — an overload then simply runs late, which
        the sink's lateness accounting records).
        """
        level = rolecfg.comp_level
        if self.config.adaptive_workload_dvs and frame.scale != 1.0:
            required = self.config.dvs_table.required_mhz(
                assignment.proc_seconds_at_max * frame.scale,
                rolecfg.proc_budget_s or 0.0,
            )
            level = (
                self.config.dvs_table.max
                if required > self.config.dvs_table.max.mhz
                else self.config.dvs_table.ceil(required)
            )
        profile = self.config.partition.profile
        log = self._log
        for bi in range(assignment.block_start, assignment.block_stop):
            block = profile.blocks[bi]
            t0 = self.sim.now
            yield from node.compute(
                block.seconds_at_max * frame.scale,
                level,
                "proc",
                detail=f"{block.name} f{frame.id}",
            )
            if log is not None:
                # Per-block compute record: the causal tracer rebuilds
                # Fig. 6's per-block breakdown from these.
                log.emit(
                    "proc.block",
                    self.sim.now,
                    node.name,
                    frame=frame.id,
                    block=block.name,
                    duration_s=self.sim.now - t0,
                    mhz=level.mhz,
                )
        frame.stages_done += 1

    def _node_loop(self, node: ItsyNode, node_index: int) -> t.Generator:
        """The per-node frame loop, with rotation or recovery if configured."""
        cfg = self.config
        n_stages = len(cfg.roles)
        role = node_index
        migrated = False

        if role == 0:
            self._set_stage0(node.name)

        while True:
            rolecfg = self._merged_role() if migrated else cfg.roles[role]
            assignment = rolecfg.assignment

            # ---- RECV -------------------------------------------------
            up_link, up_peer = (
                (self.hub.host_link(node.name), HOST_NAME)
                if migrated
                else self._upstream(node.name, role)
            )
            grant = up_link.offer_recv(to=node.name)
            detail = f"from {up_peer}"
            if cfg.recovery is not None and up_peer != HOST_NAME:
                transfer = yield from node.transfer_or_timeout(
                    up_link, grant, rolecfg.io_level, "recv",
                    cfg.recovery.detect_timeout_s, detail,
                )
                if transfer is None:
                    migrated = yield from self._migrate(node)
                    continue
                # Acknowledge the data with a reverse transaction.
                yield from self._send_ack(node, up_link, rolecfg.io_level, transfer.message)
            else:
                transfer = yield from node.transfer(
                    up_link, grant, rolecfg.io_level, "recv", detail
                )
                if cfg.recovery is not None and not cfg.recovery.acks_between_nodes_only and not migrated:
                    # Host-facing ack, modelled as pure node-side comm time.
                    yield from node.comm_delay(
                        cfg.recovery.ack_duration_s(cfg.timing),
                        rolecfg.io_level, "ack", "to host",
                    )
            frame: Frame = transfer.message

            # ---- PROC -------------------------------------------------
            yield from self._proc_blocks(node, assignment, rolecfg, frame)

            # ---- rotation transition (roles 0..N-2): continue as role+1
            if (
                cfg.rotation is not None
                and not migrated
                and role < n_stages - 1
                and cfg.rotation.is_rotation_frame(frame.id, role)
            ):
                role += 1
                rolecfg = cfg.roles[role]
                assignment = rolecfg.assignment
                if self._log:
                    self._log.emit(
                        "rotation.reconfig",
                        self.sim.now,
                        node.name,
                        **cfg.rotation.reconfig_event(frame.id, role - 1, role),
                    )
                if cfg.rotation.reconfig_seconds > 0:
                    yield from node.reconfigure(
                        cfg.rotation.reconfig_seconds, f"-> role {role}"
                    )
                yield from self._proc_blocks(node, assignment, rolecfg, frame)

            # ---- SEND -------------------------------------------------
            down_link, down_peer = (
                (self.hub.host_link(node.name), HOST_NAME)
                if migrated
                else self._downstream(node.name, role)
            )
            grant = down_link.offer_send(
                frame, assignment.send_bytes, frm=node.name
            )
            detail = f"to {down_peer}"
            if cfg.recovery is not None and down_peer != HOST_NAME:
                transfer = yield from node.transfer_or_timeout(
                    down_link, grant, rolecfg.io_level, "send",
                    cfg.recovery.detect_timeout_s, detail, frame=frame.id,
                )
                if transfer is None:
                    migrated = yield from self._migrate(node)
                    continue
                ack = yield from self._await_ack(node, down_link, rolecfg.io_level)
                if ack is None:
                    migrated = yield from self._migrate(node)
                    continue
            else:
                yield from node.transfer(
                    down_link, grant, rolecfg.io_level, "send", detail,
                    frame=frame.id,
                )
                if (
                    cfg.recovery is not None
                    and not cfg.recovery.acks_between_nodes_only
                ):
                    yield from node.comm_delay(
                        cfg.recovery.ack_duration_s(cfg.timing),
                        rolecfg.io_level, "ack", "from host",
                    )
            node.frames_processed += 1

            # ---- sleep through the trailing slack (extension) -----------
            if cfg.sleep_in_slack and not migrated:
                proc_s = (
                    assignment.proc_seconds_at_max
                    * self.config.dvs_table.max.mhz
                    / rolecfg.comp_level.mhz
                )
                slack = (rolecfg.proc_budget_s or 0.0) - proc_s
                window = slack - cfg.sleep_wake_latency_s
                if window >= cfg.sleep_min_slack_s:
                    yield from node.sleep_for(window, cfg.sleep_wake_latency_s)

            # ---- rotation transition (last role): become role 0 --------
            if (
                cfg.rotation is not None
                and not migrated
                and role == n_stages - 1
                and cfg.rotation.is_rotation_frame(frame.id, role)
            ):
                role = 0
                if self._log:
                    self._log.emit(
                        "rotation.reconfig",
                        self.sim.now,
                        node.name,
                        **cfg.rotation.reconfig_event(frame.id, n_stages - 1, 0),
                    )
                if cfg.rotation.reconfig_seconds > 0:
                    yield from node.reconfigure(
                        cfg.rotation.reconfig_seconds, "-> role 0"
                    )
                self._set_stage0(node.name)

    # -- recovery protocol helpers -------------------------------------
    def _send_ack(self, node: ItsyNode, link: SerialLink, io_level: FrequencyLevel, frame: Frame) -> t.Generator:
        """Receiver side: acknowledge a data transaction (reverse direction)."""
        rec = self.config.recovery
        assert rec is not None
        grant = link.offer_send(_Ack(frame.id), rec.ack_payload_bytes, frm=node.name)
        transfer = yield from node.transfer_or_timeout(
            link, grant, io_level, "ack", rec.detect_timeout_s, f"ack f{frame.id}",
            frame=frame.id,
        )
        return transfer

    def _await_ack(self, node: ItsyNode, link: SerialLink, io_level: FrequencyLevel) -> t.Generator:
        """Sender side: wait for the receiver's acknowledgment."""
        rec = self.config.recovery
        assert rec is not None
        grant = link.offer_recv(to=node.name)
        transfer = yield from node.transfer_or_timeout(
            link, grant, io_level, "ack", rec.detect_timeout_s, "await ack"
        )
        return transfer

    def _merged_role(self) -> RoleConfig:
        """The whole-chain role a recovery survivor runs."""
        rec = self.config.recovery
        assert rec is not None
        merged = self.config.partition.merged(0, self.config.partition.n_stages)
        comp = rec.migrated_comp_level or self.config.dvs_table.max
        io = rec.migrated_io_level or comp
        return RoleConfig(assignment=merged, comp_level=comp, io_level=io)

    def _migrate(self, node: ItsyNode) -> t.Generator:
        """Absorb the dead neighbour's share and take over the pipeline."""
        self.migrations.append((self.sim.now, node.name))
        rec = self.config.recovery
        if self._log and rec is not None:
            self._log.emit(
                "recovery.migrate",
                self.sim.now,
                node.name,
                **rec.migration_event(node.name),
            )
        self._set_stage0(node.name)
        # Reconfiguration: load the full-chain code. Charged like a
        # rotation reconfiguration; one frame delay is a conservative
        # figure for reloading both blocks' code from flash.
        yield from node.reconfigure(0.0, "migrate")
        return True
