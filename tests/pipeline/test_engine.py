"""The pipeline execution engine, on fast-dying tiny batteries."""

import pytest

from repro.apps.atr.profile import PAPER_PROFILE
from repro.core.experiments import PAPER_EXPERIMENTS
from repro.core.policies import (
    BaselinePolicy,
    DVSDuringIOPolicy,
    PinnedLevelsPolicy,
    SlowestFeasiblePolicy,
)
from repro.errors import ConfigurationError
from repro.hw.dvs import SA1100_TABLE
from repro.hw.link import PAPER_LINK_TIMING
from repro.pipeline.engine import PipelineConfig, PipelineEngine
from repro.pipeline.recovery import RecoveryConfig
from repro.pipeline.rotation import RotationController
from repro.pipeline.schedule import plan_node
from repro.pipeline.tasks import Partition
from repro.sim import TraceRecorder
from tests.conftest import tiny_battery_factory

D = 2.3


def make_config(
    cuts=(),
    policy=None,
    rotation_period=None,
    recovery=False,
    max_frames=None,
    trace=None,
    overheads=None,
    **kwargs,
):
    partition = Partition(PAPER_PROFILE, cuts)
    rec = None
    if recovery:
        rec = RecoveryConfig(
            migrated_comp_level=SA1100_TABLE.max,
            migrated_io_level=SA1100_TABLE.min,
        )
    plans = []
    for i, a in enumerate(partition.assignments):
        overhead = 0.0
        if rec is not None:
            n_acked = (1 if i > 0 else 0) + (1 if i < partition.n_stages - 1 else 0)
            if not rec.acks_between_nodes_only:
                n_acked += (1 if i == 0 else 0) + (
                    1 if i == partition.n_stages - 1 else 0
                )
            overhead = rec.per_frame_overhead_s(PAPER_LINK_TIMING, n_acked)
        plans.append(
            plan_node(a, PAPER_LINK_TIMING, D, SA1100_TABLE, overhead_s=overhead)
        )
    policy = policy or DVSDuringIOPolicy(SlowestFeasiblePolicy())
    roles = policy.role_configs(plans, SA1100_TABLE)
    rotation = None
    if rotation_period:
        rotation = RotationController(rotation_period, partition.n_stages)
    return PipelineConfig(
        partition=partition,
        roles=roles,
        node_names=tuple(f"node{i+1}" for i in range(partition.n_stages)),
        battery_factory=tiny_battery_factory,
        deadline_s=D,
        rotation=rotation,
        recovery=rec,
        max_frames=max_frames,
        trace=trace,
        monitor_interval_s=None,
        **kwargs,
    )


class TestSingleNode:
    def test_throughput_one_result_per_period(self):
        result = PipelineEngine(make_config(policy=BaselinePolicy(), max_frames=20)).run()
        assert result.frames_completed == 20
        assert result.mean_result_period_s() == pytest.approx(D, rel=1e-6)

    def test_first_result_latency(self):
        result = PipelineEngine(make_config(policy=BaselinePolicy(), max_frames=1)).run()
        # One frame passes RECV+PROC+SEND = exactly D in the baseline.
        assert result.result_times_s[0] == pytest.approx(D, rel=1e-6)

    def test_runs_to_battery_death(self):
        result = PipelineEngine(make_config(policy=BaselinePolicy())).run()
        assert result.end_reason in ("all-dead", "stall")
        assert result.frames_completed > 10
        assert "node1" in result.death_times_s

    def test_dvs_during_io_outlives_baseline(self):
        base = PipelineEngine(make_config(policy=BaselinePolicy())).run()
        dvs = PipelineEngine(
            make_config(policy=DVSDuringIOPolicy(BaselinePolicy()))
        ).run()
        assert dvs.frames_completed > base.frames_completed


class TestTwoNodePipeline:
    def test_pipeline_throughput(self):
        result = PipelineEngine(make_config(cuts=(1,), max_frames=30)).run()
        assert result.frames_completed == 30
        assert result.mean_result_period_s() == pytest.approx(D, rel=1e-6)

    def test_pipeline_fill_latency(self):
        result = PipelineEngine(make_config(cuts=(1,), max_frames=1)).run()
        # Two stages: the first result needs more than one frame delay
        # (the pipeline must fill) but at most 2 * D (the paper's bound).
        assert D < result.result_times_s[0] <= 2 * D + 1e-9

    def test_stall_on_first_death_without_recovery(self):
        result = PipelineEngine(make_config(cuts=(1,))).run()
        assert result.end_reason == "stall"
        # Node2 carries the heavier load and dies first.
        assert "node2" in result.death_times_s
        assert "node1" not in result.death_times_s

    def test_frames_match_stall_time(self):
        result = PipelineEngine(make_config(cuts=(1,))).run()
        expected = result.last_result_s / D
        assert result.frames_completed == pytest.approx(expected, abs=2)

    def test_partitioned_outlives_single_node_absolute(self):
        single = PipelineEngine(
            make_config(policy=DVSDuringIOPolicy(BaselinePolicy()))
        ).run()
        double = PipelineEngine(make_config(cuts=(1,))).run()
        assert double.frames_completed > single.frames_completed

    def test_host_transactions_traced(self):
        """The host's sends and receives appear as trace rows too."""
        trace = TraceRecorder()
        PipelineEngine(make_config(cuts=(1,), max_frames=4, trace=trace)).run()
        host_segments = trace.segments("host")
        sends = [s for s in host_segments if s.activity == "send"]
        recvs = [s for s in host_segments if s.activity == "recv"]
        assert len(sends) >= 4
        assert len(recvs) == 4
        # The host's send is the node's recv, byte for byte.
        node_recvs = [s for s in trace.segments("node1") if s.activity == "recv"]
        assert sends[0].start == pytest.approx(node_recvs[0].start)
        assert sends[0].end == pytest.approx(node_recvs[0].end)

    def test_trace_shows_overlapping_send_recv(self):
        """Fig. 3: Node1's SEND overlaps Node2's RECV in the same slot."""
        trace = TraceRecorder()
        PipelineEngine(make_config(cuts=(1,), max_frames=5, trace=trace)).run()
        sends = [s for s in trace.segments("node1") if s.activity == "send"]
        recvs = [s for s in trace.segments("node2") if s.activity == "recv"]
        assert sends and recvs
        assert sends[0].start == pytest.approx(recvs[0].start)
        assert sends[0].end == pytest.approx(recvs[0].end)

    def test_per_node_counters_exposed(self):
        result = PipelineEngine(make_config(cuts=(1,), max_frames=10)).run()
        # Each stage touches every frame once in a 2-stage pipeline.
        assert result.frames_processed["node1"] >= 10
        assert result.frames_processed["node2"] == 10
        # DVS-during-I/O toggles node2 between levels; node1's io and
        # comp levels coincide at 59 MHz.
        assert result.level_switches["node2"] > 0
        assert result.level_switches["node1"] == 0

    def test_delivered_charge_tracked_per_node(self):
        result = PipelineEngine(make_config(cuts=(1,), max_frames=10)).run()
        assert result.delivered_mah["node1"] > 0
        assert result.delivered_mah["node2"] > 0
        # Node2 computes much more; it must have drawn more charge.
        assert result.delivered_mah["node2"] > result.delivered_mah["node1"]


class TestRotation:
    def test_throughput_preserved_through_rotations(self):
        result = PipelineEngine(
            make_config(cuts=(1,), rotation_period=10, max_frames=45)
        ).run()
        assert result.frames_completed == 45
        assert result.mean_result_period_s() == pytest.approx(D, rel=1e-3)

    def test_both_nodes_serve_both_roles(self):
        trace = TraceRecorder()
        PipelineEngine(
            make_config(cuts=(1,), rotation_period=10, max_frames=35, trace=trace)
        ).run()
        for name in ("node1", "node2"):
            levels = {
                s.frequency_mhz
                for s in trace.segments(name)
                if s.activity == "proc"
            }
            # Role 0 computes at 59 MHz, role 1 at 103.2: both appear.
            assert {59.0, 103.2} <= levels

    def test_rotation_balances_death_times(self):
        plain = PipelineEngine(make_config(cuts=(1,))).run()
        rotated = PipelineEngine(
            make_config(cuts=(1,), rotation_period=10)
        ).run()
        # Rotation extends useful lifetime (frames completed).
        assert rotated.frames_completed > plain.frames_completed
        # And both batteries die close together.
        assert len(rotated.death_times_s) >= 1
        if len(rotated.death_times_s) == 2:
            times = sorted(rotated.death_times_s.values())
            assert times[1] - times[0] < 0.2 * times[1]

    def test_three_stage_rotation(self):
        """§5.5 generalizes beyond two nodes: a 3-stage pipeline rotates
        role 0 through all three physical nodes without losing frames."""
        trace = TraceRecorder()
        result = PipelineEngine(
            make_config(
                cuts=(1, 3), rotation_period=5, max_frames=32, trace=trace
            )
        ).run()
        assert result.frames_completed == 32
        assert result.mean_result_period_s() == pytest.approx(D, rel=0.02)
        # Every node eventually receives frames from the host (role 0):
        # host-link RECVs are the long 10.1 KB transactions (~1.1 s).
        for name in ("node1", "node2", "node3"):
            recvs = [s for s in trace.segments(name) if s.activity == "recv"]
            assert any(s.duration > 1.0 for s in recvs), name

    def test_rotation_with_reconfig_cost_still_works(self):
        cfg = make_config(cuts=(1,), max_frames=25)
        cfg.rotation = RotationController(10, 2, reconfig_seconds=0.05)
        result = PipelineEngine(cfg).run()
        assert result.frames_completed == 25


class TestRecovery:
    def test_migration_continues_pipeline(self):
        result = PipelineEngine(
            make_config(
                cuts=(1,),
                policy=DVSDuringIOPolicy(PinnedLevelsPolicy([73.7, 118.0])),
                recovery=True,
            )
        ).run()
        assert result.migrations, "no migration happened"
        mig_time, survivor = result.migrations[0]
        assert survivor == "node1"
        assert result.end_reason == "all-dead"
        # Progress continued after the first death.
        first_death = min(result.death_times_s.values())
        assert result.last_result_s > first_death

    def test_recovery_beats_stall(self):
        pinned = DVSDuringIOPolicy(PinnedLevelsPolicy([73.7, 118.0]))
        stall = PipelineEngine(make_config(cuts=(1,))).run()
        recover = PipelineEngine(
            make_config(cuts=(1,), policy=pinned, recovery=True)
        ).run()
        assert recover.frames_completed > stall.frames_completed

    def test_upstream_death_redirects_host_source(self):
        """If the *first* node dies, the survivor must take over frame
        intake from the host (the stage-0 handoff path)."""
        from repro.hw.battery import KiBaM
        from tests.conftest import TINY_KIBAM
        import dataclasses

        capacities = iter([6.0, 40.0])  # node1 much smaller: dies first

        def uneven_factory():
            return KiBaM(
                dataclasses.replace(TINY_KIBAM, capacity_mah=next(capacities))
            )

        cfg = make_config(
            cuts=(1,),
            policy=DVSDuringIOPolicy(PinnedLevelsPolicy([73.7, 118.0])),
            recovery=True,
        )
        cfg.battery_factory = uneven_factory
        result = PipelineEngine(cfg).run()
        assert result.migrations
        _, survivor = result.migrations[0]
        assert survivor == "node2"
        assert "node1" in result.death_times_s
        # The survivor kept delivering after node1's death.
        assert result.last_result_s > result.death_times_s["node1"]

    def test_ack_segments_present(self):
        trace = TraceRecorder()
        PipelineEngine(
            make_config(
                cuts=(1,),
                policy=DVSDuringIOPolicy(PinnedLevelsPolicy([73.7, 118.0])),
                recovery=True,
                max_frames=5,
                trace=trace,
            )
        ).run()
        acks = [s for s in trace.all_segments() if s.activity == "ack"]
        assert acks


class TestStochasticTiming:
    def test_deterministic_runs_have_no_lateness(self):
        result = PipelineEngine(make_config(cuts=(1,), max_frames=50)).run()
        assert result.late_results == 0
        assert result.max_lateness_s == pytest.approx(0.0, abs=1e-9)

    def test_jittered_runs_reproducible_per_seed(self):
        from repro.hw.link import PAPER_LINK_TIMING_JITTERED

        def run(seed):
            cfg = make_config(cuts=(1,), max_frames=100, timing=PAPER_LINK_TIMING_JITTERED)
            cfg.seed = seed
            return PipelineEngine(cfg).run()

        a, b = run(7), run(7)
        assert a.result_times_s == b.result_times_s
        assert (a.max_lateness_s, a.late_results) == (b.max_lateness_s, b.late_results)
        c = run(8)
        assert a.result_times_s != c.result_times_s

    def test_partitioned_pipeline_absorbs_jitter(self):
        """The 2-stage pipeline's ~0.8 s of end-to-end slack swallows
        the paper's full 50-100 ms startup spread."""
        from repro.hw.link import PAPER_LINK_TIMING_JITTERED

        cfg = make_config(cuts=(1,), max_frames=200, timing=PAPER_LINK_TIMING_JITTERED)
        cfg.seed = 3
        result = PipelineEngine(cfg).run()
        assert result.late_results == 0

    def test_zero_slack_baseline_drifts_under_jitter(self):
        """The single-node baseline schedule is exactly tight (2.3 s of
        work in a 2.3 s frame at the 90 ms mean startup): zero-mean
        jitter around that point accumulates as a random walk and
        produces real deadline misses. (PAPER_LINK_TIMING_JITTERED has
        a 75 ms mean, which *creates* slack — use a zero-slack mean.)"""
        from repro.hw.link import TransactionTiming

        timing = TransactionTiming(
            bandwidth_bps=80_000.0, startup_s=0.09, startup_jitter_s=0.025
        )
        cfg = make_config(policy=BaselinePolicy(), max_frames=300, timing=timing)
        cfg.seed = 3
        result = PipelineEngine(cfg).run()
        assert result.late_results > 0
        assert result.max_lateness_s > 0.05


class TestStoreAndForward:
    def test_scheme1_still_runs_with_doubled_internode_cost(self):
        result = PipelineEngine(
            make_config(cuts=(1,), max_frames=20, store_and_forward=True)
        ).run()
        assert result.frames_completed == 20
        assert result.mean_result_period_s() == pytest.approx(D, rel=1e-6)

    def test_validation_uses_internode_timing(self):
        """A schedule that fits under cut-through must be re-checked
        against the doubled inter-node cost (here: tightened deadline)."""
        from repro.errors import ScheduleError

        # At D=2.29 the cut-through schedule still fits (node2 busy
        # 2.14s) but store-and-forward recv (0.6 KB -> 0.24s) pushes
        # node2 past it... use a deadline between the two busy times.
        cfg = make_config(cuts=(1,), max_frames=5, validate_schedules=False)
        cfg.deadline_s = 2.25
        cfg.store_and_forward = True
        cfg.validate_schedules = True
        with pytest.raises(ScheduleError):
            PipelineEngine(cfg)


class TestTermination:
    def test_max_frames(self):
        result = PipelineEngine(make_config(cuts=(1,), max_frames=7)).run()
        assert result.frames_completed == 7
        assert result.end_reason == "max-frames"

    def test_horizon(self):
        cfg = make_config(policy=BaselinePolicy())
        cfg.horizon_s = 30.0
        result = PipelineEngine(cfg).run()
        assert result.end_reason == "horizon"
        assert result.end_time_s == cfg.horizon_s

    def test_horizon_after_a_fast_forward_jump(self):
        """A jump drags the pending horizon timer along with the clock;
        the engine re-arms it, so a fast run still ends at the horizon."""
        spec = PAPER_EXPERIMENTS["2"]
        exact, fast = (
            PipelineEngine(
                make_config(
                    cuts=spec.cuts, policy=spec.policy, horizon_s=200.0,
                    fast_forward=mode,
                )
            ).run()
            for mode in (False, True)
        )
        assert fast.ff_jumps >= 1
        for result in (exact, fast):
            assert (result.end_reason, result.end_time_s) == ("horizon", 200.0)
        assert fast.frames_completed == exact.frames_completed

    def test_stall(self):
        """Experiment (2): node2 dies first and node1's results have
        nowhere to go, so the run ends 20 D after the last result."""
        spec = PAPER_EXPERIMENTS["2"]
        result = PipelineEngine(make_config(cuts=spec.cuts, policy=spec.policy)).run()
        assert result.end_reason == "stall"
        assert result.end_time_s == result.last_result_s + 20 * D


class TestValidation:
    def test_roles_must_match_partition(self):
        cfg = make_config(cuts=(1,))
        with pytest.raises(ConfigurationError):
            PipelineConfig(
                partition=cfg.partition,
                roles=cfg.roles[:1],
                node_names=("a",),
                battery_factory=tiny_battery_factory,
            )

    def test_rotation_and_recovery_exclusive(self):
        cfg = make_config(cuts=(1,))
        with pytest.raises(ConfigurationError):
            PipelineConfig(
                partition=cfg.partition,
                roles=cfg.roles,
                node_names=cfg.node_names,
                battery_factory=tiny_battery_factory,
                rotation=RotationController(10, 2),
                recovery=RecoveryConfig(),
            )

    def test_infeasible_pinned_schedule_rejected_up_front(self):
        from repro.errors import ScheduleError

        partition = Partition(PAPER_PROFILE, (1,))
        plans = [
            plan_node(a, PAPER_LINK_TIMING, D, SA1100_TABLE)
            for a in partition.assignments
        ]
        # Node2 pinned to 59 MHz cannot meet D.
        roles = PinnedLevelsPolicy([59.0, 59.0]).role_configs(plans, SA1100_TABLE)
        cfg = PipelineConfig(
            partition=partition,
            roles=roles,
            node_names=("node1", "node2"),
            battery_factory=tiny_battery_factory,
        )
        with pytest.raises(ScheduleError):
            PipelineEngine(cfg)

    def test_recovery_requires_two_nodes(self):
        partition = Partition(PAPER_PROFILE)
        plans = [plan_node(partition.stage(0), PAPER_LINK_TIMING, D, SA1100_TABLE)]
        roles = BaselinePolicy().role_configs(plans, SA1100_TABLE)
        with pytest.raises(ConfigurationError):
            PipelineConfig(
                partition=partition,
                roles=roles,
                node_names=("node1",),
                battery_factory=tiny_battery_factory,
                recovery=RecoveryConfig(),
            )
