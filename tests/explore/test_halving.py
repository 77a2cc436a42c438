"""Successive halving: pruning, constraints, determinism, the audit.

The small spaces here use quarter-scale-and-below capacities so the
full simulations, exact-mode audits included, stay fast; the
determinism assertions are the same byte-identity contract the CI
explore-smoke job enforces on the CLI artifact.
"""

import dataclasses
import json

import pytest

from repro.core.experiments import experiment_fingerprint
from repro.errors import AuditError, ConfigurationError
from repro.exec import ResultCache
from repro.explore import Axis, SpaceSpec, explore, halving
from repro.explore.halving import RUNGS, _bucket_walk
from repro.hw.battery.peukert import PeukertBattery, peukert_rate
from repro.obs.store import RunRegistry


def small_space(**overrides) -> SpaceSpec:
    """120 configs with small batteries (exact sims finish quickly)."""
    axes = dict(
        policy=Axis.choice("policy", "baseline", "slowest", "dvs_io"),
        cut=Axis.choice("cut", (), (2,)),
        capacity_mah=Axis.grid("capacity_mah", 30.0, 70.0, 5),
        io_activity=Axis.grid("io_activity", 0.1, 0.6, 4),
    )
    axes.update(overrides)
    return SpaceSpec(axes=tuple(a for a in axes.values() if a is not None))


class TestExploreEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        return explore(small_space(), keep=(8, 4, 2))

    def test_rung_names_and_order(self, result):
        assert [r.name for r in result.rungs] == [r.name for r in RUNGS]

    def test_prunes_at_least_ninety_percent(self, result):
        assert result.n_configs == 120
        assert result.pruned_before_sim_fraction >= 0.90

    def test_frontier_nonempty_from_the_fast_rung(self, result):
        assert result.frontier
        last = result.rungs[-1]
        assert last.name == "exact"
        # The last rung keeps every entrant; its evaluations are the
        # audited few (none of this session's entrants hash in).
        assert last.promoted == last.entered == len(result.survivors)
        assert last.evaluated == 0
        # Every frontier member carries the run id of its fast-mode run.
        for member in result.frontier:
            assert len(member.run_id) == 64
        assert len(result.frontier) <= last.promoted

    def test_frontier_members_mutually_nondominated(self, result):
        from repro.explore import dominates

        points = [
            (m.lifetime_hours, m.frames, m.deadline_misses)
            for m in result.frontier
        ]
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                if i != j:
                    assert not dominates(a, b)

    def test_budgets_respected(self, result):
        keep = (8, 4, 2)
        for report, budget in zip(result.rungs, keep):
            assert report.promoted <= budget
            assert result.rungs[result.rungs.index(report) + 1].entered == (
                report.promoted
            )

    def test_payload_has_no_wall_clock(self, result):
        text = json.dumps(result.frontier_payload())
        assert "wall_s" not in text
        assert "executed" not in text
        assert "cache_hits" not in text

    def test_keep_validation(self):
        with pytest.raises(ConfigurationError, match="keep"):
            explore(small_space(), keep=(8, 4))
        with pytest.raises(ConfigurationError, match="keep"):
            explore(small_space(), keep=(8, 0, 2))
        with pytest.raises(ConfigurationError, match="chunk_size"):
            explore(small_space(), keep=(8, 4, 2), chunk_size=0)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, limit, tmp_path):
        # Not silently read as "no limit": nothing is scored or recorded.
        registry = RunRegistry(tmp_path / "runs.sqlite")
        with pytest.raises(ConfigurationError, match="limit must be >= 1"):
            explore(
                small_space(), keep=(8, 4, 2), limit=limit, registry=registry
            )
        assert registry.list_explore_sessions() == []

    @pytest.mark.parametrize("limit", [0, -3])
    def test_space_subsample_limit_below_one_rejected(self, limit):
        # Not read as "the whole space" by the enumeration either.
        space = small_space()
        with pytest.raises(ConfigurationError, match="limit must be >= 1"):
            space.indices(limit)
        with pytest.raises(ConfigurationError, match="limit must be >= 1"):
            space.configs(limit)
        assert len(space.indices(1)) == 1
        assert space.indices(None) == list(range(space.size()))


class TestDeterminism:
    def test_frontier_identical_serial_parallel_replay(self, tmp_path):
        space = small_space()
        keep = (8, 4, 2)
        cache = ResultCache(tmp_path / "cache")
        reg_a = RunRegistry(tmp_path / "a.sqlite")
        reg_b = RunRegistry(tmp_path / "b.sqlite")

        cold = explore(space, keep=keep, cache=cache, registry=reg_a)
        parallel = explore(space, keep=keep, jobs=2)
        replay = explore(space, keep=keep, cache=cache, registry=reg_b)

        blob = lambda r: json.dumps(r.frontier_payload(), sort_keys=True)
        assert blob(cold) == blob(parallel)
        assert blob(cold) == blob(replay)

        # The replay actually replayed: nothing past rung 0 executed.
        assert sum(r.executed for r in replay.rungs[1:]) == 0
        assert sum(r.cache_hits for r in replay.rungs[1:]) > 0

        # And the registry contents are byte-identical cold vs replay.
        assert reg_a.dump_rows() == reg_b.dump_rows()
        assert reg_a.dump_explore_rows() == reg_b.dump_explore_rows()

    def test_wrong_shape_cohort_chunk_is_a_miss(self, tmp_path):
        """A cached rung-1 chunk that does not decode is recomputed."""
        space = small_space()
        keep = (8, 4, 2)
        blob = lambda r: json.dumps(r.frontier_payload(), sort_keys=True)
        cold = explore(space, keep=keep)
        explore(space, keep=keep, cache=ResultCache(tmp_path))

        def cohort_entry():
            for path in sorted(tmp_path.rglob("*.json")):
                payload = json.loads(path.read_text())["payload"]
                if isinstance(payload, dict) and "lifetime_s" in payload:
                    return path
            return None

        path = cohort_entry()
        entry = json.loads(path.read_text())
        entry["payload"] = {"unexpected": 1}
        path.write_text(json.dumps(entry))

        replay = explore(space, keep=keep, cache=ResultCache(tmp_path))
        assert blob(replay) == blob(cold)
        assert replay.rungs[1].executed == 1
        assert cohort_entry() == path  # rewritten in full

    def test_limit_subsample_deterministic(self):
        space = small_space()
        a = explore(space, keep=(8, 4, 2), limit=40)
        b = explore(space, keep=(8, 4, 2), limit=40)
        assert a.n_configs == 40
        assert json.dumps(a.frontier_payload()) == json.dumps(
            b.frontier_payload()
        )


class TestConstraints:
    def test_all_infeasible_space_short_circuits(self):
        # A 0.2 s deadline fits no schedule: everything dies at rung 0
        # and no simulation ever runs.
        space = small_space(
            deadline_s=Axis.choice("deadline_s", 0.2),
        )
        result = explore(space, keep=(8, 4, 2))
        assert result.frontier == ()
        assert result.survivors == ()
        assert result.rungs[0].promoted == 0
        for report in result.rungs[1:]:
            assert report.entered == 0
            assert report.executed == 0
        assert sum(result.disqualified.values()) == result.n_configs

    def test_rotation_needs_two_nodes(self):
        space = SpaceSpec(axes=(
            Axis.choice("cut", ()),
            Axis.choice("rotation_period", 50),
            Axis.choice("capacity_mah", 40.0),
        ))
        result = explore(space, keep=(4, 2, 1))
        assert result.disqualified == {"rotation-feasibility": 1}
        assert result.frontier == ()

    def test_registry_streams_rung_snapshots(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        space = small_space(
            policy=Axis.choice("policy", "dvs_io"),
            io_activity=Axis.choice("io_activity", 0.3),
        )
        result = explore(space, keep=(4, 2, 1), registry=registry)
        sessions = registry.list_explore_sessions()
        # One snapshot per rung plus the final frontier record.
        assert len(sessions) == len(RUNGS) + 1
        final = sessions[0]
        assert final.rung == "frontier"
        assert len(final.rungs) == len(RUNGS)
        assert [m["label"] for m in final.frontier] == [
            m.config.label for m in result.frontier
        ]
        # Frontier members' fast runs registered as ordinary run records.
        run_ids = {record.run_id for record in registry.list_runs()}
        for member in result.frontier:
            assert member.run_id in run_ids


def _mode_fingerprints(space: SpaceSpec, mode: str) -> set[str]:
    """The registry fingerprint of every config's run in ``mode``."""
    return {
        experiment_fingerprint(
            config.experiment_spec(space.profile),
            dict(halving._sim_kwargs(config), mode=mode),
        )
        for config in space.configs()
    }


class TestAudit:
    KEEP = (8, 4, 2)

    @pytest.fixture(scope="class")
    def unaudited(self):
        return explore(small_space(), keep=self.KEEP)

    def test_unaudited_session_registers_no_exact_run(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs.sqlite")
        result = explore(small_space(), keep=self.KEEP, registry=registry)
        assert result.rungs[-1].evaluated == 0
        registered = {r.fingerprint for r in registry.list_runs()}
        assert registered
        assert registered <= _mode_fingerprints(small_space(), "fast")
        assert not registered & _mode_fingerprints(small_space(), "exact")

    def test_every_entrant_audited_at_rate_one(
        self, tmp_path, monkeypatch, unaudited
    ):
        monkeypatch.setattr(halving, "AUDIT_EVERY", 1)
        registry = RunRegistry(tmp_path / "runs.sqlite")
        result = explore(small_space(), keep=self.KEEP, registry=registry)
        last = result.rungs[-1]
        assert last.evaluated == last.entered == len(result.survivors) > 0
        exact = {
            experiment_fingerprint(
                m.config.experiment_spec(),
                dict(halving._sim_kwargs(m.config), mode="exact"),
            )
            for m in result.survivors
        }
        registered = {r.fingerprint for r in registry.list_runs()}
        assert exact <= registered
        assert registered & _mode_fingerprints(small_space(), "exact") == exact
        # The audit changes no number the frontier reports.
        assert result.frontier_payload()["frontier"] == (
            unaudited.frontier_payload()["frontier"]
        )

    def test_a_dropped_exact_frame_raises_naming_the_config(
        self, monkeypatch, unaudited
    ):
        monkeypatch.setattr(halving, "AUDIT_EVERY", 1)
        simulate = halving._sim_job

        def drop_a_frame(item):
            run = simulate(item)
            if item[1] != "exact":
                return run
            return dataclasses.replace(run, frames=run.frames - 1)

        monkeypatch.setattr(halving, "_sim_job", drop_a_frame)
        with pytest.raises(AuditError, match="frames") as caught:
            explore(small_space(), keep=self.KEEP)
        first = unaudited.survivors[0].config.index
        assert caught.value.index == first
        assert caught.value.field == "frames"
        assert f"config {first}" in str(caught.value)


class TestChemistries:
    def test_chemistry_axis_explores(self):
        space = small_space(
            policy=Axis.choice("policy", "dvs_io"),
            chemistry=Axis.choice("chemistry", "kibam", "linear", "peukert"),
            capacity_mah=Axis.choice("capacity_mah", 40.0),
            io_activity=Axis.choice("io_activity", 0.2, 0.5),
        )
        result = explore(space, keep=(6, 3, 2))
        assert result.frontier
        # The linear battery ignores rate effects, so at equal capacity
        # it should over-deliver relative to Peukert — check the rung-1
        # ordering survived into the survivors when both are present.
        assert result.rungs[1].evaluated > 0


class TestBucketWalk:
    def test_exact_whole_cycles(self):
        death, cycles = _bucket_walk(
            100.0, ((10.0, 2.0), (0.0, 3.0)), lambda i: i, 1e9
        )
        assert death == pytest.approx(25.0)
        assert cycles == 5

    def test_partial_cycle(self):
        death, cycles = _bucket_walk(
            110.0, ((10.0, 2.0), (0.0, 3.0)), lambda i: i, 1e9
        )
        assert cycles == 5
        assert death == pytest.approx(26.0)

    def test_death_in_idle_leg_never_happens(self):
        # Zero-current legs consume nothing; death lands in a drain leg.
        death, _ = _bucket_walk(
            105.0, ((10.0, 2.0), (0.0, 3.0)), lambda i: i, 1e9
        )
        assert death == pytest.approx(25.5)

    def test_horizon(self):
        death, cycles = _bucket_walk(
            100.0, ((10.0, 2.0), (0.0, 3.0)), lambda i: i, 10.0
        )
        assert death is None
        assert cycles == 5

    def test_zero_drain_is_immortal(self):
        death, cycles = _bucket_walk(
            100.0, ((0.0, 1.0),), lambda i: i, 1e9
        )
        assert death is None
        assert cycles == 0

    def test_peukert_rate_matches_scalar_battery(self):
        cell = PeukertBattery(100.0)
        for current in (0.0, 5.0, 60.0, 120.0, 250.0):
            # The explore rungs and the cell share one rate function.
            assert peukert_rate(current) == cell.effective_rate(current)

    def test_peukert_walk_matches_scalar_battery(self):
        cycle = ((120.0, 1.0), (20.0, 1.5))
        capacity_mah = 0.25
        death, _ = _bucket_walk(
            capacity_mah * 3600.0, cycle, peukert_rate, 1e9
        )
        cell = PeukertBattery(capacity_mah)
        t = 0.0
        while True:
            advanced = False
            for current, dt in cycle:
                ttd = cell.time_to_death(current)
                if ttd <= dt:
                    t += ttd
                    advanced = True
                    break
                cell.draw(current, dt)
                t += dt
            if advanced and ttd <= dt:
                break
        assert death == pytest.approx(t, rel=1e-9)
