"""Energy breakdown analysis."""

import pytest

from repro.analysis.energy import energy_breakdown_rows, render_energy_breakdown
from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment, run_paper_suite
from repro.errors import ConfigurationError
from repro.exec import ResultCache
from tests.conftest import tiny_battery_factory


@pytest.fixture(scope="module")
def partitioned_result():
    run = run_experiment(
        PAPER_EXPERIMENTS["2"],
        battery_factory=tiny_battery_factory,
        telemetry=True,
    )
    return run.pipeline


class TestRows:
    def test_one_row_per_node(self, partitioned_result):
        rows = energy_breakdown_rows(partitioned_result)
        assert {r["node"] for r in rows} == {"node1", "node2"}

    def test_charge_shares_sum_to_one(self, partitioned_result):
        for row in energy_breakdown_rows(partitioned_result):
            total = (
                row["computation_charge_pct"]
                + row["communication_charge_pct"]
                + row["idle_charge_pct"]
            )
            assert total == pytest.approx(100.0, abs=0.5)

    def test_node2_compute_dominated(self, partitioned_result):
        """§4.4: 'the computation always dominates' — on the heavy node."""
        rows = {r["node"]: r for r in energy_breakdown_rows(partitioned_result)}
        assert rows["node2"]["computation_charge_pct"] > 60.0
        # Node1's frame is mostly I/O time.
        assert (
            rows["node1"]["communication_time_pct"]
            > rows["node2"]["communication_time_pct"]
        )

    def test_survivor_strands_charge(self, partitioned_result):
        """§6.4: when Node2 fails, 'plenty of energy still remains' in Node1."""
        rows = {r["node"]: r for r in energy_breakdown_rows(partitioned_result)}
        assert rows["node2"]["died"] is True
        assert rows["node1"]["died"] is False
        assert rows["node1"]["stranded_mAh"] > rows["node2"]["stranded_mAh"]

    def test_requires_monitors(self):
        run = run_experiment(
            PAPER_EXPERIMENTS["1"],
            battery_factory=tiny_battery_factory,
            max_frames=3,
        )
        with pytest.raises(ConfigurationError, match="telemetry=True"):
            energy_breakdown_rows(run.pipeline)

    def test_stranded_is_remaining_charge(self, partitioned_result):
        for row in energy_breakdown_rows(partitioned_result):
            assert row["stranded_mAh"] == partitioned_result.remaining_mah[row["node"]]

    def test_cache_replay_matches_cold_run(self, tmp_path):
        """A replayed run has no live battery; its breakdown must not
        need one."""
        kwargs = dict(
            battery_factory=tiny_battery_factory,
            telemetry=True,
            monitor_interval_s=300.0,
            cache=ResultCache(tmp_path),
        )
        cold = run_paper_suite(["2"], **kwargs)["2"]
        warm = run_paper_suite(["2"], **kwargs)["2"]
        assert kwargs["cache"].hits == 1
        assert energy_breakdown_rows(warm.pipeline) == energy_breakdown_rows(
            cold.pipeline
        )


class TestRender:
    def test_renders_table(self, partitioned_result):
        text = render_energy_breakdown(partitioned_result)
        assert "energy breakdown" in text
        assert "node1" in text and "node2" in text
        assert "stranded" in text
