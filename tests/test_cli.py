"""CLI behaviour (invoked in-process via main())."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_registry(tmp_path, monkeypatch):
    """Keep default registry writes out of the working tree."""
    monkeypatch.setenv("REPRO_RUNS_DB", str(tmp_path / "default-runs.sqlite"))


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for cmd in (
            "run", "suite", "figures", "partition", "trace", "calibrate", "profile",
        ):
            args = parser.parse_args(
                [cmd] + (["fig7"] if cmd == "figures" else [])
                + (["1"] if cmd == "trace" else [])
            )
            assert args.command == cmd


class TestFigures:
    @pytest.mark.parametrize("figure", ["fig6", "fig7", "fig8"])
    def test_static_figures_render(self, figure, capsys):
        assert main(["figures", figure]) == 0
        out = capsys.readouterr().out
        assert "Fig." in out

    def test_export_csv(self, tmp_path, capsys):
        target = tmp_path / "fig7.csv"
        assert main(["figures", "fig7", "--export", str(target)]) == 0
        assert target.read_text().startswith("freq_mhz")


class TestPartition:
    def test_default_analysis(self, capsys):
        assert main(["partition"]) == 0
        out = capsys.readouterr().out
        assert "selected (energy criterion)" in out
        assert "target_detection" in out

    def test_infeasible_deadline_reported(self, capsys):
        assert main(["partition", "--deadline", "1.3"]) == 0
        assert "no feasible scheme" in capsys.readouterr().out

    def test_bandwidth_option(self, capsys):
        assert main(["partition", "--bandwidth-kbps", "1000"]) == 0
        assert "1000 Kbps" in capsys.readouterr().out


class TestTrace:
    def test_renders_gantt(self, capsys):
        assert main(["trace", "2", "--frames", "4", "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "node1" in out and "node2" in out
        assert "P=proc" in out

    def test_unknown_label(self, capsys):
        assert main(["trace", "9Z"]) == 2

    def test_no_io_experiment_rejected(self, capsys):
        assert main(["trace", "0A"]) == 2


class TestTraceExport:
    def test_chrome_export_is_valid_with_node_tracks(self, tmp_path, capsys):
        import json

        from tests.obs.chrome_schema import expect_tracks, validate_chrome_trace

        out = tmp_path / "trace.json"
        code = main(["trace", "2", "--frames", "4",
                     "--export", "chrome", "-o", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        assert expect_tracks(payload, ["node1", "node2"]) == []

    def test_jsonl_export_reloads(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "2", "--frames", "4",
                     "--export", "jsonl", "-o", str(out)]) == 0
        bundle = read_jsonl(out)
        assert bundle.segments and bundle.events
        assert bundle.metrics is not None

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["trace", "2", "--frames", "4",
                     "--export", "csv", "-o", str(out)]) == 0
        assert out.read_text().startswith("actor")


class TestMetrics:
    def test_prints_metric_tables(self, capsys):
        code = main(["metrics", "1A", "--frames", "5", "--fast", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment 1A metrics" in out
        assert "frames.completed" in out
        assert "frame.latency_s" in out

    def test_merged_table_for_multiple_labels(self, capsys):
        code = main(["metrics", "1A", "2", "--frames", "5", "--fast",
                     "--no-cache"])
        assert code == 0
        assert "all experiments (merged)" in capsys.readouterr().out

    def test_unknown_label(self, capsys):
        assert main(["metrics", "9Z"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_export_rows(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "1A", "--frames", "5", "--fast",
                     "--no-cache", "--export", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("label") and "counter" in text


class TestRun:
    def test_unknown_label_exit_code(self, capsys):
        assert main(["run", "9Z"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fast_run_prints_metrics(self, capsys, tmp_path):
        import json

        target = tmp_path / "out.json"
        code = main(["run", "1", "--fast", "--export", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment results" in out
        # Paper-scale cells: experiment 1's full-capacity frame count.
        (row,) = json.loads(target.read_text())
        assert row["frames"] == 9509


class _Stop(Exception):
    """Raised by the stubbed experiment runners once they have recorded
    the call, so no subcommand simulates anything."""


def _subcommands(parser, prefix=""):
    """(name path, parser) for every subcommand, nested ones included."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + name, sub
                yield from _subcommands(sub, prefix + name + " ")


class TestModeFlag:
    """Exact is the default everywhere; ``--fast`` is ``mode="fast"``
    on the paper's battery, never a smaller cell."""

    COMMANDS = {
        "run": ["run", "1", "--no-cache", "--no-registry"],
        "suite": ["suite", "--no-cache", "--no-registry"],
        "figures": ["figures", "fig10", "--no-cache", "--no-registry"],
        "metrics": ["metrics", "1", "--no-cache", "--no-registry"],
        "check": ["check", "2", "--no-registry"],
        "report": ["report", "--no-cache", "--no-registry",
                   "-o", "r.html"],
        "explain energy": ["explain", "energy", "--label", "2"],
    }

    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_selects_mode_on_paper_battery(
        self, command, fast, monkeypatch, tmp_path
    ):
        from repro import cli
        from repro.core import experiments
        from repro.hw.battery.kibam import PAPER_BATTERY

        calls = []

        def record(*args, **kwargs):
            calls.append(kwargs)
            raise _Stop

        monkeypatch.setattr(cli, "run_paper_suite", record)
        monkeypatch.setattr(experiments, "run_experiment", record)
        monkeypatch.chdir(tmp_path)
        argv = self.COMMANDS[command] + (["--fast"] if fast else [])
        with pytest.raises(_Stop):
            main(argv)
        (kwargs,) = calls
        assert kwargs["mode"] == ("fast" if fast else "exact")
        assert kwargs.get("battery_factory", PAPER_BATTERY) is PAPER_BATTERY

    def test_fast_only_where_experiments_run(self):
        with_fast = {
            name for name, sub in _subcommands(build_parser())
            if "--fast" in sub._option_string_actions
        }
        assert with_fast == set(self.COMMANDS)

    def test_no_exact_option(self):
        for name, sub in _subcommands(build_parser()):
            assert "--exact" not in sub._option_string_actions, name


class TestSuite:
    def test_sweep_item_failure_is_a_cli_error(self, capsys, monkeypatch):
        """A parallel item failure prints ``error: ...``, not a traceback."""
        from repro import cli
        from repro.exec.executor import SweepItemError

        def failing_suite(*args, **kwargs):
            raise SweepItemError(3, 1, "ValueError: poison")

        monkeypatch.setattr(cli, "run_paper_suite", failing_suite)
        assert main(["suite", "--jobs", "2", "--no-cache"]) == 1
        assert "error: sweep item 3 failed" in capsys.readouterr().err


class TestOptimize:
    def test_ranks_design_space(self, capsys):
        assert main(["optimize", "--stages", "2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "design space" in out
        assert "rotation" in out

    def test_objective_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "--objective", "vibes"])


class TestProfile:
    def test_prints_measured_blocks(self, capsys):
        assert main(["profile", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "measured ATR profile" in out
        assert "target_detection" in out
        assert "compute_distance" in out

    def test_frames_flag(self, capsys):
        assert main(["profile", "--frames", "3", "--repeats", "1"]) == 0
        assert "3 frame(s)" in capsys.readouterr().out

    def test_export_csv(self, tmp_path, capsys):
        target = tmp_path / "profile.csv"
        assert main(
            ["profile", "--repeats", "1", "--export", str(target)]
        ) == 0
        assert target.read_text().startswith("block")

    def test_invalid_frames_is_clean_error(self, capsys):
        assert main(["profile", "--frames", "0", "--repeats", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRuns:
    """`repro runs list|show|diff|reset` against a seeded registry."""

    @pytest.fixture(scope="class")
    def records(self):
        from repro.core.experiments import (
            PAPER_EXPERIMENTS,
            experiment_fingerprint,
            run_experiment,
        )
        from repro.obs import build_run_record
        from tests.conftest import tiny_battery_factory

        kw = dict(
            battery_factory=tiny_battery_factory,
            max_frames=15,
            telemetry=True,
            monitor_interval_s=60.0,
        )
        out = {}
        for label in ("2", "2A"):
            run = run_experiment(PAPER_EXPERIMENTS[label], **kw)
            out[label] = build_run_record(
                run, experiment_fingerprint(PAPER_EXPERIMENTS[label], kw)
            )
        return out

    @pytest.fixture()
    def db(self, tmp_path, records):
        from repro.obs import RunRegistry

        path = tmp_path / "runs.sqlite"
        registry = RunRegistry(path)
        for record in records.values():
            registry.record(record)
        return str(path)

    def test_list_shows_registered_runs(self, db, capsys):
        assert main(["runs", "--db", db, "list"]) == 0
        out = capsys.readouterr().out
        assert "run registry" in out
        assert " 2 " in out and " 2A " in out

    def test_list_filters_by_label(self, db, capsys):
        assert main(["runs", "--db", db, "list", "--label", "2A"]) == 0
        out = capsys.readouterr().out
        assert " 2A " in out
        assert " 2 \n" not in out

    def test_list_paginates_with_limit_and_offset(self, db, capsys):
        assert main(["runs", "--db", db, "list", "--limit", "1"]) == 0
        first_page = capsys.readouterr().out
        assert main(["runs", "--db", db, "list", "--limit", "1",
                     "--offset", "1"]) == 0
        second_page = capsys.readouterr().out
        assert "runs 2..2" in second_page
        # Two seeded runs: each page shows exactly one, and they differ.
        first_ids = [ln.split()[0] for ln in first_page.splitlines()
                     if "|" in ln and "run_id" not in ln]
        second_ids = [ln.split()[0] for ln in second_page.splitlines()
                      if "|" in ln and "run_id" not in ln]
        assert len(first_ids) == 1 and len(second_ids) == 1
        assert first_ids != second_ids

    def test_list_offset_past_end_is_empty(self, db, capsys):
        assert main(["runs", "--db", db, "list", "--offset", "99"]) == 0
        assert "no registered runs" in capsys.readouterr().out

    def test_list_empty_registry(self, tmp_path, capsys):
        db = str(tmp_path / "empty.sqlite")
        assert main(["runs", "--db", db, "list"]) == 0
        assert "no registered runs" in capsys.readouterr().out

    def test_show_resolves_prefix(self, db, records, capsys):
        run_id = records["2A"].run_id
        assert main(["runs", "--db", db, "show", run_id[:10]]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "label    2A" in out
        assert "summary" in out

    def test_show_unknown_id_is_clean_error(self, db, capsys):
        assert main(["runs", "--db", db, "show", "feedface"]) == 1
        assert "no registered run" in capsys.readouterr().err

    def test_diff_between_policies_prints_nonzero_deltas(
        self, db, records, capsys
    ):
        a, b = records["2"].run_id, records["2A"].run_id
        assert main(["runs", "--db", db, "diff", a[:12], b[:12]]) == 0
        out = capsys.readouterr().out
        assert "counter:events.dvs.switch" in out
        assert "REGRESSION" not in out  # threshold 0: report only

    def test_diff_threshold_flags_regressions(self, db, records, capsys):
        a, b = records["2"].run_id, records["2A"].run_id
        code = main(
            ["runs", "--db", db, "diff", a[:12], b[:12], "--threshold", "0.5"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "moved more than" in out

    def test_diff_run_against_itself_is_empty(self, db, records, capsys):
        a = records["2"].run_id
        assert main(["runs", "--db", db, "diff", a, a]) == 0
        assert "no metric deltas" in capsys.readouterr().out

    def test_reset_empties_registry(self, db, capsys):
        assert main(["runs", "--db", db, "reset"]) == 0
        assert "removed 2 run(s)" in capsys.readouterr().out
        assert main(["runs", "--db", db, "list"]) == 0
        assert "no registered runs" in capsys.readouterr().out


class TestCheck:
    """`repro check` invariants, Fig. 10 ordering, and baseline diffs."""

    def test_single_label_invariants_hold(self, tmp_path, capsys):
        db = str(tmp_path / "runs.sqlite")
        code = main(["check", "2", "--fast", "--no-cache", "--db", db])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment 2 invariants" in out
        assert "all invariants held" in out
        assert "FAIL" not in out

    def test_unknown_label_rejected(self, capsys):
        assert main(["check", "7Z", "--no-registry"]) == 2
        assert "unknown experiment labels" in capsys.readouterr().err

    def test_paper_ordering_verifies_and_registers(self, tmp_path, capsys):
        db = str(tmp_path / "runs.sqlite")
        args = ["check", "--paper", "--fast", "--no-cache", "--db", db]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "running unregistered experiments" in first
        assert "Fig. 10 ordering verified: 2C > 2B > 2A > 2" in first
        # Second invocation finds all four runs already registered.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "running unregistered experiments" not in second
        assert "Fig. 10 ordering verified" in second

    def test_baseline_regression_detected(self, tmp_path, capsys):
        from repro.core.experiments import (
            PAPER_EXPERIMENTS,
            experiment_fingerprint,
            run_experiment,
        )
        from repro.obs import RunRegistry, build_run_record
        from tests.conftest import tiny_battery_factory

        # A tiny-battery baseline: a fresh paper-scale run of the same
        # label must diverge far past any reasonable threshold.
        kw = dict(battery_factory=tiny_battery_factory, telemetry=True,
                  monitor_interval_s=60.0)
        run = run_experiment(PAPER_EXPERIMENTS["2"], **kw)
        record = build_run_record(
            run, experiment_fingerprint(PAPER_EXPERIMENTS["2"], kw)
        )
        db = tmp_path / "runs.sqlite"
        RunRegistry(db).record(record)
        code = main(
            ["check", "--baseline", record.run_id[:12], "--fast",
             "--no-cache", "--db", str(db)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "against the baseline" in out


class TestSweep:
    """`repro sweep`: grid and one-at-a-time cohort sweeps."""

    def test_scalar_sweep_prints_table(self, capsys):
        assert main(["sweep", "--mode", "one_at_a_time", "--no-cache"]) == 0
        out = capsys.readouterr().out
        for label in ("nominal", "capacity -10%", "capacity +10%", "c -10%",
                      "c +10%", "k_prime -10%", "k_prime +10%",
                      "io_activity -10%", "io_activity +10%"):
            assert label in out
        assert "ordering holds for 9/9" in out
        assert "VIOLATED" not in out

    def test_batch_sweep_with_verify(self, capsys):
        code = main(["sweep", "--grid", "2", "--verify", "4",
                     "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "16 configs" in out
        assert "ordering holds for 16/16" in out
        assert "frames identical: True" in out
        assert "[ok]" in out

    def test_batch_sweep_export(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code = main(["sweep", "--grid", "2", "--no-cache",
                     "--export", str(target)])
        assert code == 0
        text = target.read_text()
        assert "Rnorm_rot" in text
        assert len(text.splitlines()) == 17  # header + 16 configs

    def test_batch_one_at_a_time_mode(self, tmp_path, capsys):
        """The printed table and the export share one row shape."""
        target = tmp_path / "sweep.csv"
        code = main(["sweep", "--mode", "one_at_a_time", "--no-cache",
                     "--export", str(target)])
        assert code == 0
        assert "nominal" in capsys.readouterr().out
        lines = target.read_text().splitlines()
        assert lines[0] == ("label,T1_h,Tnorm_part_h,Tnorm_rot_h,Rnorm_part,"
                            "Rnorm_rot,ordering,frames")
        assert len(lines) == 10  # header + 9 configs
        assert lines[1].startswith("nominal,")

    def test_paper_check_still_passes_after_batch_sweep(self, tmp_path, capsys):
        """Fast runs and batched sweeps coexist: the folded monitors
        still verify the Fig. 10 ordering."""
        assert main(["sweep", "--grid", "2", "--no-cache"]) == 0
        capsys.readouterr()
        db = str(tmp_path / "runs.sqlite")
        assert main(["check", "--paper", "--fast", "--no-cache",
                     "--db", db]) == 0
        assert "Fig. 10 ordering verified" in capsys.readouterr().out


class TestReport:
    def test_default_output_is_self_contained_html(
        self, tmp_path, monkeypatch, capsys
    ):
        from tests.obs.html_schema import validate_html

        monkeypatch.chdir(tmp_path)
        assert main(["report", "1", "--fast", "--no-cache",
                     "--no-registry"]) == 0
        page = (tmp_path / "reproduction_report.html").read_text(
            encoding="utf-8"
        )
        assert validate_html(page) == []
        assert "self-contained HTML, 1 experiments" in capsys.readouterr().out

    def test_labels_are_honoured(self, tmp_path, capsys):
        out = tmp_path / "r.html"
        assert main(["report", "2", "2C", "--fast", "--no-cache",
                     "--no-registry", "-o", str(out)]) == 0
        page = out.read_text(encoding="utf-8")
        assert 'id="run-2"' in page and 'id="run-2C"' in page
        assert 'id="run-1"' not in page and 'id="run-2A"' not in page

    def test_non_html_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.md"
        assert main(["report", "1", "--fast", "--no-registry",
                     "-o", str(out)]) == 2
        assert ".html" in capsys.readouterr().err
        assert not out.exists()

    def test_fleet_without_registry_exits_two(self, tmp_path, capsys):
        out = tmp_path / "r.html"
        assert main(["report", "1", "--fleet", "--no-registry",
                     "-o", str(out)]) == 2
        assert "--fleet needs the registry" in capsys.readouterr().err
        assert not out.exists()


class TestCalibrate:
    def test_reports_residuals(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "fitted parameters" in out
        assert "worst |error|" in out


class TestExplore:
    def test_small_space_resolves_to_frontier(self, tmp_path, capsys):
        export = tmp_path / "frontier.json"
        code = main([
            "explore", "--bandwidth-points", "2", "--capacity-points", "1",
            "--io-points", "2", "--keep", "8", "2", "1",
            "--no-cache", "--db", str(tmp_path / "runs.sqlite"),
            "--export", str(export),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rung predict" in out
        assert "rung exact" in out
        assert "Pareto frontier" in out
        assert "pruned before any" in out
        import json

        payload = json.loads(export.read_text())
        assert payload["frontier"]
        assert [r["name"] for r in payload["rungs"]] == [
            "predict", "cohort", "fast", "exact",
        ]
        assert "wall_s" not in export.read_text()

    def test_all_infeasible_space_exits_nonzero(self, tmp_path, capsys):
        code = main([
            "explore", "--bandwidth-points", "1", "--capacity-points", "1",
            "--io-points", "1", "--deadlines", "0.2", "--keep", "4", "2", "1",
            "--no-cache", "--no-registry",
        ])
        assert code == 1
        assert "empty frontier" in capsys.readouterr().out

    def test_guided_matches_exhaustive_export(self, tmp_path, capsys):
        import json

        args = [
            "explore", "--bandwidth-points", "2", "--capacity-points", "1",
            "--io-points", "2", "--keep", "8", "2", "1",
            "--no-cache", "--no-registry",
        ]
        # The default probe (2048) covers this 288-config space, so the
        # first run scores every config: the brute-force reference.
        brute = tmp_path / "brute.json"
        guided = tmp_path / "guided.json"
        assert main(args + ["--export", str(brute)]) == 0
        assert main(args + ["--probe", "16", "--export", str(guided)]) == 0
        out = capsys.readouterr().out
        assert "guided sampler: probed" in out
        a = json.loads(brute.read_text())
        b = json.loads(guided.read_text())
        assert json.dumps(a["frontier"], sort_keys=True) == json.dumps(
            b["frontier"], sort_keys=True
        )
        assert a["sampler"]["stop_reason"] == "exhausted"
        assert a["sampler"]["probed"] == a["sampler"]["universe"] == 288
        assert b["sampler"]["stop_reason"] == "stable"

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_rejected(self, limit, capsys):
        code = main([
            "explore", "--bandwidth-points", "1", "--capacity-points", "1",
            "--io-points", "1", "--keep", "4", "2", "1",
            "--no-cache", "--no-registry", "--limit", limit,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert f"limit must be >= 1, got {limit}" in captured.err
        assert "rung predict" not in captured.out

    @pytest.mark.parametrize("flag", ["--limit", "--probe", "--chunk"])
    def test_bad_argument_prints_no_header(self, flag, capsys):
        # The argument check runs before the "exploring N of M" header.
        code = main([
            "explore", "--bandwidth-points", "2", "--capacity-points", "3",
            "--io-points", "3", "--keep", "4", "2", "1",
            "--no-cache", "--no-registry", flag, "0",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "must be >= 1, got 0" in captured.err
        assert "exploring" not in captured.out

    def test_resume_latest_round_trip(self, tmp_path, capsys):
        import json

        db = str(tmp_path / "runs.sqlite")
        args = [
            "explore", "--bandwidth-points", "2", "--capacity-points", "1",
            "--io-points", "2", "--keep", "8", "2", "1", "--db", db,
            "--no-cache",
        ]
        first = tmp_path / "first.json"
        resumed = tmp_path / "resumed.json"
        assert main(args + ["--export", str(first)]) == 0
        assert main(
            args + ["--resume", "latest", "--export", str(resumed)]
        ) == 0
        assert "resuming" in capsys.readouterr().out
        assert first.read_bytes() == resumed.read_bytes()

    def test_resume_without_match_exits_two(self, tmp_path, capsys):
        code = main([
            "explore", "--bandwidth-points", "1", "--capacity-points", "1",
            "--io-points", "1", "--keep", "4", "2", "1",
            "--db", str(tmp_path / "empty.sqlite"),
            "--resume", "latest",
        ])
        assert code == 2
        assert "no resumable explore session" in capsys.readouterr().out


class TestCache:
    def test_info_empty(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main(["cache", "--root", root, "info"]) == 0
        out = capsys.readouterr().out
        assert "entries  0" in out

    def test_info_and_prune_cycle(self, tmp_path, capsys):
        from repro.exec import ResultCache

        root = str(tmp_path / "cache")
        ResultCache(root, salt="old-salt").put("ab" * 32, {"v": 1})
        ResultCache(root).put("cd" * 32, {"v": 2})
        assert main(["cache", "--root", root, "info"]) == 0
        out = capsys.readouterr().out
        assert "entries  2" in out
        assert "stale" in out
        assert main(["cache", "--root", root, "prune", "--stale"]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert main(["cache", "--root", root, "prune", "--all"]) == 0
        assert "removed 1 entry" in capsys.readouterr().out

    def test_prune_without_criteria_errors(self, tmp_path, capsys):
        assert main(["cache", "--root", str(tmp_path), "prune"]) == 2
        assert "nothing to do" in capsys.readouterr().err


class TestRunsGc:
    def test_keep_last(self, tmp_path, capsys):
        from repro.obs import RunRegistry
        from tests.obs.test_store_gc import fake_record

        db = str(tmp_path / "runs.sqlite")
        registry = RunRegistry(db)
        for i in range(5):
            registry.record(fake_record(i))
        assert main(["runs", "--db", db, "gc", "--keep-last", "2"]) == 0
        assert "removed 3 row(s)" in capsys.readouterr().out
        assert len(registry.list_runs()) == 2

    def test_gc_without_criteria_is_clean_error(self, tmp_path, capsys):
        db = str(tmp_path / "runs.sqlite")
        assert main(["runs", "--db", db, "gc"]) == 1
        assert "gc needs" in capsys.readouterr().err
