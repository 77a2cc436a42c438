"""The end-to-end benchmark: its definition, smoke runs and the tracer."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hostspeed = _load("hostspeed")
tracing = _load("tracing")
workloads = _load("workloads")

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e", "tests/bench"]
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])
    assert len(SPEC["command"]) <= 32
    assert not any(arg.startswith("/") or ".." in arg for arg in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60

    assert 2 <= len(WORKLOADS) <= 8
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]

    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")

    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)

    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(m["bound"] < setup["bound"] for n, m in END_TO_END.items() if n != "setup_s")


def test_per_layer_metrics_match_tracer_and_name_what_they_move():
    assert set(PER_LAYER) == set(tracing.metric_names())
    for metric in PER_LAYER:
        moves, controls = tracing.MOVES[tracing.layer_of(metric)]
        assert moves
        for e2e, workload in moves:
            assert e2e in END_TO_END and workload in WORKLOADS
        assert all(w in WORKLOADS for w in controls)


def test_seeds_only_choose_among_same_size_inputs():
    assert workloads.suite_labels(0, False) == workloads.PAPER_LABELS
    assert (workloads.rel_span(0), workloads.deadline(0)) == (0.10, 2.3)
    for seed in range(1, 20):
        assert sorted(workloads.suite_labels(seed, False)) == sorted(workloads.PAPER_LABELS)
        assert workloads.suite_labels(seed, False)[-1] == "2C"
        assert workloads.suite_labels(seed, True) == workloads.suite_labels(seed, True)
        assert workloads.rel_span(seed) in workloads.SPANS
        assert workloads.deadline(seed) in workloads.DEADLINES


def test_smoke_run_prints_every_metric_and_checks_outputs(tmp_path):
    proc = _run("--smoke", "--out", str(tmp_path))
    result = _result(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > len(WORKLOADS)
    assert set(result["metrics"]) == set(WORKLOADS)
    for workload, metrics in result["metrics"].items():
        assert set(metrics) == set(END_TO_END)
        for name, metric in metrics.items():
            assert metric["unit"] == END_TO_END[name]["unit"]
            assert metric["value"] > 0
    lines = proc.stdout.splitlines()
    assert sum("failed_frac 0 " in line for line in lines) == len(WORKLOADS)
    for name, m in END_TO_END.items():
        printed = [line for line in lines if line.split()[:1] == [name]]
        assert len(printed) == len(WORKLOADS)
        assert all(f" {m['unit']} " in line for line in printed)
    assert sum(line.startswith("machine: ") for line in lines) == 1
    assert "parallel_scaling not measured" in proc.stdout


@pytest.mark.parametrize("workload", ["suite_recorded", "explore_guided"])
def test_traced_smoke_accounts_for_the_pass(tmp_path, workload):
    result = _result(_run("--smoke", "--trace", "--workload", workload,
                          "--out", str(tmp_path)))
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: m["unit"] for n, m in PER_LAYER.items()
    }
    trace = json.loads((tmp_path / f"trace-{workload}-seed0.json").read_text())
    self_metrics = {m for _, _, _, _, m in tracing.TARGETS}
    for record in trace["passes"]:
        metrics = record["metrics"]
        # Self times are differences of clock reads; allow float rounding.
        assert all(metrics[m] >= -1e-9 for m in self_metrics)
        attributed = sum(metrics[m] for m in self_metrics)
        wall = metrics["traced_wall_s"]
        assert metrics["unattributed_s"] >= -1e-9
        assert abs(attributed + metrics["unattributed_s"] - wall) <= 0.01 * wall
    spans = trace["spans"]
    assert spans
    for i, (_, _, start, end, parent, _) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i
            assert spans[parent][2] <= start and end <= spans[parent][3]


def test_tracer_restores_patched_attributes():
    from repro.sim import Simulator

    owners = [tracing._resolve(module, path) for _, module, path, _, _ in tracing.TARGETS]
    before = [owner.__dict__[attr] for owner, attr in owners]
    with tracing.Tracer() as tracer:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(owners, before))
        Simulator().run()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(owners, before))
    assert tracer.stats["Simulator.run"].calls == 1

    with pytest.raises(RuntimeError), tracing.Tracer():
        raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(owners, before))


def test_scaled_removes_sampling_time_and_host_speed():
    sampler = hostspeed.SpeedSampler()
    ref = hostspeed.REF_LOOP_S
    # A host at half the reference speed: each loop takes twice as long.
    # Of the loops ending at 10, 12 and 14 s, only the middle one ran
    # inside [10, 13.9]; all three measure the speed around it.
    sampler.samples = [(10.0, 2 * ref), (12.0, 2 * ref), (14.0, 2 * ref)]
    assert sampler.scaled(10.0, 13.9) == pytest.approx((3.9 - 2 * ref) / 2)


def test_sampler_samples_on_its_timer_and_stops():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler() as sampler:
        end = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
