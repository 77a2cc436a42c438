"""End-to-end benchmark of the reproduction: suites, sweep, explore, store.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                       # every workload, one pass each
    python3 benchmarks/e2e/run.py --workload suite_fast --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --workload batch_sweep --trace 1
    python3 benchmarks/e2e/run.py --repeat 10 --seconds 20   # stability mode
    python3 benchmarks/e2e/run.py --smoke               # small inputs, seconds

Each workload runs in fresh child processes, one at a time, with
``jobs=1``. Without ``--trace`` the last stdout line is a JSON object
with the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics of a traced run instead,
and a "where did the time go" table is printed above it. Every result
is also written with a machine stamp to ``--out`` (default
``.bench_out/``). See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD = HERE / "child.py"
#: Set-up is timed in this many fresh processes (the measuring child
#: plus set-up-only children around it) and reported as their median.
SETUP_SAMPLES = 3
#: Wall-clock limit for one workload, all its children included.
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A child failed or the benchmark cannot run here."""


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=10, env=_child_env(),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def machine_stamp() -> dict:
    """The facts a timing depends on, taken when the run starts."""
    cpus = len(os.sched_getaffinity(0))
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpus_affinity": cpus,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "jobs": 1,
        "parallel_scaling": (
            "not measured (cpus < 4)" if cpus < 4 else "not measured (jobs=1 only)"
        ),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # git lookups (the run registry records the commit) stay inside the
    # checkout instead of searching the directories above it.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    # Fixed string hashing, so dict and set layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out: pathlib.Path) -> dict:
    """Run one workload in fresh children; returns its result record."""
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
              "--out", str(out)] + (["--smoke"] if smoke else [])
    if trace:
        res = _child(common + ["--mode", "trace"], deadline)
        values = res["layer_metrics"]
        defs = spec["per_layer"]
    else:
        extra = 0 if smoke else SETUP_SAMPLES - 1
        setups = [_child(common + ["--mode", "setup"], deadline)
                  for _ in range(extra - extra // 2)]
        res = _child(common + ["--mode", "measure"], deadline)
        setups.append(res)
        setups += [_child(common + ["--mode", "setup"], deadline)
                   for _ in range(extra // 2)]
        res["setup_samples_s"] = [s["setup_s"] for s in setups]
        res["setup_wall_samples_s"] = [s["setup_wall_s"] for s in setups]
        values = {"setup_s": statistics.median(res["setup_samples_s"]),
                  "ref_wall_s": res["ref_wall_s"], "peak_rss_mb": res["peak_rss_mb"]}
        defs = spec["end_to_end"]
    missing = sorted({d["name"] for d in defs} - set(values))
    if missing:
        raise BenchError(f"{name}: no value for {missing}")
    failed = len(res["failures"])
    res.update(
        workload=name, seed=seed, seconds=seconds, smoke=smoke, traced=trace,
        correct=failed == 0, failed=failed,
        metrics={d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs},
    )
    return res


def _percent(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def print_result(spec: dict, res: dict) -> None:
    name = res["workload"]
    failed_frac = res["failed"] / res["attempted"]
    print(f"== {name}  seed {res['seed']}  {len(res['pass_walls_s'])} untraced pass(es)  "
          f"checks {res['attempted'] - res['failed']}/{res['attempted']} ok  "
          f"failed_frac {failed_frac:g}  output_digest {res['output_digest'][:16]}")
    for failure in res["failures"][:10]:
        print(f"   FAILED: {failure}")
    if res["traced"]:
        m = res["layer_metrics"]
        print(f"   where did the time go (median traced pass {m['traced_wall_s']:.3f} s, "
              f"trace overhead {m['trace_overhead_pct']:.1f}%):")
        print(f"   {'layer':<18}{'calls':>12}{'self_s':>11}{'share':>8}")
        for row in res["layers"]:
            print(f"   {row['layer']:<18}{row['calls']:>12}{row['self_s']:>11.4f}"
                  f"{_percent(row['share']):>8}")
        print(f"   trace file: {res['trace_file']}")
        defs = spec["per_layer"]
    else:
        defs = spec["end_to_end"]
    for d in defs:
        value = res["metrics"][d["name"]]["value"]
        bound = f"bound {_percent(d['bound'])}" if "bound" in d else ""
        print(f"   {d['name']:<32}{value:>14.6g} {d['unit']:<6} {d['better']:<7}{bound}")
    if not res["traced"]:
        for what, key in (("set-up, reference s", "setup_samples_s"),
                          ("set-up, wall s", "setup_wall_samples_s"),
                          ("passes, reference s", "pass_ref_walls_s"),
                          ("passes, wall s", "pass_walls_s")):
            print(f"   {what}: " + " ".join(f"{s:.4f}" for s in res[key]))
    info = "  ".join(f"{k} {v:.6g}" for k, v in res["info"].items())
    if info:
        print(f"   info: {info}")


def _summary(results: list[dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }


def _write(out: pathlib.Path, stamp: dict, res: dict) -> None:
    suffix = "-trace" if res["traced"] else ""
    path = out / f"result-{res['workload']}-seed{res['seed']}{suffix}.json"
    path.write_text(json.dumps({"machine": stamp, **res}, indent=1))


def repeat(spec: dict, names: list[str], args: argparse.Namespace,
           stamp: dict) -> tuple[list[dict], dict]:
    """Stability mode: ``--repeat`` runs of every workload, alternating
    their order, seeds ``seed .. seed + repeat - 1``; prints each
    end-to-end metric's median, quartiles and spread (IQR / median).
    Returns the runs and the medians in the result-line form."""
    results = []
    for i in range(args.repeat):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            res = run_workload(spec, name, args.seed + i, args.seconds, False,
                               args.smoke, args.out)
            _write(args.out, stamp, res)
            results.append(res)
            print(f"   run {i + 1}/{args.repeat} {name}: "
                  + "  ".join(f"{k} {v['value']:.4f}" for k, v in res["metrics"].items()),
                  flush=True)
    table = []
    medians: dict[str, dict] = {}
    print(f"   {'workload':<16}{'metric':<14}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'bound':>8}")
    for name in names:
        for d in spec["end_to_end"]:
            values = [r["metrics"][d["name"]]["value"] for r in results
                      if r["workload"] == name]
            q1, med, q3 = statistics.quantiles(values, n=4)
            row = {"workload": name, "metric": d["name"], "median": med, "q1": q1,
                   "q3": q3, "spread": (q3 - q1) / med, "bound": d["bound"],
                   "values": values}
            table.append(row)
            medians.setdefault(name, {})[d["name"]] = {"value": med, "unit": d["unit"]}
            print(f"   {name:<16}{d['name']:<14}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}"
                  f"{_percent(row['spread']):>9}{_percent(d['bound']):>8}")
    (args.out / "stability.json").write_text(
        json.dumps({"machine": stamp, "runs": args.repeat, "seconds": args.seconds,
                    "table": table}, indent=1))
    return results, medians


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 = canonical)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time to spend on passes per workload (at least one pass)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=0,
                        help="stability mode: this many runs of each workload")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs (suites 0A/1/2C, grid 2, a 1,296-config space)")
    parser.add_argument("--out", type=pathlib.Path, default=ROOT / ".bench_out",
                        help="directory for result and trace files")
    args = parser.parse_args(argv)
    if args.repeat == 1:
        parser.error("--repeat needs at least 2 runs for quartiles")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = machine_stamp()
    print("machine: " + "  ".join(f"{k} {v}" for k, v in stamp.items()), flush=True)

    try:
        if args.repeat > 0:
            results, medians = repeat(spec, names, args, stamp)
            print(json.dumps({**_summary(results), "metrics": medians}))
            return 0
        results = []
        for name in names:
            res = run_workload(spec, name, args.seed, args.seconds, bool(args.trace),
                               args.smoke, args.out)
            _write(args.out, stamp, res)
            print_result(spec, res)
            sys.stdout.flush()
            results.append(res)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps({**_summary(results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
