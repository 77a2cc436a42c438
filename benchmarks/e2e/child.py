"""One workload in one fresh process; ``run.py`` starts it.

Modes:

``setup``
    Build the workload's inputs and report ``setup_s`` only.
``measure``
    Set up, then run untraced passes until ``--seconds`` is used up
    (at least one), checking every pass's outputs.
``trace``
    The same, spending half the time on untraced passes and half on
    traced ones (at least one of each).

Set-up and pass times are reported twice: as wall seconds (``*wall_s``)
and as reference seconds (``setup_s``, ``ref_wall_s``), which
:mod:`hostspeed` corrects for the host's speed while they ran. A traced
run does not sample the host speed, so its passes are timed as they ran.

Prints one JSON object on stdout and writes the spans of a traced run
to ``<out>/trace-<workload>-seed<seed>.json``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any repro import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def timed_passes(wl, seconds, checks, digests, sampler, trace=None):
    """Run passes until ``seconds`` would be overrun; returns pass records.

    With ``trace`` (a dict collecting passes and spans), each pass runs
    under a fresh :class:`tracing.Tracer` and its record carries the
    per-layer metrics and the layer table.
    """
    records = []
    started = time.perf_counter()
    while True:
        wl.before_pass()
        gc.collect()
        tracer = None
        if trace is not None:
            tracer = tracing.Tracer(pass_id=len(trace["passes"]), spans=trace["spans"])
        sampler.sample()
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.run_pass()
            t1 = time.perf_counter()
        sampler.sample()
        wall = t1 - t0
        record = {"wall_s": wall, "ref_wall_s": sampler.scaled(t0, t1),
                  "info": wl.info(out, wall)}
        if tracer is not None:
            record["metrics"] = {**tracer.metrics(wall), **wl.layer_metrics(out)}
            record["layers"] = tracer.layer_table(wall)
            record["functions"] = tracer.function_stats()
            trace["passes"].append(record)
        wl.check(out, checks)
        digests.append(workloads.digest(wl.digest_payload(out)))
        checks.expect(
            digests[-1] == digests[0], "a pass's outputs differ from the first pass's"
        )
        del out
        records.append(record)
        if time.perf_counter() - started + wall > seconds:
            return records


def median_record(records):
    """The pass with the median wall time (the lower one of an even count)."""
    ordered = sorted(records, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def measure(wl, args, sampler):
    checks = workloads.Checks()
    digests = []
    result = {}
    if args.mode == "trace":
        plain = timed_passes(wl, args.seconds / 2, checks, digests, sampler)
        trace = {"passes": [], "spans": []}
        timed_passes(wl, args.seconds / 2, checks, digests, sampler, trace)
        untraced_s = median_record(plain)["wall_s"]
        chosen = median_record(trace["passes"])
        result["layer_metrics"] = {
            **chosen["metrics"],
            "trace_overhead_pct": 100.0 * (chosen["wall_s"] / untraced_s - 1.0),
        }
        result["layers"] = chosen["layers"]
        path = args.out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "untraced_walls_s": [r["wall_s"] for r in plain],
            "passes": trace["passes"],
            "span_fields": ["name", "layer", "start_s", "end_s", "parent", "pass"],
            "spans": trace["spans"],
        }))
        result["trace_file"] = str(path)
    else:
        plain = timed_passes(wl, args.seconds, checks, digests, sampler)
    result.update(
        pass_walls_s=[r["wall_s"] for r in plain],
        pass_ref_walls_s=[r["ref_wall_s"] for r in plain],
        wall_s=statistics.median(r["wall_s"] for r in plain),
        ref_wall_s=statistics.median(r["ref_wall_s"] for r in plain),
        info=median_record(plain)["info"],
        attempted=checks.attempted,
        failures=checks.failures,
        output_digest=digests[0],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload)
    try:
        with hostspeed.SpeedSampler() as sampler:
            wl.setup(args.seed, args.smoke, args.out)
            ready = time.perf_counter()
            sampler.sample()
            result = {"setup_wall_s": ready - T0, "setup_s": sampler.scaled(T0, ready)}
            if args.mode == "trace":
                sampler.stop()
            if args.mode != "setup":
                result.update(measure(wl, args, sampler))
    finally:
        wl.close()
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
