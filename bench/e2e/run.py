#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark, and turns its raw samples into
the metrics BENCHMARK.json names.

One run (the last stdout line is its result as JSON):

    python3 bench/e2e/run.py --workload calib_har --seed 1 --seconds 24 --trace 0

Several runs, seeds N, N+1, ... per workload, with a stability table:

    python3 bench/e2e/run.py [--workload=a,b] [--seed=N] [--trace] \
        [--repeat=N] [--out=FILE] [--seconds=S]

    python3 bench/e2e/run.py --smoke   # every workload for ~3 s, both modes

The C++ binary (bench_e2e) drives the system and records raw samples; every
statistic is computed here, so this file is the one definition of each
metric. The build lands in $CARGO_TARGET_DIR/e2e (default .bench_build/e2e).
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 3.0
# Set-ups per untraced run; setup_s is their median. Traced runs set up once.
SETUP_REPEATS = 5
# The calibration tail: the p75 of the untraced steps of a traced run. A
# traced run replays every step, so only 14-17 of its steps are untraced
# and 3-4 lie beyond the p75 (see README.md, "Tails").
CALIB_TAIL_Q = 0.75
STAGE_SUM_TOLERANCE = 0.10
STAGES = ["pool_ms", "miss_forward_ms", "iteration_ms", "resample_ms",
          "eval_ms"]


# ---------------------------------------------------------------- statistics

def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def stage_sum_ratio(stage_samples, step_latencies, trace_flags):
    """Over the untraced steps, the fastest replay's stage sum over the
    fastest served step. Every step does the same work (its GEMM count
    repeats exactly), and a slow spell of the shared host only adds time,
    to one thread at a time: the served step runs on a pool worker and its
    replay on the calling thread, so pairing or taking medians measures
    which of the two the host slowed. Both minima are over the same steps,
    so neither side has more draws. Series of unequal length (a step
    failed) give 0."""
    n = len(step_latencies)
    if n == 0 or len(trace_flags) != n or any(len(s) != n
                                              for s in stage_samples):
        return 0.0
    untraced = [i for i in range(n) if not trace_flags[i]]
    if not untraced or min(step_latencies[i] for i in untraced) <= 0.0:
        return 0.0
    return (min(sum(s[i] for s in stage_samples) for i in untraced) /
            min(step_latencies[i] for i in untraced))


def stage_sum_ok(ratio, tolerance=STAGE_SUM_TOLERANCE):
    return abs(ratio - 1.0) <= tolerance


def relative_spread(values):
    """Interquartile distance over the median, as the stability rule reads
    it (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def max_relative_spread(values):
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def split_by_flag(values, flags):
    on = [v for v, f in zip(values, flags) if f]
    off = [v for v, f in zip(values, flags) if not f]
    return on, off


def overhead_pct(values, flags):
    on, off = split_by_flag(values, flags)
    if not on or not off:
        return 0.0
    return (statistics.median(on) / statistics.median(off) - 1.0) * 100.0


# ------------------------------------------------------------------- metrics

def _series(raw, name):
    return raw["series"].get(name, [])


def _scalar(raw, name):
    return raw["scalars"].get(name, 0.0)


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(raw):
    """The user-visible metrics: set-up, one calibration step as its caller
    sees it (submit -> future), and memory."""
    return {
        "setup_s": _median(_series(raw, "setup_s")),
        "calib_step_ms_p50": percentile(_series(raw, "calib.latency_ms"), 0.5),
        "peak_rss_mb": _scalar(raw, "peak_rss_kb") / 1024.0,
    }


def per_layer(raw):
    s = lambda name: _series(raw, name)
    wide = sum(s("stage.gemm_wide"))
    calls = [w + n for w, n in zip(s("stage.gemm_wide"),
                                   s("stage.gemm_narrow"))]
    _, untraced_steps = split_by_flag(s("calib.latency_ms"),
                                      s("calib.trace_on"))
    return {
        "core.qcore_update.pool_ms": _median(s("stage.pool_ms")),
        "core.continual.miss_forward_ms": _median(s("stage.miss_forward_ms")),
        "core.bitflip.iteration_ms": _median(s("stage.iteration_ms")),
        "core.qcore_update.resample_ms": _median(s("stage.resample_ms")),
        "core.continual.eval_ms": _median(s("stage.eval_ms")),
        "core.stage_sum_ratio": stage_sum_ratio(
            [s("stage." + st) for st in STAGES], s("calib.latency_ms"),
            s("calib.trace_on")),
        "core.bitflip.featurize_predict_ms":
            _median(s("stage.featurize_predict_ms")),
        "nn.trial_forward_ms": _median(s("stage.trial_forward_ms")),
        "tensor.kernels.gemm_calls_per_step": _median(calls),
        "tensor.kernels.gemm_wide_share": wide / sum(calls) if sum(calls)
        else 0.0,
        "calib.cpu_ms_per_step": _median(s("stage.cpu_ms")),
        "calib.step_ms_tail": percentile(untraced_steps, CALIB_TAIL_Q),
        "calib.accuracy": _mean(s("calib.accuracy")),
        "core.qcore_update.churn": _median(s("stage.churn")),
        "core.bitflip.code_delta_l1": _median(s("stage.code_delta_l1")),
        "serving.server.calib_queue_ms_p50": percentile(
            s("span.calib_queue_ms"), 0.5),
        "serving.server.calib_exec_ms_p50": percentile(
            s("span.calib_exec_ms"), 0.5),
        # Alternate steps run traced; the untraced ones are the base.
        "obs.trace.overhead_pct": overhead_pct(s("calib.latency_ms"),
                                               s("calib.trace_on")),
        "obs.trace.dropped_events": _scalar(raw, "trace.dropped_events"),
    }


# --------------------------------------------------------------- build & run

def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configures (once) and builds bench_e2e; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bench_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            log("bench: build failed: " + " ".join(cmd))
            return None
    return out / "bench_e2e"


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(binary, workload, seed, seconds, trace, setup_repeats,
             allow_small_host, sha):
    """Runs one workload; returns (exit code, raw dict or None)."""
    raw_path = build_dir() / f"raw-{workload}-{seed}-{int(trace)}.json"
    if raw_path.exists():
        raw_path.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--raw", str(raw_path), "--setup-repeats", str(setup_repeats),
           "--git-sha", sha]
    if allow_small_host:
        cmd.append("--allow-small-host")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"bench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 124, None
    sys.stdout.write(out)
    raw = None
    if raw_path.exists():
        with open(raw_path) as f:
            raw = json.load(f)
        raw_path.unlink()
    return proc.returncode, raw


def result_for(spec, raw, trace):
    metrics = per_layer(raw) if trace else end_to_end(raw)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in listed}
    for f in raw["failures"]:
        log(f"bench: check failed: {f[0]}: {f[1]}")
    # An end-to-end metric of 0 means the run measured nothing.
    unmeasured = [] if trace else [n for n, v in metrics.items()
                                   if not v > 0.0]
    if unmeasured:
        log(f"bench: nothing measured for {unmeasured}")
    return {
        "correct": not raw["failures"] and not unmeasured,
        "attempted": max(1, int(_scalar(raw, "attempted"))),
        "failed": int(_scalar(raw, "failed")),
        "metrics": out,
    }


def print_metric_lines(workload, result):
    for name, m in result["metrics"].items():
        print(f"{name}{{workload={workload}}} {m['value']!r} {m['unit']}")


def log_quality(workload, raw, result, trace):
    """Sample counts behind an untraced run; the validity conditions of a
    traced one."""
    if not trace:
        log(f"bench: {workload}: {len(_series(raw, 'setup_s'))} set-ups, "
            f"{len(_series(raw, 'calib.latency_ms'))} calibration steps")
        return
    ratio = result["metrics"]["core.stage_sum_ratio"]["value"]
    if not stage_sum_ok(ratio):
        log(f"bench: {workload}: core.stage_sum_ratio {ratio:.3f} is outside "
            f"1 +/- {STAGE_SUM_TOLERANCE}; the stage table does not account "
            f"for the step")
    dropped = result["metrics"]["obs.trace.dropped_events"]["value"]
    if dropped:
        log(f"bench: {workload}: the trace dropped {dropped:.0f} events; the "
            f"span metrics of this run are invalid")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="comma-separated list (default all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--allow-small-host", action="store_true")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload.split(",") if args.workload else names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        log(f"bench: unknown workloads {unknown}")
        return 64
    binary = build()
    if binary is None:
        return 1
    sha = git_sha()
    if args.smoke:
        return smoke(spec, names, binary, sha, args)

    trace = args.trace == 1
    seconds = args.seconds or spec["run_seconds"]
    single = len(workloads) == 1 and args.repeat == 1
    runs, status = [], 0
    for w in workloads:
        for i in range(args.repeat):
            seed = args.seed + i
            code, raw = run_once(binary, w, seed, seconds, trace,
                                 SETUP_REPEATS, args.allow_small_host, sha)
            if raw is None:
                status = status or code or 1
                continue
            status = status or code
            result = result_for(spec, raw, trace)
            print_metric_lines(w, result)
            log_quality(w, raw, result, trace)
            if single:
                print(json.dumps(result), flush=True)
            runs.append({"workload": w, "seed": seed, "env": raw["env"],
                         "result": result})
    summary = stability_table(spec, runs, trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
    return status


def stability_table(spec, runs, trace):
    """Per metric and workload: median, IQR spread and max spread of the
    runs, next to the metric's bound."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    workloads = sorted({r["workload"] for r in runs})
    summary = []
    if len({r["seed"] for r in runs}) < 2:
        return summary
    print(f"{'metric':44} {'workload':12} {'median':>12} {'iqr%':>7} "
          f"{'max%':>7} {'bound%':>7}")
    for m in listed:
        for w in workloads:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if r["workload"] == w]
            row = {"metric": m["name"], "workload": w,
                   "median": statistics.median(vals),
                   "iqr_spread": relative_spread(vals),
                   "max_spread": max_relative_spread(vals),
                   "bound": m.get("bound"), "values": vals}
            summary.append(row)
            bound = f"{m['bound'] * 100:7.1f}" if "bound" in m else "      -"
            print(f"{m['name']:44} {w:12} {row['median']:12.5g} "
                  f"{row['iqr_spread'] * 100:7.2f} "
                  f"{row['max_spread'] * 100:7.2f} {bound}")
    return summary


def smoke(spec, names, binary, sha, args):
    """Every workload for SMOKE_SECONDS, untraced and traced: every metric
    BENCHMARK.json names is emitted and every output check passes."""
    ok = True
    for w in names:
        for trace in (False, True):
            code, raw = run_once(binary, w, args.seed, SMOKE_SECONDS, trace,
                                 1, args.allow_small_host, sha)
            if raw is None or code != 0:
                log(f"bench: smoke {w} trace={int(trace)} exited {code}")
                ok = False
                continue
            result = result_for(spec, raw, trace)
            if not result["correct"]:
                log(f"bench: smoke {w} trace={int(trace)}: incorrect")
                ok = False
            print_metric_lines(w, result)
            log_quality(w, raw, result, trace)
    print("smoke: " + ("ok" if ok else "FAILED"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
