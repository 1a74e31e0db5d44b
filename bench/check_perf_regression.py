#!/usr/bin/env python3
"""Perf CI gate: blocked kernel substrate + macro serving path.

Micro: consumes two ``bench_micro_substrate --benchmark_format=json``
outputs — the committed baseline (bench/baseline_micro.json) and the
current run — and fails (exit 1) when either:

  1. a tracked blocked kernel regressed more than REGRESSION_TOLERANCE
     against the committed baseline (cpu_time, median-of-repetitions when
     aggregates are present), or
  2. a blocked-vs-naive speedup floor no longer holds (these ratios are
     measured within the current run only, so they are robust to host
     differences between whoever committed the baseline and the CI runner),
     or
  3. a multithreaded scaling floor no longer holds: BM_MatMulWide/512 and
     BM_Conv2dForwardWide (a conv whose per-sample GEMM clears the
     crossover) at 4 threads must each be >= their MT_SPEEDUP_FLOORS ratio
     faster (real_time) than the same shape at 1 thread. Within the current
     run only, and only enforced when the run's own context reports >=
     MT_MIN_CPUS cores — on smaller hosts the threads oversubscribe and the
     ratio measures the scheduler, not the kernel, so the check prints a
     skip note instead.

Entries carry a ``threads`` counter (the GEMM thread budget they ran
under); the baseline comparison refuses to compare a pair whose thread
counts differ, so a baseline recorded at one budget can never silently
gate a run at another.

Macro (optional, ``--serving-baseline``/``--serving-current``): consumes
two ``bench_serving_throughput`` QCORE_BENCH_JSON outputs — the committed
baseline (bench/baseline_serving.json) and the current run — and gates:

  3. serving tasks/s >= SERVING_TPS_FLOOR x baseline and p99 inference
     latency <= SERVING_P99_CEILING x baseline (absolute, so downgraded
     with the micro comparisons in non-strict mode), and
  4. traced tasks/s >= TRACING_OVERHEAD_FLOOR x untraced tasks/s — the
     tracing-overhead before/after check. Within-run ratio, always hard:
     observability must stay cheap enough to leave on in production.

The absolute comparisons (1, 3) are only meaningful when the runner
hardware matches the host that committed the baseline; on
heterogeneous/shared runners set QCORE_PERF_BASELINE_STRICT=0 to downgrade
them to warnings while keeping the within-run ratios (2, 4) hard.

Regenerate the baselines on the CI host after an intentional change:

  ./build/bench_micro_substrate \
      --benchmark_filter='MatMul|Conv|Im2Col|EvalForward|MissPass' \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
      --benchmark_format=json > bench/baseline_micro.json
  QCORE_FAST=1 QCORE_BENCH_JSON=bench/baseline_serving.json \
      ./build/bench_serving_throughput
"""

import argparse
import json
import os
import sys

# Blocked kernels gated against the committed baseline.
TRACKED = [
    "BM_MatMul/32",
    "BM_MatMul/64",
    "BM_MatMul/128",
    "BM_MatMul/256",
    "BM_MatMulTransposedB/128",
    "BM_MatMulTransposedA/128",
    "BM_Conv1dForward",
    "BM_Conv1dBackward",
    "BM_Conv2dForward",
    "BM_Conv2dBackward",
    "BM_Im2ColPack",
    # Multithreaded sections at budget 1: the panel-parallel dispatch path's
    # fixed overhead is gated even on single-core runners (the scaling
    # itself is gated by MT_SPEEDUP_FLOOR below).
    "BM_MatMulWide/512/1/real_time",
    "BM_Conv2dForwardWide/1/real_time",
]

# (blocked, naive) pairs and the minimum speedup each must sustain.
SPEEDUP_FLOORS = [
    ("BM_MatMul/128", "BM_MatMulNaive/128", 3.0),
    # Conv forwards pack their B panels straight from each sample's padded
    # plane. With the CI command on a shared 4-vCPU host, a build that
    # lowered each sample through im2col read 13.2-16.4x (3x3 on 16x16)
    # and 7.7-8.8x (3x3 stem; 5.9-10.2x in earlier runs) where the plane
    # path reads 23.0-28.7x and 13.9-16.1x, so 19x and 11x fail a return
    # to lowering. The 1-D conv's gain (~20%) is inside its naive side's
    # spread (lowering 18.3-21.3x, plane 19.1-31.5x): its floor, under
    # both, only catches a collapse.
    ("BM_Conv1dForward", "BM_Conv1dForwardNaive", 16.0),
    ("BM_Conv1dBackward", "BM_Conv1dBackwardNaive", 2.0),
    ("BM_Conv2dForward", "BM_Conv2dForwardNaive", 19.0),
    ("BM_Conv2dBackward", "BM_Conv2dBackwardNaive", 2.0),
    # The lowering alone: the committed BM_Im2ColPack baseline predates the
    # range-based copy, so only these ratios would catch a return of the
    # per-element bounds test. Both run the one Im2Col kernel, the 1-D
    # entry on a one-row plane, so 2.5x guards the 1-D path through it.
    ("BM_Im2Col1dPack", "BM_Im2Col1dPackNaive", 2.5),
    ("BM_Im2ColPack", "BM_Im2ColPackNaive", 1.5),
    # Per-sample GEMMs with a 2-row remainder tile: an unpadded 1x1
    # bottleneck that reads its input plane in place (13.4-19.9x on a
    # shared 4-vCPU host) and a 3x3 stem (see above; its naive side
    # wanders most). Neither has a committed baseline; the bottleneck's
    # floor catches a collapse, not the few tens of percent its parts are
    # worth.
    ("BM_Conv1dForwardBottleneck", "BM_Conv1dForwardBottleneckNaive", 8.0),
    ("BM_Conv2dForwardStem", "BM_Conv2dForwardStemNaive", 11.0),
    # The fused eval plan against the layer-by-layer forward it replaced
    # (LayeredEvalForward), one-row InceptionTime at 1 thread, both sides
    # past glibc's trim threshold so page faults do not decide the ratio.
    # Four runs of the CI command on a shared 4-vCPU host read 1.72x,
    # 1.38x, 1.47x and 1.40x; a return to layered eval reads 1.0x, and a
    # plan that allocated its node vectors per call (~10 us) read 1.00x
    # and 1.16x in a probe. The 32-row pair read 1.08-1.31x in the same
    # runs, too close to 1.0x to floor.
    ("BM_EvalForwardInceptionTime/1", "BM_EvalForwardInceptionTimeLayered/1",
     1.2),
    # The bit-flip net's one-input-channel conv over 2,304 rows runs as one
    # GEMM over the stacked samples. Three runs of the CI command on a
    # shared 4-vCPU host read 2.04x, 2.00x and 2.21x; the GEMM-per-sample
    # path it replaced read 0.57x, 0.42x and 0.45x in the same runs.
    ("BM_Conv1dForwardOneChannel", "BM_Conv1dForwardOneChannelNaive", 1.5),
    # The pass that opens each calibration round on the plan (frozen-
    # training formula, keeping only the quantized layers' inputs) against
    # the layer-by-layer training-mode forward with BatchNorm frozen it
    # replaced, InceptionTime over calib_har's 76-row pool at 1 thread.
    # Five runs of the CI command on a shared 4-vCPU host read 1.34x,
    # 1.38x, 1.40x, 1.37x and 1.38x; a return to the layered pass reads
    # 1.0x.
    ("BM_MissPassInceptionTime", "BM_MissPassInceptionTimeLayered", 1.2),
]

REGRESSION_TOLERANCE = 0.15  # fail if >15% slower than baseline

# Multithreaded GEMM scaling gate: (wide, single-thread, floor), compared on
# real_time within the current run, enforced only on hosts with enough
# cores to run the wide entry's threads in parallel.
MT_SPEEDUP_FLOORS = [
    ("BM_MatMulWide/512/4/real_time", "BM_MatMulWide/512/1/real_time", 2.0),
    # The conv forward's packed-weight GEMM must still go wide: 1.6-1.8x
    # measured; a build whose packed path stayed narrow read 0.9-1.0x.
    ("BM_Conv2dForwardWide/4/real_time", "BM_Conv2dForwardWide/1/real_time",
     1.3),
]
MT_MIN_CPUS = 4

# Macro serving gates (see module docstring). Throughput and latency get
# wider tolerances than the micro kernels: the macro numbers fold in
# thread scheduling and simulated-RTT overlap, which are noisier than a
# single kernel's cpu_time.
SERVING_TPS_FLOOR = 0.75       # tasks/s must stay >= 75% of baseline
SERVING_P99_CEILING = 1.25     # p99 latency must stay <= 125% of baseline
TRACING_OVERHEAD_FLOOR = 0.85  # traced tasks/s >= 85% of untraced, hard


def load_run(path):
    """Parses a google-benchmark JSON file.

    Returns (entries, num_cpus): entries maps name -> dict with cpu_time
    and real_time in ns plus the threads counter (None when the entry
    predates thread reporting); prefers *_median aggregates when present.
    num_cpus is the run's own context.num_cpus (0 when absent).
    """
    with open(path) as f:
        data = json.load(f)
    entries = {}
    for b in data.get("benchmarks", []):
        name = b["name"]
        if name.endswith(("_mean", "_stddev", "_cv", "_min", "_max")):
            continue
        if name.endswith("_median"):
            name = name[: -len("_median")]
        # A repetition entry and a median aggregate never share a name after
        # stripping: aggregates_only runs emit aggregates only.
        entries[name] = {
            "cpu_time": float(b["cpu_time"]),
            "real_time": float(b["real_time"]),
            "threads": int(b["threads"]) if "threads" in b else None,
        }
    return entries, int(data.get("context", {}).get("num_cpus", 0))


def load_serving(path):
    """Returns the "serving" object from a QCORE_BENCH_JSON file."""
    with open(path) as f:
        data = json.load(f)
    serving = data.get("serving")
    if not isinstance(serving, dict):
        raise ValueError(f"{path}: no \"serving\" object")
    return serving


def check_serving(baseline_path, current_path, strict, failures, warnings):
    baseline = load_serving(baseline_path)
    current = load_serving(current_path)

    print()
    print(f"{'serving (macro)':<24} {'baseline':>12} {'current':>12} "
          f"{'gate':>16}")

    def gate(name, base, cur, ok, gate_desc, hard):
        flag = "" if ok else "  << GATE FAILED"
        print(f"{name:<24} {base:>12.2f} {cur:>12.2f} {gate_desc:>16}{flag}")
        if not ok:
            msg = f"serving {name}: {cur:.2f} vs baseline {base:.2f}, {gate_desc}"
            (failures if hard else warnings).append(msg)

    base_tps = float(baseline["tasks_per_sec"])
    cur_tps = float(current["tasks_per_sec"])
    gate("tasks_per_sec", base_tps, cur_tps,
         cur_tps >= SERVING_TPS_FLOOR * base_tps,
         f">= {SERVING_TPS_FLOOR:.2f}x base", strict)

    base_p99 = float(baseline["p99_inference_ms"])
    cur_p99 = float(current["p99_inference_ms"])
    gate("p99_inference_ms", base_p99, cur_p99,
         cur_p99 <= SERVING_P99_CEILING * base_p99,
         f"<= {SERVING_P99_CEILING:.2f}x base", strict)

    # Within the current run only — hard regardless of strictness, exactly
    # like the blocked-vs-naive speedup floors.
    untraced = float(current["untraced_tasks_per_sec"])
    traced = float(current["traced_tasks_per_sec"])
    ratio = traced / untraced if untraced > 0 else 0.0
    flag = "" if ratio >= TRACING_OVERHEAD_FLOOR else "  << GATE FAILED"
    print(f"{'traced/untraced tasks/s':<24} {'-':>12} {ratio:>12.2f} "
          f"{'>= %.2f (hard)' % TRACING_OVERHEAD_FLOOR:>16}{flag}")
    if ratio < TRACING_OVERHEAD_FLOOR:
        failures.append(
            f"serving tracing overhead: traced/untraced = {ratio:.2f}, "
            f"floor {TRACING_OVERHEAD_FLOOR:.2f}")


def main():
    parser = argparse.ArgumentParser(
        description="Perf CI gate: micro kernels + macro serving path")
    parser.add_argument("micro_baseline")
    parser.add_argument("micro_current")
    parser.add_argument("--serving-baseline",
                        help="committed bench/baseline_serving.json")
    parser.add_argument("--serving-current",
                        help="QCORE_BENCH_JSON output of the current run")
    args = parser.parse_args()
    if bool(args.serving_baseline) != bool(args.serving_current):
        parser.error("--serving-baseline and --serving-current go together")
    baseline, _ = load_run(args.micro_baseline)
    current, cur_cpus = load_run(args.micro_current)
    strict = os.environ.get("QCORE_PERF_BASELINE_STRICT", "1") != "0"
    failures = []
    warnings = []

    print(f"{'benchmark':<34} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in TRACKED:
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        if name not in baseline:
            failures.append(f"{name}: missing from committed baseline "
                            "(regenerate bench/baseline_micro.json)")
            continue
        base_e, cur_e = baseline[name], current[name]
        if (base_e["threads"] is not None and cur_e["threads"] is not None
                and base_e["threads"] != cur_e["threads"]):
            failures.append(
                f"{name}: thread count mismatch (baseline ran at "
                f"{base_e['threads']}, current at {cur_e['threads']}) — "
                "the times are not comparable")
            continue
        base, cur = base_e["cpu_time"], cur_e["cpu_time"]
        delta = cur / base - 1.0
        flag = ""
        if delta > REGRESSION_TOLERANCE:
            flag = "  << REGRESSION"
            msg = (f"{name}: {delta:+.1%} vs baseline "
                   f"({base:.0f} ns -> {cur:.0f} ns)")
            (failures if strict else warnings).append(msg)
        print(f"{name:<34} {base:>10.0f}ns {cur:>10.0f}ns {delta:>+7.1%}"
              f"{flag}")

    print()
    print(f"{'speedup (blocked vs naive)':<40} {'floor':>6} {'actual':>8}")
    for blocked, naive, floor in SPEEDUP_FLOORS:
        if blocked not in current or naive not in current:
            failures.append(f"speedup {blocked}/{naive}: benchmark missing")
            continue
        actual = current[naive]["cpu_time"] / current[blocked]["cpu_time"]
        flag = ""
        if actual < floor:
            flag = "  << BELOW FLOOR"
            failures.append(
                f"{blocked}: {actual:.2f}x vs {naive}, floor {floor:.1f}x")
        print(f"{blocked + ' vs naive':<40} {floor:>5.1f}x {actual:>7.2f}x"
              f"{flag}")

    # Multithreaded scaling floor: real_time within the current run. Gated
    # on the run's own context so a baseline committed from a big host never
    # forces the check onto a small one.
    print()
    print(f"{'speedup (multithreaded GEMM)':<40} {'floor':>6} {'actual':>8}")
    for wide, single, floor in MT_SPEEDUP_FLOORS:
        if cur_cpus < MT_MIN_CPUS:
            print(f"{wide + ' vs 1-thread':<40} {floor:>5.1f}x "
                  f"skipped ({cur_cpus} cores < {MT_MIN_CPUS})")
            continue
        if wide not in current or single not in current:
            failures.append(f"mt speedup {wide}/{single}: benchmark missing")
            continue
        actual = current[single]["real_time"] / current[wide]["real_time"]
        flag = ""
        if actual < floor:
            flag = "  << BELOW FLOOR"
            failures.append(
                f"{wide}: {actual:.2f}x vs {single}, floor {floor:.1f}x")
        print(f"{wide + ' vs 1-thread':<40} {floor:>5.1f}x {actual:>7.2f}x"
              f"{flag}")

    if args.serving_baseline:
        try:
            check_serving(args.serving_baseline, args.serving_current,
                          strict, failures, warnings)
        except (OSError, ValueError, KeyError) as e:
            failures.append(f"serving gate: {e}")

    if warnings:
        print("\nbaseline regressions (non-strict mode, not gating):")
        for w in warnings:
            print(f"  - {w}")
    if failures:
        print("\nPERF GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
