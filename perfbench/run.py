#!/usr/bin/env python3
"""Build and run the Perspective reproduction's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <lebench|apps|audit|cache> \\
        --seed N --seconds S --trace 0|1

Builds the harness in perfbench/ (which links the simulator crates under
crates/ by path) in release mode into $CARGO_TARGET_DIR (default
.bench_build), then runs it PROCESSES times, each for a share of --seconds
and with the same seeded inputs. One process can land on a slow memory
layout for its whole life; taking each operation's best time over all
processes filters that out like the passes within a process filter out
host-speed drift. Scratch files go to .perfbench_tmp and are removed.

Prints one JSON object as the last line of standard output, with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones:

    op_p50_ms   median over the workload's operations of each one's best
                time (a Harrell-Davis estimate, which does not jump when the
                median falls in a gap between clusters of operations); with
                22 operations in audit no higher percentile has ten
                operations beyond it
    ops_per_s   operations per second at those best times
    setup_s     median set-up time

With --trace 1 they are the per-layer ones: the mean time per call of each
layer's spans (<layer>_ms), simulated instructions per host second and
host ns per simulated cycle over the pipeline spans, and the share of
simulated cycles the idle fast-forward skipped. A layer the workload does
not run reads 0.

Exits nonzero, without a result line, if the build or a run fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("lebench", "apps", "audit", "cache")
PROCESSES = 3
BUILD_TIMEOUT_S = 850
# A process gets its share of --seconds plus this much for set-up, the
# traced self-check and the pass that overruns the share.
SETUP_ALLOWANCE_S = 35


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def hd_quantile(values, q, steps=16):
    """Harrell-Davis estimate of quantile q: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density, integrated
    per rank by the midpoint rule."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q - 1, (n + 1) * (1 - q) - 1
    logd = [a * math.log(t) + b * math.log1p(-t)
            for t in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    peak = max(logd)
    weights = [sum(math.exp(v - peak) for v in logd[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_harness(binary, args, seconds, scratch, root):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", args.trace,
           "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=seconds + SETUP_ALLOWANCE_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail(f"unreadable harness output: {e}")


def metrics(runs, trace):
    if not trace:
        best = [min(ms) for ms in zip(*(r["best_ms"] for r in runs))]
        return {
            "op_p50_ms": (hd_quantile(best, 0.5), "ms"),
            "ops_per_s": (1e3 * len(best) / sum(best), "1/s"),
            "setup_s": (statistics.median(
                t for r in runs for t in r["setup_s"]), "s"),
        }
    out = {}
    for layer in runs[0]["layers"]:
        seconds = sum(r["layers"][layer][0] for r in runs)
        calls = sum(r["layers"][layer][1] for r in runs)
        out[f"{layer}_ms"] = (1e3 * seconds / max(calls, 1), "ms")
    sim_s = sum(r["layers"][l][0] for r in runs for l in ("warmup", "roi"))
    insts, cycles, skipped = (sum(r[k] for r in runs)
                              for k in ("sim_insts", "sim_cycles", "ff_skipped"))
    simulated = sim_s > 0 and cycles > 0
    out["sim_minst_per_s"] = (insts / sim_s / 1e6 if simulated else 0.0, "Minst/s")
    out["ns_per_sim_cycle"] = (1e9 * sim_s / cycles if simulated else 0.0, "ns")
    out["ff_skipped_share"] = (skipped / cycles if simulated else 0.0, "fraction")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    scratch = root / ".perfbench_tmp" / str(os.getpid())
    try:
        runs = [run_harness(target / "release" / "perfbench", args,
                            args.seconds / PROCESSES, scratch, root)
                for _ in range(PROCESSES)]
    finally:
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics(runs, args.trace == "1").items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
