#!/usr/bin/env python3
"""Build and run the gpuperf benchmark.

  python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0
      Build (first time only), run one workload, print its report; the
      last line of standard output is the result JSON.

  python3 perfbench/run.py --self-check [--runs 5] [--workloads a,b]
      Steadiness check: two sets of untraced runs of this checkout,
      alternating which set runs first.  For each workload and end-to-end
      metric it prints both medians and quartiles and whether they agree
      within the bound recorded in BENCHMARK.json.

  python3 perfbench/run.py --self-test
      Build and run the benchmark's own tests.

Run from anywhere inside a checkout; the build lives in
.bench_build/perfbench at the checkout root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
SELF_CHECK_SEED_BASE = 101
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configure once, then build `target` incrementally.  Build output goes
    to stderr so standard output stays the benchmark's own."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no gpuperf sources under {ROOT / 'src'}; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    step = ["cmake", "--build", str(BUILD_DIR), "--target", target,
            "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail(f"building {target} failed")
    return BUILD_DIR / target


def load_contract():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def run_once(binary, workload, seed, seconds, trace, echo):
    """Run the benchmark binary once; returns (stdout lines, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", str(BUILD_DIR / f"spans-{workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    return lines, result


def check_metrics(result, trace):
    """Every metric BENCHMARK.json names for this mode must be present."""
    contract = load_contract()
    if contract is None:
        return
    wanted = contract["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        fail(f"result lacks metrics {missing}")


def bench(args):
    if args.seconds <= 0:
        fail("--seconds must be positive")
    binary = build("perfbench")
    lines, result = run_once(binary, args.workload, args.seed, args.seconds,
                             args.trace, echo=True)
    check_metrics(result, args.trace)
    if not result.get("correct"):
        print(f"perfbench: {args.workload} is not correct; see the report's"
              " failed lines", file=sys.stderr)
    print(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_check(args):
    contract = load_contract()
    if contract is None:
        fail("--self-check needs BENCHMARK.json at the checkout root")
    names = [w["name"] for w in contract["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or contract["run_seconds"]
    binary = build("perfbench")
    all_agree = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            seed = SELF_CHECK_SEED_BASE + i
            for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                _, result = run_once(binary, workload, seed, seconds, 0,
                                     echo=False)
                if not result.get("correct"):
                    fail(f"{workload} seed {seed} is not correct")
                sets[side].append(result["metrics"])
                print(f"  {workload} set {side} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.6g}"
                                  for k, v in result["metrics"].items()),
                      flush=True)
        print(f"{workload}: {args.runs} runs per set, {seconds} s each")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = []
            spreads = []
            medians = []
            for side in ("A", "B"):
                values = [m[name]["value"] for m in sets[side]]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                spreads.append((q3 - q1) / med if med else 0.0)
                row.append(f"{side} median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]"
                           f" spread {spreads[-1]:.3f}")
            a, b = medians
            drift = (b - a) / a if a else 0.0
            if metric["better"] == "higher":
                drift = -drift
            agree = abs(drift) <= bound and all(s <= bound for s in spreads)
            all_agree &= agree
            print(f"  {name:18s} bound {bound:.2f}: {'; '.join(row)};"
                  f" B worse by {drift:+.3f} -> {'agree' if agree else 'DISAGREE'}")
    sys.exit(0 if all_agree else 1)


def self_test():
    binary = build("perfbench_tests")
    if not binary.exists():
        fail("GoogleTest not found; the tests were not built")
    sys.exit(subprocess.run([str(binary)], timeout=600).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif args.self_check:
        self_check(args)
    else:
        if not args.workload:
            parser.error("--workload is required")
        if args.seconds is None:
            contract = load_contract()
            args.seconds = contract["run_seconds"] if contract else 10
        bench(args)


if __name__ == "__main__":
    main()
