#!/usr/bin/env python3
"""Fold benchmark JSON reports into one compact per-stage summary.

Usage: summarize.py <benchmark_out.json> [more_out.json ...] <summary_out.json>

With several inputs the stages are concatenated in argument order into
a single summary (e.g. a loadgen report plus a google-benchmark report
both land in BENCH_serve.json); each input's context is kept under its
stem name in a "contexts" object.

Two input shapes are recognized:

google-benchmark: run the binary with --benchmark_repetitions=N and
--benchmark_out_format=json; the raw repetition entries are grouped by
benchmark name and emitted, per stage, as:

  {"name", "reps", "p50_ns", "p95_ns", "mean_ns", "ops_per_sec"}

p50/p95 are computed over the per-repetition real_time samples
(linear interpolation), each converted to nanoseconds from its
time_unit; ops_per_sec is 1e9 / p50_ns, i.e. how many times the stage
runs per second at the median.  A benchmark that reports an
allocs_per_op counter gets its median as "allocs_per_op".  Summary
rows that google-benchmark appends (_mean/_median/_stddev/_cv) are
skipped — we compute our own statistics from the raw repetitions.

loadgen-native (a top-level "runs" key, written by bench/loadgen
--out): each run becomes one stage, loadgen_<verb> — per-request latency
percentiles in ns and ops_per_sec = measured requests per second —
so BENCH_serve.json has the same shape as every other BENCH file.  A
--self report's "server" counters (loop_stalls, requests_line,
requests_inline) ride along in the stage.
"""
import json
import sys


def loadgen_stages(report):
    stages = []
    for run in report["runs"]:
        stages.append({
            "name": "loadgen_%s" % report.get("loadgen", {}).get("verb", ""),
            "reps": run["requests"],
            "p50_ns": round(run["p50_us"] * 1e3, 1),
            "p99_ns": round(run["p99_us"] * 1e3, 1),
            "p999_ns": round(run["p999_us"] * 1e3, 1),
            "connected": run["connected"],
            "errors": run["errors"],
            "ops_per_sec": round(run["rps"], 2),
        })
        if "server" in report:
            stages[-1]["server"] = report["server"]
    return stages


def percentile(samples, q):
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def benchmark_stages(report):
    by_name = {}
    allocs = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = NS_PER_UNIT[b.get("time_unit", "ns")]
        by_name.setdefault(b["name"], []).append(float(b["real_time"]) * scale)
        if "allocs_per_op" in b:
            allocs.setdefault(b["name"], []).append(float(b["allocs_per_op"]))

    stages = []
    for name, samples in sorted(by_name.items()):
        p50 = percentile(samples, 0.50)
        stages.append({
            "name": name,
            "reps": len(samples),
            "p50_ns": round(p50, 1),
            "p95_ns": round(percentile(samples, 0.95), 1),
            "mean_ns": round(sum(samples) / len(samples), 1),
            "ops_per_sec": round(1e9 / p50, 2) if p50 > 0 else None,
        })
        if name in allocs:
            stages[-1]["allocs_per_op"] = round(
                percentile(allocs[name], 0.50), 2)
    return stages


def summarize_one(report):
    """-> (context, stages) for either input shape."""
    if "runs" in report:
        return report.get("loadgen", {}), loadgen_stages(report)
    return report.get("context", {}), benchmark_stages(report)


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    inputs, out_path = sys.argv[1:-1], sys.argv[-1]

    stages = []
    contexts = {}
    for path in inputs:
        with open(path) as f:
            context, batch = summarize_one(json.load(f))
        stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        contexts[stem] = context
        stages.extend(batch)

    if len(inputs) == 1:
        summary = {"context": next(iter(contexts.values())),
                   "stages": stages}
    else:
        summary = {"contexts": contexts, "stages": stages}
    with open(out_path, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    for s in stages:
        tail_q = "p99_ns" if "p99_ns" in s else "p95_ns"
        print(f"{s['name']:45s} p50={s['p50_ns']:>12.1f}ns "
              f"{tail_q[:-3]}={s[tail_q]:>12.1f}ns "
              f"ops/s={s['ops_per_sec']}")


if __name__ == "__main__":
    main()
