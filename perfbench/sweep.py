#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a BENCH_<label>.json summary.

    python3 perfbench/sweep.py --seeds 0-9 --label baseline
    python3 perfbench/sweep.py --seeds 0-9 --label change --against perfbench/records/BENCH_baseline_a.json
    python3 perfbench/sweep.py --seeds 0,0,1,1 --trace --label traced

Each run is one ``perfbench/run.py`` process, seeds in the outer loop and
workloads in the inner one, so drift on the machine reaches every
workload alike. For each end-to-end metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, beside the metric's bound in BENCHMARK.json.
``--against`` compares medians with an earlier summary: a metric whose
median is worse by more than its bound is a regression. Traced sweeps
also check that ``autodiff.nodes_per_op`` repeats exactly on a seed run twice,
and summarise the tracing overhead, ``trace_overhead_pct``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, trace, seconds):
    cmd = SPEC["command"][1:] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{int(trace)}.json")
                        .read_text())
    return result, record


def summarize(values, bound=None):
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    if bound is not None:
        out["bound"] = bound
    return out


def regression(metric, before, after):
    """Relative change of the median in the worse direction (positive = worse)."""
    change = (after - before) / before
    return -change if metric["better"] == "higher" else change


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--trace", action="store_true", help="traced runs: the per-layer metrics")
    p.add_argument("--label", required=True)
    p.add_argument("--out", help="default perfbench/out/BENCH_<label>.json")
    p.add_argument("--against", help="an earlier summary to compare medians with")
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in SPEC[kind]}
    values = {w: {} for w in workloads}
    failed = {w: 0 for w in workloads}
    record = None
    for seed in seeds:
        for w in workloads:
            result, record = run_once(w, seed, args.trace, SPEC["run_seconds"])
            failed[w] += result["failed"]
            reported = dict(record["runs"][0]["metrics"])
            if args.trace:  # kept in the record, not a declared metric
                reported["trace_overhead_pct"] = record["runs"][0]["trace_overhead_pct"]
            for name, value in reported.items():
                values[w].setdefault(name, []).append(value)
            print(f"{w} seed={seed} " + " ".join(
                f"{k}={v:.5g}" for k, v in list(reported.items())[:6]), flush=True)

    summary = {"label": args.label, "git_rev": record["git_rev"],
               "environment": record["runs"][0]["environment"],
               "run_seconds": SPEC["run_seconds"], "seeds": seeds, "trace": args.trace,
               "failed_ops": failed, "workloads": {}}
    problems = []
    for w in workloads:
        rows = {name: summarize(vals, metrics.get(name, {}).get("bound"))
                for name, vals in values[w].items()}
        summary["workloads"][w] = rows
        for name, row in rows.items():
            spread = row.get("spread")
            if "bound" in row and spread is not None and spread > row["bound"]:
                problems.append(f"{w} {name}: spread {spread:.3f} > bound {row['bound']}")
        if args.trace:
            nodes = {}
            for seed, n in zip(seeds, values[w]["autodiff.nodes_per_op"]):
                nodes.setdefault(seed, set()).add(n)
            if any(len(counts) > 1 for counts in nodes.values()):
                problems.append(f"{w}: autodiff.nodes_per_op differs between runs of a seed")
        if failed[w]:
            problems.append(f"{w}: {failed[w]} failed ops")

    if args.against:
        before = json.loads(Path(args.against).read_text())
        summary["against"] = {"label": before["label"], "git_rev": before["git_rev"]}
        for w in workloads:
            for name, m in metrics.items():
                if "bound" not in m or name not in before["workloads"].get(w, {}):
                    continue
                old = before["workloads"][w][name]["median"]
                worse = regression(m, old, summary["workloads"][w][name]["median"])
                summary["workloads"][w][name]["worse_than_against"] = worse
                if worse > m["bound"]:
                    problems.append(f"{w} {name}: median {worse:+.1%} worse than "
                                    f"{before['label']} (bound {m['bound']})")

    summary["problems"] = problems
    out = Path(args.out) if args.out else BENCH_DIR / "out" / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")

    print(f"\n{'workload':20s} {'metric':36s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for w, rows in summary["workloads"].items():
        for name, row in rows.items():
            if args.trace and not name.endswith((".self_ms", "nodes_per_op", "trace_overhead_pct")):
                continue
            spread = f"{row['spread']:.4f}" if row.get("spread") is not None else "-"
            print(f"{w:20s} {name:36s} {row['median']:12.5g} {spread:>8s} "
                  f"{row.get('bound', ''):>6}")
    print(f"\nwrote {out}")
    for line in problems:
        print("PROBLEM:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
