#!/usr/bin/env python3
"""The goalmix benchmark: one workload, every metric of BENCHMARK.json.

    python3 perfbench/run.py --workload train-skirmish-2v2 --seed 0 --seconds 20 --trace 0

Run from the repository root. Each workload runs in a fresh process
(perfbench/workload.py) with one BLAS thread. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` a traced process
prints the per-layer metrics instead. Set-up is timed in the measured
process and in fresh set-up-only processes started between its chunks of
ops, and reported as the median. Every op's output is checked
against perfbench/reference.json. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A run
whose check fails prints it with ``"correct": false`` and exits 1; a
run that cannot measure prints no result and exits 2. A record of the
run, with the machine and versions, goes to perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_PY = BENCH_DIR / "workload.py"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
# Printed by every untraced run and kept in its record, but not declared in
# BENCHMARK.json, so no bound applies: their spread over ten seeds went
# past 0.2 on some workload (see README.md, "Noise").
UNGATED = {"env_steps_per_s": "1/s", "op_ms_p50": "ms"}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def workload_process(args, seconds):
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKLOAD_PY), *args], cwd=ROOT,
            capture_output=True, text=True, timeout=3 * seconds + 60,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"workload process timed out: {' '.join(args)}") from err
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {' '.join(args)}\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, spans_path=None):
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # A set-up-only process first, not counted: it pays for byte-code
    # compilation and a cold file cache, which users pay once.
    workload_process(base + ["--setup-only"], seconds)
    extra = ["--trace", str(trace)] + (["--spans", str(spans_path)] if spans_path else [])
    run = workload_process(base + extra, seconds)
    attempted = run["attempted"]
    if trace:
        metrics = {}
        for layer, (self_ms, calls) in run["layers"].items():
            metrics[f"{layer}.self_ms"] = self_ms
            metrics[f"{layer}.calls"] = calls
        metrics["autodiff.nodes_per_op"] = run["nodes_per_op"]
        run["trace_overhead_pct"] = 100.0 * (run["traced_op_ms_p50"] / run["op_ms_p50"] - 1.0)
    else:
        metrics = {
            "env_steps_per_s": run["env_steps_per_s"],
            "op_ms_p50": run["op_ms_p50"],
            "op_ms_p90": run["op_ms_p90"],
            "setup_s": statistics.median(run["setup_samples"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "ok_ops_pct": 100.0 * (attempted - len(run["failed_ops"])) / attempted,
        }
    return metrics, run


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def describe(workload, seed, metrics, units, run):
    ref = "every op checked against reference.json" if run["reference"] else \
        "no reference for this seed: invariants checked only"
    print(f"{workload} seed={seed}: {run['attempted']} ops, "
          f"failed_ops={len(run['failed_ops'])} ({ref})")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if "trace_overhead_pct" in run:
        print(f"  tracing overhead {run['trace_overhead_pct']:+.2f} %: op_ms_p50 "
              f"{run['traced_op_ms_p50']:.4g} ms traced ({run['traced_ops']} ops) vs "
              f"{run['op_ms_p50']:.4g} ms untraced ({run['ops']} ops), interleaved")
    for index, text in list(run["errors"].items())[:3]:
        print(f"  op {index} raised:\n{text}", file=sys.stderr)


def main(argv=None):
    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        print(f"benchmark failed: cannot read {SPEC_PATH}: {err}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--heldout-seed", type=int, metavar="SEED",
                   help="also run the workload on this second, held-out seed "
                        "(reference.json names the recorded one); its failures count")
    args = p.parse_args(argv)

    try:
        if not (ROOT / "src" / "goalmix" / "__init__.py").is_file():
            raise BenchError(f"no goalmix sources under {ROOT / 'src'}")
        declared = declared_metrics(spec, args.trace)
        units = declared if args.trace else {**declared, **UNGATED}
        OUT_DIR.mkdir(exist_ok=True)
        seeds = [args.seed] + ([args.heldout_seed] if args.heldout_seed is not None else [])
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "git_rev": git_rev(), "runs": []}
        attempted = failed = 0
        for seed in seeds:
            stem = f"{args.workload}-seed{seed}-trace{args.trace}"
            spans = OUT_DIR / f"{stem}.spans.csv" if args.trace else None
            metrics, run = measure(args.workload, seed, args.seconds, args.trace, spans)
            if set(metrics) != set(units):
                raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                                 "with BENCHMARK.json")
            describe(args.workload, seed, metrics, units, run)
            attempted += run["attempted"]
            failed += len(run["failed_ops"])
            record["runs"].append({"seed": seed, "metrics": metrics, **run})
            if seed == args.seed:
                result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in declared.items()}
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
