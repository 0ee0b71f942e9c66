"""Record a baseline: repeated runs of every workload, their spread, and a
traced run on the primary and on the held-out seed.

    python3 perfbench/baseline.py                        # all workloads, seeds 1..10
    python3 perfbench/baseline.py --workloads profile_eval --seeds 5 --no-trace
    python3 perfbench/baseline.py --same-seed 3 --seeds 10 --no-trace
    python3 perfbench/baseline.py --out perfbench/results/baseline.json

Runs go round the workloads seed by seed (plateau_sweep 1, figure_export 1,
profile_eval 1, plateau_sweep 2, ...), so a slow spell of the host falls on
every workload rather than on the seeds of one.  With ``--same-seed`` every
round uses that one seed: the spread is then the host's and the harness's
alone, with no change of inputs.

For every end-to-end metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  The tracing overhead is the traced
run's throughput minus the untraced run's, on the same seed, both scaled to
the reference speed (worker.py).
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRIMARY_SEED = 1
HELD_OUT_SEED = 2
ENV_KEYS = ("commit", "source_sha256", "python", "numpy", "blas", "blas_config", "nproc",
            "pinned_env")
RUN_KEYS = ("loadavg_at_start", "passes", "samples", "tail_percentile", "tail_samples_beyond",
            "calibration_s_median", "raw_setup_s", "raw_throughput_ops_s", "raw_latency_p50_ms",
            "raw_latency_tail_ms")


def run(workload, seed, trace, seconds):
    """(result, info) of one run.py invocation; info includes its wall time."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    info = {"wall_s": perf_counter() - t0}
    for line in lines[1:-1]:
        if line.startswith("  ") and ": " in line:
            key, value = line.strip().split(": ", 1)
            try:
                info[key] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                info[key] = value
    return json.loads(lines[-1]), info


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--same-seed", type=int, help="repeat this seed instead of 1, 2, ...")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seconds = SPEC["run_seconds"]
    seeds = ([args.same_seed] * args.seeds if args.same_seed is not None
             else list(range(PRIMARY_SEED, PRIMARY_SEED + args.seeds)))
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    runs = {w: [] for w in args.workloads}
    env = None
    for seed in seeds:
        for workload in args.workloads:
            result, info = run(workload, seed, 0, seconds)
            env = env or {k: info[k] for k in ENV_KEYS}
            runs[workload].append({
                "seed": seed, "wall_s": info["wall_s"], **{k: info[k] for k in RUN_KEYS},
                **{k: result[k] for k in ("correct", "attempted", "failed")},
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, result["correct"], " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    record["environment"] = env

    for workload in args.workloads:
        summary = {}
        print(workload)
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs[workload]]
            s = spread(values) if len(values) > 1 else None
            summary[name] = {"median": statistics.median(values), "spread": s, "bound": bound,
                             "within_third_of_bound": s is not None and s < bound / 3}
            print(f"  {name}: median {statistics.median(values):.4g}  spread "
                  f"{s if s is None else round(s, 4)}  bound {bound}", flush=True)
        entry = {"runs": runs[workload], "end_to_end": summary}
        if not args.no_trace:
            entry["traced"] = {}
            for seed in (PRIMARY_SEED, HELD_OUT_SEED):
                result, info = run(workload, seed, 1, seconds)
                base = next((r["metrics"]["throughput_ops_s"] for r in runs[workload]
                             if r["seed"] == seed), None)
                if base is None:
                    base = run(workload, seed, 0, seconds)[0]["metrics"]["throughput_ops_s"]["value"]
                traced_tp = info["traced_throughput_ops_s"]
                entry["traced"][str(seed)] = {
                    **{k: result[k] for k in ("correct", "attempted", "failed")},
                    "spans": info["spans"],
                    "wall_s": info["wall_s"],
                    "throughput_ops_s": traced_tp,
                    "raw_throughput_ops_s": info["raw_traced_throughput_ops_s"],
                    "untraced_throughput_ops_s": base,
                    "tracing_overhead_ops_s": traced_tp - base,
                    "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                }
                print(f"  traced seed {seed}: correct {result['correct']}, throughput "
                      f"{traced_tp:.4g} vs {base:.4g} untraced", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
