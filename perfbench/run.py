"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload plateau_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it benchmarks the ``lorentz_cmc``
package under ``src/`` there.  With ``--trace 0`` it times set-up in
fresh interpreters, then runs the workload untraced in one child process
and reports the end-to-end metrics.  With ``--trace 1`` the child wraps the
package's functions (tracer.py) and reports the per-layer metrics instead.
End-to-end times are scaled to one reference speed of the host, measured
next to them (worker.py says how); the wall-time figures are printed too.

Every line but the last is for people: the environment, each metric by
name with its unit, and any failed checks.  The last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 whenever that line is printed, and 2 without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text()) if SPEC_PATH.is_file() else None
WORKLOADS = ("plateau_sweep", "figure_export", "profile_eval")
# set-up runs before the workload and as many after it, so that one slow
# spell of the host does not decide their median
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# one thread per BLAS/OpenMP pool: panel_sums is a matmul, the box is small
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _worker(args, extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def setup_times(args, repeats):
    """(scaled, wall) times from spawning a fresh interpreter to its inputs
    built; the scale is the host speed that interpreter measures next."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        with subprocess.Popen(_worker(args, ["--setup-only"]), stdout=subprocess.PIPE,
                              env=_child_env(), cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            scale = proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up run exited {code} without becoming ready")
        times.append((elapsed * float(scale), elapsed))
    return times


def run_workload(args):
    proc = subprocess.run(_worker(args, []), stdout=subprocess.PIPE, env=_child_env(),
                          cwd=ROOT, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lorentz_cmc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "pinned_env": PINNED,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if SPEC is None or not (ROOT / "src" / "lorentz_cmc" / "__init__.py").is_file():
        print("no BENCHMARK.json or src/lorentz_cmc here: run from the root of a "
              "lorentz-cmc checkout", file=sys.stderr)
        return 2
    env = environment()
    try:
        if args.trace:
            result = run_workload(args)
        else:
            before = setup_times(args, SETUP_REPEATS)
            result = run_workload(args)
            setups = before + setup_times(args, SETUP_REPEATS)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    info = result.pop("info")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(s for s, _ in setups),
                                        "unit": "s"}
        info["raw_setup_s"] = statistics.median(w for _, w in setups)
    wanted = SPEC["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted}

    env.update(numpy=info.pop("numpy"), blas=info.pop("blas"), blas_config=info.pop("blas_config"))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in {**env, **info}.items():
        if key != "failures":
            print(f"  {key}: {value}")
    for entry in info["failures"]:
        print(f"  FAILED op {entry['op']}: {'; '.join(entry['problems'])}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
