"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this script in a fresh interpreter with the thread
settings pinned; it is not meant to be run by hand.  With ``--setup-only``
it imports the package, builds the workload's inputs, prints ``ready``
(which is what ``setup_s`` times), then the host's speed scale and exits.

On the 2-core x86-64 host the baseline was recorded on, the same code runs
up to about 1.7x slower for tens of seconds to minutes at a time, because of
other tenants; process CPU time slows with it, so timing CPU instead of wall
time does not help.  So
every time reported is scaled to one reference speed of the host: a fixed
yardstick (``calibrate``) is timed next to the ops, and an op's wall time is
multiplied by ``CAL_REF_S`` over the yardstick's time around it.  The raw
wall-time figures are printed too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
MAX_PROBLEMS = 5  # failure messages kept in the result
# calibrate() on a 2-core x86-64 host in one of its fast spells: the
# reference speed every reported time is scaled to
CAL_REF_S = 0.007
CAL_EVERY_S = 0.5  # op seconds between two calibrations


def calibrate():
    """Best of three timings of a fixed mix of the kinds of work the ops do:
    an interpreter loop, numpy on 2e4 floats, and floats written as text and
    parsed back.  It runs no lorentz_cmc code, so only the host moves it."""
    import numpy as np

    x = np.linspace(0.1, 10.0, 20_000)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0.0
        for i in range(6000):
            acc += math.sqrt(i + 0.5)
        for _ in range(20):
            np.exp(-x) @ np.sin(x)
        np.array(",".join(map(repr, x[:2000].tolist())).split(","), dtype=float)
        best = min(best, perf_counter() - t0)
    return best


def _run_op(wl, op, workdir):
    """(seconds, output, error) of one timed op."""
    t0 = perf_counter()
    try:
        out = wl.run(op, workdir)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, None


def _problems(wl, op, out, error, workdir):
    if error is not None:
        return [error]
    try:
        return wl.check(op, out, workdir)
    except Exception as exc:  # output the checks cannot even read
        return [f"check raised {type(exc).__name__}: {exc}"]


def _latency_figures(lat):
    """(ops per second, median ms, tail ms, tail rank) of op latencies."""
    busy = sum(lat)
    lat = sorted(lat)
    n = len(lat)
    # highest percentile with ten samples beyond it (nearest rank); the
    # maximum when the run has too few samples for that
    k = n - 11 if n > 10 else n - 1
    return n / busy, 1e3 * statistics.median(lat), 1e3 * lat[k], k


def _loop(wl, ops, passes, workdir, tracer=None):
    """``passes`` whole passes over the ops, in a closed loop from one
    caller, each op timed on its own and checked after it, untimed.  The
    yardstick is timed before the first op, after the last, and between
    ops every CAL_EVERY_S of op time; an op is scaled by the geometric mean
    of the two around it.  Returns the scaled and the wall latencies, the
    yardstick times, the problems, and the work counts of correct ops."""
    lat, segment, cal = [], [], [calibrate()]
    problems, counts = [], Counter()
    since = 0.0
    for p in range(passes):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(i)
            try:
                dt, out, error = _run_op(wl, op, workdir)
            finally:
                if tracer is not None:
                    tracer.end_op()
            lat.append(dt)
            segment.append(len(cal) - 1)
            found = _problems(wl, op, out, error, workdir)
            if found:
                problems.append({"op": i, "pass": p, "problems": found})
            else:
                counts.update(wl.counts(op, out, workdir))
            del out
            since += dt
            if since >= CAL_EVERY_S:
                cal.append(calibrate())
                since = 0.0
    if since > 0.0:
        cal.append(calibrate())
    scaled = [dt * CAL_REF_S / math.sqrt(cal[s] * cal[s + 1]) for dt, s in zip(lat, segment)]
    return scaled, lat, cal, problems, counts


def timed(wl, ops, passes, workdir):
    """The end-to-end metrics of ``passes`` passes; every execution is one
    sample."""
    scaled, lat, cal, problems, _ = _loop(wl, ops, passes, workdir)
    throughput, p50, tail, k = _latency_figures(scaled)
    n = len(lat)
    metrics = {
        "throughput_ops_s": (throughput, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = _latency_figures(lat)
    info = {"samples": n, "passes": passes, "op_seconds": sum(lat),
            "tail_percentile": 100.0 * (k + 1) / n, "tail_samples_beyond": n - 1 - k,
            "raw_throughput_ops_s": raw[0], "raw_latency_p50_ms": raw[1],
            "raw_latency_tail_ms": raw[2], "calibrations": len(cal),
            "calibration_s_median": statistics.median(cal),
            "failures": problems[:MAX_PROBLEMS]}
    return n, problems, metrics, info


def traced(wl, ops, workdir, trace_path):
    """The per-layer metrics of one pass over the ops, with every traced
    binding wrapped."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        scaled, lat, _, problems, counts = _loop(wl, ops, 1, workdir, tracer)
    tracer.save(trace_path)
    counts.setdefault("cli.bytes_written", 0)
    metrics = tracer.metrics(counts)
    info = {"samples": len(lat), "traced_throughput_ops_s": len(scaled) / sum(scaled),
            "raw_traced_throughput_ops_s": len(lat) / sum(lat),
            "spans": len(tracer.start), "trace_file": str(trace_path.relative_to(ROOT)),
            "failures": problems[:MAX_PROBLEMS]}
    return len(lat), problems, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np

    import lorentz_cmc
    from workloads import WORKLOADS

    if Path(lorentz_cmc.__file__).resolve().parent != (SRC / "lorentz_cmc").resolve():
        print(f"imported lorentz_cmc from {lorentz_cmc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    ops = wl.build(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        print(CAL_REF_S / calibrate())
        return 0

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.npz"
            n, problems, metrics, info = traced(wl, ops, workdir, trace_path)
        else:
            # the pass count follows from the arguments, not from the host's speed
            passes = math.ceil(args.seconds / wl.pass_seconds)
            n, problems, metrics, info = timed(wl, ops, passes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info.update(numpy=np.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
                blas_config=blas.get("openblas configuration", ""))
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
