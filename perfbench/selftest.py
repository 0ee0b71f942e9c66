"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py            # about six minutes

* Two traced runs with the same seed give identical count metrics.
* Installing the wrappers leaves outputs bit-identical: the sha256 of every
  OBJ, profile CSV and patch CSV, and the solved c, match with and without
  tracing.
* run.py prints every metric of BENCHMARK.json by name with its unit, and
  the per-layer list there matches tracer.LAYER_METRICS and README.md.
* In a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import lorentz_cmc as lc  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = ROOT / ".perfbench_work"
HELD_OUT_SEED = 2
COUNT_UNITS = {"count", "bytes", "evals/solve", "ratio"}


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=200)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digests(workload, ops, workdir):
    """sha256 of everything the ops write or return, op by op."""
    out = []
    for op in ops:
        result = workload.run(op, workdir)
        if workload.name == "figure_export":
            record = result[0]
            paths = ([record["profile_csv"], record["surface_obj"]]
                     if op["kind"] == "figure" else [record["path"]])
            out.append([_sha(Path(p).read_bytes()) for p in paths] + [_sha(result[1].encode())])
        elif workload.name == "profile_eval":
            hs, patch, reports, _ = result
            out.append([_sha(hs.tobytes()), _sha(lc.patch_to_csv(patch)),
                        [repr(r.H_mean) for r in reports.values()]])
        else:
            out.append([repr(result.c), repr(result.residual), result.regime.value])
    return out


class HarnessTest(unittest.TestCase):
    def test_traced_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (result_of(run_py("--workload", workload, "--seed",
                                                  str(HELD_OUT_SEED), "--seconds", "1",
                                                  "--trace", "1")) for _ in range(2))
                self.assertTrue(first["correct"] and second["correct"])
                for m in SPEC["per_layer"]:
                    if m["unit"] in COUNT_UNITS:
                        self.assertEqual(first["metrics"][m["name"]],
                                         second["metrics"][m["name"]], m["name"])

    def test_wrappers_leave_outputs_bit_identical(self):
        workdir = WORKDIR / "selftest-identical"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            for name, n_ops in (("figure_export", 6), ("profile_eval", 2), ("plateau_sweep", 40)):
                workload = WORKLOADS[name]
                ops = workload.build(HELD_OUT_SEED)[:n_ops]
                plain = digests(workload, ops, workdir)
                tracer = Tracer()
                with tracer:
                    tracer.begin_op(0)
                    traced = digests(workload, ops, workdir)
                    tracer.end_op()
                self.assertGreater(len(tracer.start), 0)
                self.assertEqual(plain, traced, name)
                # uninstalling restores the original functions
                self.assertIs(lc.quadrature.integrate, lc.bvp.integrate)
                self.assertFalse(hasattr(lc.mesh.heights, "__wrapped__"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_py("--workload", "plateau_sweep", "--seed", str(HELD_OUT_SEED),
                          "--seconds", "1", "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = result_of(proc)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[key]])
            for m in SPEC[key]:
                value = result["metrics"][m["name"]]
                self.assertEqual(value["unit"], m["unit"])
                self.assertIn(f"{m['name']} = {value['value']!r} {m['unit']}\n", proc.stdout)

    def test_per_layer_list_matches_tracer_and_readme(self):
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
                         [row[:3] for row in LAYER_METRICS])
        readme = (HERE / "README.md").read_text()
        for m in SPEC["per_layer"] + SPEC["end_to_end"]:
            self.assertIn(f"`{m['name']}`", readme)

    def test_bare_directory_fails_without_result(self):
        bare = WORKDIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run_py("--workload", "plateau_sweep", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
