"""Spans around the public functions of ``lorentz_cmc``, from outside it.

``Tracer.install`` replaces every binding of a traced function in every
``lorentz_cmc`` module namespace (``bvp.integrate``, ``profile.integrate``,
``mesh.heights``, ``cli.sample_surface``, ...) with a wrapper that records
one span per call: name, binding, start, end, parent span, op id, a work
count taken from the arguments or the result, and whether it raised.
Spans live in flat arrays in memory and are written out once, by
``Tracer.save``.  ``LAYER_METRICS`` turns them into the per-layer metrics.

Only calls made while an op is open are recorded, so the checks that run
between ops leave no spans.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "lorentz_cmc"
MODULES = ("", ".core", ".quadrature", ".profile", ".bvp", ".flux",
           ".oracle", ".mesh", ".cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# traced function -> work count of one call, from (args, kwargs, result)
TRACED = {
    "quadrature.integrate": None,
    "quadrature.panel_sums": lambda a, k, out: np.size(_arg(a, k, 1, "los")),
    "profile.height": None,
    "profile.heights": lambda a, k, out: np.size(_arg(a, k, 1, "ts")),
    "profile.singularity_report": None,
    "profile.first_integral_residual": None,
    "bvp.solve_c": None,
    "bvp.solve_two_ring": None,
    "oracle.patch_from_profile": None,
    "oracle.mean_curvature_graph": lambda a, k, out: out.points_checked,
    "oracle.patch_to_csv": lambda a, k, out: len(out),
    "oracle.patch_from_csv": lambda a, k, out: len(_arg(a, k, 0, "data")),
    "mesh.sample_surface": lambda a, k, out: out.faces.shape[0],
    "mesh.export_obj": lambda a, k, out: len(out),
    "mesh.load_obj": None,
    "mesh.euler_characteristic": None,
    "mesh.export_profile_csv": lambda a, k, out: np.size(_arg(a, k, 1, "ts")),
    "cli.main": None,
}


class Tracer:
    def __init__(self):
        self.names = []  # "func@binding"
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("H")
        self.work = array("q")
        self.raised = array("b")
        self._stack = []
        self._op_id = None
        self._undo = []

    # -- recording --------------------------------------------------------

    def begin_op(self, op_id):
        self._op_id = op_id

    def end_op(self):
        self._op_id = None

    def _wrap(self, fn, func, binding):
        name_id = len(self.names)
        self.names.append(f"{func}@{binding}")
        work_of = TRACED[func]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._op_id)
            self.name.append(name_id)
            self.work.append(0)
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if work_of is not None:
                self.work[i] = int(work_of(args, kwargs, out))
            return out

        return traced

    def install(self):
        """Wrap every binding of every traced function; returns self."""
        modules = {m: importlib.import_module(PACKAGE + m) for m in MODULES}
        originals = {}
        for func in TRACED:
            mod, attr = func.split(".")
            originals[getattr(modules["." + mod], attr)] = func
        for suffix, module in modules.items():
            binding = suffix.lstrip(".") or PACKAGE
            for attr, value in list(vars(module).items()):
                if callable(value) and value in originals:
                    setattr(module, attr, self._wrap(value, originals[value], binding))
                    self._undo.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -----------------------------------------------------------

    def arrays(self):
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, extra_counts):
        """Every per-layer metric, as {name: (value, unit)}."""
        spans = _Spans(self.names, self.arrays())
        out = {}
        for name, unit, _better, fn in LAYER_METRICS:
            value = extra_counts[name] if fn is None else fn(spans)
            out[name] = (value, unit)
        return out


class _Spans:
    """Column view of the recorded spans with self times."""

    def __init__(self, names, cols):
        self.func = np.array([n.split("@")[0] for n in names] + [""])
        self.binding = np.array([n.split("@")[1] for n in names] + [""])
        self.name = cols["name"].astype(np.int64)
        self.work = cols["work"]
        self.raised = cols["raised"]
        self.parent = cols["parent"]
        self.dur = cols["end"] - cols["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_s = self.dur - child
        # func of each span's parent ("" for top-level spans)
        parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)],
                               len(names))
        self.parent_func = self.func[parent_name]

    def of(self, func, binding=None, parent=None):
        mask = self.func[self.name] == func
        if binding is not None:
            mask &= self.binding[self.name] == binding
        if parent is not None:
            mask &= self.parent_func == parent
        return mask

    def calls(self, func, **kw):
        return int(np.count_nonzero(self.of(func, **kw)))

    def total(self, func, **kw):
        return float(self.dur[self.of(func, **kw)].sum())

    def self_total(self, func, **kw):
        return float(self.self_s[self.of(func, **kw)].sum())

    def work_sum(self, func, **kw):
        return int(self.work[self.of(func, **kw)].sum())

    def failures(self, func):
        return int(np.count_nonzero(self.of(func) & (self.raised != 0)))


def _ratio(num, den):
    return num / den if den else 0.0


def _fallback_ratio(sp):
    fallbacks = sp.calls("quadrature.integrate", binding="profile",
                         parent="profile.heights")
    segments = sp.work_sum("quadrature.panel_sums", binding="profile",
                           parent="profile.heights")
    return _ratio(fallbacks, segments)


# (name, unit, better, function of the spans; None for counts the workload
# keeps itself).  ".s" is time inside the call, ".self_s" excludes the
# traced calls it makes.  README.md says what each should move, and where.
LAYER_METRICS = [
    ("quadrature.integrate.calls", "count", "lower",
     lambda sp: sp.calls("quadrature.integrate")),
    ("quadrature.integrate.self_s", "s", "lower",
     lambda sp: sp.self_total("quadrature.integrate")),
    ("quadrature.panel_sums.calls", "count", "lower",
     lambda sp: sp.calls("quadrature.panel_sums")),
    ("quadrature.panel_sums.panels", "count", "lower",
     lambda sp: sp.work_sum("quadrature.panel_sums")),
    ("quadrature.integrand_evals", "count", "lower",
     lambda sp: 15 * sp.work_sum("quadrature.panel_sums")),
    ("quadrature.panel_sums.s", "s", "lower",
     lambda sp: sp.total("quadrature.panel_sums")),
    ("quadrature.failures", "count", "lower",
     lambda sp: sp.failures("quadrature.integrate")),
    ("bvp.solve_c.calls", "count", "lower",
     lambda sp: sp.calls("bvp.solve_c")),
    ("bvp.solve_c.self_s", "s", "lower",
     lambda sp: sp.self_total("bvp.solve_c")),
    ("bvp.g_evals", "count", "lower",
     lambda sp: sp.calls("quadrature.integrate", binding="bvp")),
    ("bvp.g_evals_per_solve", "evals/solve", "lower",
     lambda sp: _ratio(sp.calls("quadrature.integrate", binding="bvp"),
                       sp.calls("bvp.solve_c"))),
    ("bvp.failures", "count", "lower",
     lambda sp: sp.failures("bvp.solve_c")),
    ("profile.heights.calls", "count", "lower",
     lambda sp: sp.calls("profile.heights")),
    ("profile.heights.points", "count", "higher",
     lambda sp: sp.work_sum("profile.heights")),
    ("profile.heights.self_s", "s", "lower",
     lambda sp: sp.self_total("profile.heights")),
    ("profile.heights.fallback_ratio", "ratio", "lower", _fallback_ratio),
    ("profile.height.calls", "count", "lower",
     lambda sp: sp.calls("profile.height")),
    ("profile.height.s", "s", "lower",
     lambda sp: sp.total("profile.height")),
    ("profile.first_integral_residual.calls", "count", "lower",
     lambda sp: sp.calls("profile.first_integral_residual")),
    ("profile.first_integral_residual.s", "s", "lower",
     lambda sp: sp.total("profile.first_integral_residual")),
    ("profile.singularity_report.s", "s", "lower",
     lambda sp: sp.total("profile.singularity_report")),
    ("mesh.sample_surface.self_s", "s", "lower",
     lambda sp: sp.self_total("mesh.sample_surface")),
    ("mesh.faces", "count", "higher",
     lambda sp: sp.work_sum("mesh.sample_surface")),
    ("mesh.export_obj.s", "s", "lower",
     lambda sp: sp.total("mesh.export_obj")),
    ("mesh.export_obj.bytes", "bytes", "lower",
     lambda sp: sp.work_sum("mesh.export_obj")),
    ("mesh.load_obj.s", "s", "lower",
     lambda sp: sp.total("mesh.load_obj")),
    ("mesh.euler_characteristic.s", "s", "lower",
     lambda sp: sp.total("mesh.euler_characteristic")),
    ("mesh.export_profile_csv.self_s", "s", "lower",
     lambda sp: sp.self_total("mesh.export_profile_csv")),
    ("mesh.export_profile_csv.rows", "count", "higher",
     lambda sp: sp.work_sum("mesh.export_profile_csv")),
    ("oracle.patch_from_profile.self_s", "s", "lower",
     lambda sp: sp.self_total("oracle.patch_from_profile")),
    ("oracle.mean_curvature_graph.s", "s", "lower",
     lambda sp: sp.total("oracle.mean_curvature_graph")),
    ("oracle.points_checked", "count", "higher",
     lambda sp: sp.work_sum("oracle.mean_curvature_graph")),
    ("oracle.patch_to_csv.s", "s", "lower",
     lambda sp: sp.total("oracle.patch_to_csv")),
    ("oracle.patch_to_csv.bytes", "bytes", "lower",
     lambda sp: sp.work_sum("oracle.patch_to_csv")),
    ("oracle.patch_from_csv.s", "s", "lower",
     lambda sp: sp.total("oracle.patch_from_csv")),
    ("oracle.patch_from_csv.bytes", "bytes", "lower",
     lambda sp: sp.work_sum("oracle.patch_from_csv")),
    ("cli.main.calls", "count", "lower",
     lambda sp: sp.calls("cli.main")),
    ("cli.main.self_s", "s", "lower",
     lambda sp: sp.self_total("cli.main")),
    ("cli.bytes_written", "bytes", "lower", None),
]
