"""The benchmark tracer finds every function it traces.

``perfbench/tracer.py`` wraps each binding of the functions named in its
``TRACED`` table in every ``lorentz_cmc`` module namespace.  A traced
function that is renamed, moved or no longer bound where the tracer looks
breaks the harness, so this test loads the tracer from its file, as the
harness does, and checks its bindings against the package.  The tracer's
span stack is not thread-safe, so it also checks that no traced function
runs on the helper thread that blocked work is shared with.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import lorentz_cmc.mesh as mesh
import lorentz_cmc.oracle as oracle
import lorentz_cmc.profile as profile
from lorentz_cmc import SurfaceParams, profile_curve

from test_oracle import SEVERAL_BLOCKS_CSV

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(tracer_module):
    return [importlib.import_module(tracer_module.PACKAGE + suffix)
            for suffix in tracer_module.MODULES]


def test_every_traced_function_is_wrapped_and_restored(tracer_module):
    before = [dict(vars(module)) for module in namespaces(tracer_module)]
    tracer = tracer_module.Tracer().install()
    try:
        wrapped = {name.split("@")[0] for name in tracer.names}
        assert wrapped == set(tracer_module.TRACED)
        for module, attr, original in tracer._undo:
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for module, names in zip(namespaces(tracer_module), before):
        for attr, value in names.items():
            assert vars(module)[attr] is value, (module.__name__, attr)


def test_traced_readers_keep_their_names(tracer_module):
    # the harness reads the work count of patch_from_csv from its "data" argument
    assert list(inspect.signature(mesh.load_obj).parameters) == ["data"]
    assert list(inspect.signature(oracle.patch_from_csv).parameters) == ["data"]
    assert {"mesh.load_obj", "oracle.patch_from_csv"} <= set(tracer_module.TRACED)


def test_no_traced_function_runs_on_a_helper_thread(tracer_module):
    # the tracer keeps one span stack, so a span opened on a helper thread
    # would be nested under whatever the calling thread had open
    curve = profile_curve(SurfaceParams(1.0, 3.0), (1.0, 0.0))
    ts = 10.0 ** np.random.default_rng(5).uniform(-3.0, 3.0, 100_000)
    obj = mesh.export_obj(mesh.sample_surface(curve, (0.0, 4.0), 128, 128))
    tracer = tracer_module.Tracer().install()
    try:
        tracer.begin_op(0)
        profile.heights(curve, ts)
        mesh.load_obj(obj)
        oracle.patch_from_csv(SEVERAL_BLOCKS_CSV)
        tracer.end_op()
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    funcs = {tracer.names[k].split("@")[0] for k in spans["name"].tolist()}
    assert {"profile.heights", "quadrature.panel_sums", "mesh.load_obj",
            "oracle.patch_from_csv"} <= funcs
    child = np.flatnonzero(spans["parent"] >= 0)
    parent = spans["parent"][child]
    assert (spans["start"][parent] <= spans["start"][child]).all()
    assert (spans["end"][child] <= spans["end"][parent]).all()
