"""The benchmark tracer finds every function it traces.

``perfbench/tracer.py`` wraps each binding of the functions named in its
``TRACED`` table in every ``lorentz_cmc`` module namespace.  A traced
function that is renamed, moved or no longer bound where the tracer looks
breaks the harness, so this test loads the tracer from its file, as the
harness does, and checks its bindings against the package.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import lorentz_cmc.mesh as mesh
import lorentz_cmc.oracle as oracle

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
