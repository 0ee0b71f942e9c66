"""The golden bytes and the quadrature rule's bits with no BLAS kernel choice
and no numpy SIMD dispatch: ``tests/test_golden.py`` and
``tests/test_quadrature.py`` rerun in a fresh interpreter with OpenBLAS
held to its Prescott (SSE3) kernels and every dispatched numpy feature that
this host has switched off."""

import subprocess
import sys

import pytest

from test_console import ROOT, child_env


def dispatched_features():
    """numpy's dispatched CPU features that this host has, or None where numpy
    does not list them."""
    try:
        from numpy._core import _multiarray_umath as umath
        dispatch, features = umath.__cpu_dispatch__, umath.__cpu_features__
    except (ImportError, AttributeError):
        return None
    return [name for name in dispatch if features.get(name)]


def test_golden_and_quadrature_hold_without_simd_dispatch():
    features = dispatched_features()
    if features is None:
        pytest.skip("numpy lists no dispatched CPU features (__cpu_dispatch__, __cpu_features__)")
    env = child_env(OPENBLAS_CORETYPE="Prescott", NPY_DISABLE_CPU_FEATURES=" ".join(features))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests/test_golden.py", "tests/test_quadrature.py"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
