"""The package loads a module on first use.

``import lorentz_cmc`` and ``import lorentz_cmc.cli`` load no other module
of the package and no numpy; ``solve``, ``classify`` and ``flux`` run with
numpy blocked and print what they print with it; the package namespace is
the union of the modules' ``__all__`` before any of them is loaded.  Each
check that needs a cold interpreter runs in a fresh one.
"""

import subprocess
import sys

import pytest

import lorentz_cmc as lc
from lorentz_cmc import bvp, core, errors, flux, mesh, oracle, profile, quadrature

from test_console import child_env

MODULES = (bvp, core, errors, flux, mesh, oracle, profile, quadrature)
# the modules a fresh interpreter has loaded, of the package and of numpy
LOADED = ("sorted(m for m in sys.modules if m.split('.')[0] in ('lorentz_cmc', 'numpy')"
          " and sys.modules[m] is not None)")
BLOCK_NUMPY = "sys.modules['numpy'] = None\n"  # every later `import numpy` raises


def python(code):
    return subprocess.run([sys.executable, "-c", "import sys\n" + code], env=child_env(),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module,loaded", [("lorentz_cmc", ["lorentz_cmc"]),
                                           ("lorentz_cmc.cli", ["lorentz_cmc", "lorentz_cmc.cli"])])
def test_import_loads_no_library_module_and_no_numpy(module, loaded):
    run = python(f"import {module}\nprint({LOADED})")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == repr(loaded)


@pytest.mark.parametrize("argv,code", [
    ("solve --r 1 --R 2 --a 0 --b 0.5 --H 1", 0),
    ("solve --r 1 --R 2 --a 0 --b 0.5 --H 0.2 --human", 0),
    ("classify --r 1 --R 2 --a 0.5 --b 0 --H 0.2", 0),
    ("flux --r 2 --H 1 --c 3", 0),
    ("flux --r 1e200 --H 1 --c 3", 0),
    ("solve --r 1 --R 2 --a 0 --b 1 --H 1", 2),  # NotSpacelikeSolvable
])
def test_scalar_command_runs_without_numpy(argv, code):
    # the record (stdout, or stderr for an error), then the modules loaded:
    # the unblocked run loads no numpy either
    run = f"from lorentz_cmc.cli import main\ncode = main({argv.split()!r})\nprint({LOADED})\n"
    plain, blocked = python(run + "sys.exit(code)"), python(BLOCK_NUMPY + run + "sys.exit(code)")
    assert plain.returncode == blocked.returncode == code, blocked.stderr
    assert (blocked.stdout, blocked.stderr) == (plain.stdout, plain.stderr)
    *record, loaded = plain.stdout.splitlines()
    assert (record if code == 0 else plain.stderr.strip())
    assert "numpy" not in loaded and "lorentz_cmc.core" in loaded


def test_array_command_says_numpy_is_missing():
    run = python(BLOCK_NUMPY + "from lorentz_cmc.cli import main\n"
                 "sys.exit(main(['mesh', '--H', '1', '--c', '3', '--t0', '1', '--t1', '4',"
                 " '--out', '/dev/null']))")
    assert run.returncode == 1
    assert '"type": "ModuleNotFoundError"' in run.stderr and "numpy" in run.stderr


def test_all_and_dir_are_the_union_of_the_modules_all():
    union = {"__version__"} | {name for module in MODULES for name in module.__all__}
    assert sorted(lc.__all__) == sorted(union)
    assert dir(lc) == sorted(union)


def test_a_cold_star_import_binds_every_name():
    run = python("namespace = {}\nexec('from lorentz_cmc import *', namespace)\n"
                 "import lorentz_cmc as lc\n"
                 "print(sorted(set(lc.__all__) - set(namespace)), len(lc.__all__))")
    assert run.returncode == 0, run.stderr
    missing, count = run.stdout.split("] ")
    assert missing == "[" and int(count) == len(lc.__all__)


def test_a_name_loads_its_module_and_no_array_module_before_it():
    run = python(f"import lorentz_cmc as lc\nlc.solve_two_ring\nprint({LOADED})\n"
                 f"lc.heights\nprint({LOADED})")
    scalar, array = (eval(line) for line in run.stdout.splitlines())
    assert scalar == ["lorentz_cmc", "lorentz_cmc.bvp", "lorentz_cmc.core",
                      "lorentz_cmc.elliptic", "lorentz_cmc.errors"]
    assert {"lorentz_cmc.profile", "numpy"} <= set(array)
    assert not {"lorentz_cmc.mesh", "lorentz_cmc.oracle"} & set(array)


def test_names_and_modules_resolve_through_getattr():
    assert lc.__getattr__("heights") is profile.heights
    assert lc.__getattr__("DEFAULT_QUAD_TOL") is core.DEFAULT_QUAD_TOL
    assert lc.__getattr__("mesh") is mesh
    assert lc.__getattr__("elliptic") is lc.elliptic


@pytest.mark.parametrize("name", ["no_such_name", "_height_at", "__wrapped__", "rise"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"^module 'lorentz_cmc' has no attribute '{name}'$"):
        getattr(lc, name)
    assert not hasattr(lc, name)
