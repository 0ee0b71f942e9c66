"""Blocks run on the calling thread and one helper keep their bits and their
first error.

``panel_sums`` and the two readers (``load_obj``, ``patch_from_csv``) hand
their blocks to ``_parallel._each``.  Here the block sizes are forced, and
every output must keep the bytes of one block per call, which runs on the
calling thread alone; a bad field or a raising integrand in two blocks must
name the first in text order, as one thread would; the caller's numpy
``errstate`` must hold in the helper; no call may run on a third thread; and
no helper thread may outlive a call.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import lorentz_cmc._text as text_module
import lorentz_cmc.mesh as mesh_module
import lorentz_cmc.oracle as oracle_module
import lorentz_cmc.quadrature as quadrature_module
from lorentz_cmc import SurfaceParams, heights, load_obj, patch_from_csv, profile_curve
from lorentz_cmc._parallel import _each
from lorentz_cmc.mesh import export_obj, sample_surface
from lorentz_cmc.profile import _slope_raw
from lorentz_cmc.quadrature import panel_sums

from test_console import ROOT, child_env
from test_oracle import SEVERAL_BLOCKS_CSV

# long enough for a helper thread to reach a block on a loaded host
WAIT = 10.0

# larger than any panel batch or text this module builds
ONE_BLOCK = 1 << 40


def outputs():
    """sha256 of the bytes of each blocked path's output: ``heights`` on 1e5
    log-spread radii, ``panel_sums``, ``load_obj`` of figure 4's OBJ at 128^2
    (six reader blocks) and ``patch_from_csv`` of ``SEVERAL_BLOCKS_CSV``."""
    rng = np.random.default_rng(43)
    H, c, anchor = 0.7, 2.5, (1.3, 0.2)
    ts = anchor[0] * 10.0 ** rng.uniform(-3.0, 3.0, 100_000)
    los = np.sort(rng.uniform(0.01, 5.0, 10_000))
    k, e = panel_sums(lambda s: _slope_raw(s, H, c), los, los + rng.uniform(0.0, 0.1, los.size))
    obj = export_obj(sample_surface(profile_curve(SurfaceParams(1.0, 3.0), (1.0, 0.0)),
                                    (0.0, 4.0), 128, 128))
    patch = patch_from_csv(SEVERAL_BLOCKS_CSV)
    arrays = {"heights": [heights(profile_curve(SurfaceParams(H, c), anchor), ts)],
              "panel_sums": [k, e], "load_obj": load_obj(obj),
              "patch_from_csv": [patch.x1, patch.x2, patch.values, patch.mask]}
    return {name: hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts))
            .hexdigest() for name, parts in arrays.items()}


@pytest.fixture(scope="module")
def serial_outputs():
    """``outputs()`` with block sizes past every input: one block per call,
    which ``_each`` runs on the calling thread with no helper."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature_module, "_BLOCK", ONE_BLOCK)
        patch.setattr(text_module, "_BLOCK", ONE_BLOCK)
        return outputs()


@pytest.mark.parametrize("blocks", [None, (97, 4099)], ids=["default_blocks", "small_blocks"])
def test_same_bytes_for_any_block_size(monkeypatch, serial_outputs, blocks):
    if blocks:
        monkeypatch.setattr(quadrature_module, "_BLOCK", blocks[0])
        monkeypatch.setattr(text_module, "_BLOCK", blocks[1])
    assert outputs() == serial_outputs


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity here")
def test_one_pinned_cpu_gives_the_serial_bytes(serial_outputs):
    # the helper thread shares the one CPU with the caller
    code = ("import json, os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import test_parallel\n"
            "print(json.dumps(test_parallel.outputs()))\n")
    run = subprocess.run([sys.executable, "-c", code], env=child_env(ROOT / "tests"),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]
    assert json.loads(run.stdout) == serial_outputs


def held_until_a_later_block_raises(parse, early, waited):
    """``parse``, except that a block holding the bytes ``early`` first waits
    until another block has raised; ``waited`` gets whether it did in time."""
    raised = threading.Event()

    def held(data, start, stop):
        if early in data[start:stop]:
            waited.append(raised.wait(WAIT))
        try:
            return parse(data, start, stop)
        except text_module.BadField:
            raised.set()
            raise

    return held


class TestFirstErrorInTextOrder:
    # one line per block; the bad fields are in blocks 2 and 5
    @pytest.fixture(autouse=True)
    def line_blocks(self, monkeypatch):
        monkeypatch.setattr(text_module, "_BLOCK", 1)

    OBJ = b"".join(b"v 0 %s 0\n" % (b"x" if k == 2 else b"y" if k == 5 else b"1") for k in range(8))
    CSV = b"x1,x2,u\n" + b"".join(b"%d,0,%s\n" % (k, b"x" if k == 2 else b"y" if k == 5 else b"1")
                                  for k in range(8))

    def test_obj_names_the_earlier_block(self):
        with pytest.raises(ValueError, match=r"at line 3: b'v 0 x 0'$"):
            load_obj(self.OBJ)

    def test_csv_names_the_earlier_block(self):
        with pytest.raises(ValueError, match=r"at line 4: b'x'$"):
            patch_from_csv(self.CSV)

    def test_obj_names_the_earlier_block_when_the_later_raises_first(self, monkeypatch):
        waited = []
        monkeypatch.setattr(mesh_module, "_obj_block",
                            held_until_a_later_block_raises(mesh_module._obj_block, b"x", waited))
        with pytest.raises(ValueError, match=r"at line 3: b'v 0 x 0'$"):
            load_obj(self.OBJ)
        assert waited == [True]

    def test_csv_names_the_earlier_block_when_the_later_raises_first(self, monkeypatch):
        waited = []
        monkeypatch.setattr(oracle_module, "_csv_block",
                            held_until_a_later_block_raises(oracle_module._csv_block, b"x", waited))
        with pytest.raises(ValueError, match=r"at line 4: b'x'$"):
            patch_from_csv(self.CSV)
        assert waited == [True]


class TestHelpers:
    @pytest.fixture(autouse=True)
    def four_panel_blocks(self, monkeypatch):
        monkeypatch.setattr(quadrature_module, "_BLOCK", 4)

    def test_panel_sums_raises_the_first_block_error(self, monkeypatch):
        # block 1 waits until block 3 has raised, so the later error comes first
        raised, waited = threading.Event(), []

        def fn(x):
            block = int(x.min()) // 4
            if block == 1:
                waited.append(raised.wait(WAIT))
            if block in (1, 3):
                raised.set()
                raise ArithmeticError(f"block {block}")
            return x

        los = np.arange(20.0)
        with pytest.raises(ArithmeticError, match="^block 1$"):
            panel_sums(fn, los, los + 1.0)
        assert waited == [True]

    def test_helpers_run_in_the_callers_errstate(self):
        # the calling thread's block waits until the helper's block has overflowed
        on_helper = threading.Event()

        def fn(x):
            if threading.current_thread() is threading.main_thread():
                on_helper.wait(WAIT)
                return x
            on_helper.set()
            return x * 1e300 * 1e300

        los = np.arange(8.0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            panel_sums(fn, los, los + 1.0)
        assert on_helper.is_set()

    @pytest.mark.parametrize("fail", [None, 0, 17, 99])
    def test_no_thread_outlives_a_call(self, fail):
        before, ran = threading.enumerate(), []

        def func(i):
            if i == fail:
                raise KeyError(i)
            ran.append(i)

        if fail is None:
            _each(func, 100)
            assert sorted(ran) == list(range(100))
        else:
            with pytest.raises(KeyError):
                _each(func, 100)
            assert set(range(fail)) <= set(ran)
        assert threading.enumerate() == before

    def test_every_index_runs_once_under_contention(self):
        # the two threads switch as often as the interpreter allows
        ran, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _each(ran.append, 20_000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(20_000))

    def test_no_index_is_taken_after_a_raise(self):
        # every helper call raises, and a call on the caller returns only once
        # the helper has ended: neither thread may then take another index
        caller, before = threading.current_thread(), set(threading.enumerate())
        taken, on_helper, ended = [], [], []

        def func(i):
            taken.append(i)
            if threading.current_thread() is not caller:
                on_helper.append(i)
                raise KeyError(i)
            for helper in set(threading.enumerate()) - before:
                helper.join(WAIT)
                ended.append(not helper.is_alive())

        with pytest.raises(KeyError) as raised:
            _each(func, 100)
        assert all(ended)
        assert sorted(taken) in ([0], [0, 1])
        assert raised.value.args == tuple(on_helper)

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_calls_run_on_the_caller_and_at_most_one_helper(self, n):
        # the first two calls of several meet, so both threads must take part,
        # and every call sleeps, so a third thread would find indices left
        meet, threads = threading.Barrier(2, timeout=WAIT), []

        def func(i):
            threads.append(threading.current_thread())
            if n > 1 and i < 2:
                meet.wait()
            time.sleep(1e-3)

        _each(func, n)
        assert len(threads) == n
        if n == 1:
            assert threads == [threading.current_thread()]
        else:
            assert len(set(threads)) == 2
