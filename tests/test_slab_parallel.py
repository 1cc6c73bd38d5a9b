"""Two-slab transforms and wave-kernel passes (grid.in_slabs): bitwise the
serial result, run under the caller's numpy error state, errors handed back
to the caller, and no helper thread for 1-d work."""

import json
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from hylosolve import DoublePower, Grid, ModelSpec, NonFinite, WSpec
from hylosolve import grid as gridmod
from hylosolve.grid import random_state
from hylosolve.models import evolve_step
from hylosolve.rng import SplitMix64

SRC = Path(__file__).resolve().parents[1] / "src"
DOUBLE_POWER = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))


@pytest.fixture
def dispatches(monkeypatch):
    """Two CPUs whatever the machine has, and the number of two-slab passes
    handed to the helper from here on."""
    monkeypatch.setattr(gridmod, "_CPU_COUNT", 2)
    count = [0]
    original = gridmod._SlabHelper.run

    def counted(self, task, first, second):
        count[0] += 1
        return original(self, task, first, second)

    monkeypatch.setattr(gridmod._SlabHelper, "run", counted)
    return count


# (shape, number of trailing grid axes); every one is above SLAB_FLOOR
SHAPES = [((64, 64, 64), 3), ((3, 40, 40, 40), 3), ((256, 128), 2), ((2, 255, 130), 2),
          ((63, 50, 66), 3)]


@pytest.mark.parametrize("shape,dim", SHAPES, ids=lambda v: "x".join(map(str, v))
                         if isinstance(v, tuple) else None)
def test_slab_transforms_are_bitwise_fftn(dispatches, shape, dim):
    assert np.prod(shape) >= gridmod.SLAB_FLOOR
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(7)
    real = rng.standard_normal(shape)
    values = real + 1j * rng.standard_normal(shape)
    for inp in (values, real):
        want = np.fft.fftn(inp, axes=axes)
        assert gridmod.fft(inp, axes).tobytes() == want.tobytes()
        assert gridmod.ifft(inp, axes).tobytes() == np.fft.ifftn(inp, axes=axes).tobytes()
        out = np.empty(shape, np.complex128)
        assert gridmod.fft(inp, axes, out=out) is out
        assert out.tobytes() == want.tobytes()
    in_place = values.copy()
    assert gridmod.fft(in_place, axes, out=in_place) is in_place
    assert in_place.tobytes() == np.fft.fftn(values, axes=axes).tobytes()
    assert gridmod.ifft(in_place, axes, out=in_place) is in_place
    back = np.fft.ifftn(np.fft.fftn(values, axes=axes), axes=axes)
    assert in_place.tobytes() == back.tobytes()
    # two slab passes per transform, 2 * 2 + 2 * 2 + 2 * 2 above
    assert dispatches[0] == 16


def test_small_and_one_axis_transforms_stay_serial(dispatches):
    rng = np.random.default_rng(8)
    small = rng.standard_normal((16, 16, 16)) + 0j
    assert small.size < gridmod.SLAB_FLOOR
    got = gridmod.fft(small, (-3, -2, -1))
    assert got.tobytes() == np.fft.fftn(small, axes=(-3, -2, -1)).tobytes()
    line = rng.standard_normal(2**16) + 0j
    assert gridmod.fft(line, (-1,)).tobytes() == np.fft.fft(line).tobytes()
    assert dispatches[0] == 0


def _nwe_32_cubed(seed, amplitude):
    spec = ModelSpec("NWE", Grid((32, 32, 32), (16.0,) * 3), DOUBLE_POWER)
    return spec, random_state("NWE", spec.grid, SplitMix64(seed), amplitude=amplitude,
                              band_limit=4)


def test_blowing_up_row_warns_nowhere_and_matches_serial(dispatches, monkeypatch):
    spec, calm = _nwe_32_cubed(21, 1.0)
    _, wild = _nwe_32_cubed(22, 1e70)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two = evolve_step(spec, [calm, wild], 0.01, steps=5)
    assert dispatches[0] > 0
    monkeypatch.setattr(gridmod, "_CPU_COUNT", 1)
    one = evolve_step(spec, [calm, wild], 0.01, steps=5)
    assert isinstance(two[1], NonFinite) and isinstance(one[1], NonFinite)
    assert str(two[1]) == str(one[1])
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(two[0].components, one[0].components))


def test_helper_runs_under_the_callers_error_state(dispatches):
    main = threading.main_thread()
    ones = np.ones((64, 64, 64))

    def divide_on_the_helper(index):
        if threading.current_thread() is not main:
            np.divide(ones[index], 0.0, out=ones[index])

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            gridmod.in_slabs(divide_on_the_helper, ones.shape, -3)
    with np.errstate(divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        gridmod.in_slabs(divide_on_the_helper, ones.shape, -3)
    assert np.all(ones[:32] == 1.0) and np.all(np.isinf(ones[32:]))
    assert dispatches[0] == 2


def test_helper_exception_reaches_the_caller(dispatches, monkeypatch):
    main = threading.main_thread()
    original = np.fft.fft

    def fails_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not main:
            raise RuntimeError("raised on the helper")
        return original(*args, **kwargs)

    values = np.random.default_rng(9).standard_normal((64, 64, 64)) + 0j
    monkeypatch.setattr(np.fft, "fft", fails_off_the_main_thread)
    with pytest.raises(RuntimeError, match="raised on the helper"):
        gridmod.fft(values, (-3, -2, -1))
    monkeypatch.setattr(np.fft, "fft", original)
    # the helper serves the next pass as before
    got = gridmod.fft(values, (-3, -2, -1))
    assert got.tobytes() == np.fft.fftn(values, axes=(-3, -2, -1)).tobytes()


def test_helper_keeps_no_reference_to_a_finished_pass(dispatches):
    import weakref
    values = np.zeros((64, 64, 64))
    freed = weakref.ref(values)

    def fill(index, values=values):  # the task itself holds the array
        values[index] = 1.0

    gridmod.in_slabs(fill, values.shape, -3)
    assert dispatches[0] == 1
    del fill, values
    assert freed() is None


GUARD = """
import json, sys, threading
sys.path.insert(0, {src!r})
import hylosolve.cli
from hylosolve.cli import cli_main
from hylosolve.fileio import write_field
from hylosolve.grid import Grid, random_state
from hylosolve.rng import SplitMix64
before = threading.active_count()
write_field(random_state("NWE", Grid((256,), (40.0,)), SplitMix64(3), amplitude=0.5),
            {state!r})
code = cli_main(["evolve", "--config", {config!r}, "--out", {out!r}, "--state", {state!r},
                 "--quiet"])
print(json.dumps({{"code": code, "before": before, "after": threading.active_count(),
                   "futures": "concurrent.futures" in sys.modules}}))
"""


EVOLVE_1D_CONFIG = {"model": {"tag": "NWE", "n": [256], "box_length": [40.0],
                              "w": {"m_sq": 1.0, "family": {"kind": "double_power", "b": 1.0,
                                                            "p": 4.0, "c": 0.3,
                                                            "q_tilde": 6.0}}},
                    "seed": 1, "evolve": {"T": 0.2, "dt": 0.01, "record_every": 10}}


def test_one_dimensional_evolve_starts_no_thread(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(EVOLVE_1D_CONFIG))
    script = GUARD.format(src=str(SRC), config=str(config_path), out=str(tmp_path / "out"),
                          state=str(tmp_path / "initial.field"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["code"] == 0
    assert seen["after"] == seen["before"]
    assert not seen["futures"]
