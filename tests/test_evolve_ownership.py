"""Every full-grid array on the evolve path has one owner.

The velocity-like component's unit metric weight is the scalar 1.0, not an
array of ones; read_field hands the array it reads the body into to its
state; and evolve, once its rows are in its own list, keeps no other
reference to the start state, so a start state nothing else holds is freed
when the first record block replaces it.  The hand-over of a call argument needs CPython
3.11 or later, which moves the arguments into the callee's frame; on 3.10
the caller's stack keeps them for the whole call.
"""

import dataclasses
import json
import sys
import weakref

import numpy as np
import pytest

from hylosolve import DoublePower, Grid, ModelSpec, WSpec, evolve
from hylosolve import cli, dynamics, functionals
from hylosolve import grid as gridmod
from hylosolve.cli import cli_main
from hylosolve.fileio import read_field, write_field
from hylosolve.grid import orbit_distance, random_state, symbols, x_norm_of
from hylosolve.rng import SplitMix64

W = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))
GRID_3D = Grid((16, 16, 16), (12.0, 12.0, 12.0))
CASES = [("NWE", Grid((256,), (40.0,))), ("NBE", Grid((64,), (40.0,))), ("NWE", GRID_3D)]

EVOLVE_CONFIG = {"model": {"tag": "NWE", "n": list(GRID_3D.n),
                           "box_length": list(GRID_3D.box_length),
                           "w": {"m_sq": 1.0, "family": {"kind": "double_power", "b": 1.0,
                                                         "p": 4.0, "c": 0.3, "q_tilde": 6.0}}},
                 "evolve": {"T": 0.06, "dt": 0.01, "record_every": 2},
                 "seed": 3}

needs_argument_handover = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython moves call arguments into the callee's frame from 3.11 on")


def _complex_fields(grid: Grid, nbytes: int) -> float:
    return nbytes / (grid.size * np.dtype(np.complex128).itemsize)


def _watch(state, refs):
    """state, with weakrefs to its component arrays (the memory it owns;
    FieldState itself has no weakref slot) appended to refs."""
    refs.extend(weakref.ref(c) for c in state.components)
    return state


def _start_alive_per_step(monkeypatch, refs):
    """Wrap dynamics.evolve_step; the list it returns records, per kernel
    call, whether the start state was still alive when the call began."""
    alive = []
    original = dynamics.evolve_step

    def step(*args, **kwargs):
        alive.append(any(ref() is not None for ref in refs))
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve_step", step)
    return alive


@needs_argument_handover
def test_evolve_frees_the_start_state_after_the_first_block(monkeypatch):
    spec = ModelSpec("NWE", GRID_3D, W)
    refs = []
    alive = _start_alive_per_step(monkeypatch, refs)
    trace = evolve(spec, _watch(random_state("NWE", GRID_3D, SplitMix64(5), amplitude=0.5,
                                             band_limit=3), refs),
                   T=0.06, dt=0.01, record_every=2)
    assert not trace.blew_up
    assert alive == [True, False, False]


@needs_argument_handover
def test_cli_evolve_frees_the_start_state_after_the_first_block(tmp_path, monkeypatch):
    state_path = tmp_path / "start.field"
    write_field(random_state("NWE", GRID_3D, SplitMix64(5), amplitude=0.5, band_limit=3),
                state_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(EVOLVE_CONFIG))
    refs = []

    monkeypatch.setattr(cli, "read_field", lambda path: _watch(read_field(path), refs))
    alive = _start_alive_per_step(monkeypatch, refs)
    code = cli_main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--state", str(state_path), "--quiet"])
    assert code == 0
    assert alive == [True, False, False]


def test_evolve_peak_stays_within_six_and_a_half_fields(traced_peak):
    # the start state (2 fields), one block's outputs (2) and the kernel's
    # temporaries; a start state kept alive past the first block adds its 2
    grid = Grid((32, 32, 32), (12.0, 12.0, 12.0))
    spec = ModelSpec("NWE", grid, W)
    peak = traced_peak(lambda: evolve(
        spec, random_state("NWE", grid, SplitMix64(3), amplitude=0.5, band_limit=4),
        T=0.1, dt=0.01, record_every=2))
    assert _complex_fields(grid, peak) <= 6.5


def test_read_field_peak_is_the_table_and_the_components(tmp_path, traced_peak):
    # the body (two complex fields) is read straight into the one array whose
    # rows the state keeps; what remains is the header parse and the file's
    # buffer (0.07 of a field measured).  Reading the body as bytes first
    # adds a second body, and copying the components into the state two
    # more fields.
    grid = Grid((32, 32, 32), (12.0, 12.0, 12.0))
    path = tmp_path / "f.field"
    write_field(random_state("NWE", grid, SplitMix64(3), amplitude=0.5, band_limit=4), path)
    body = 2 * grid.size * np.dtype(np.complex128).itemsize
    peak = traced_peak(lambda: read_field(path))
    assert _complex_fields(grid, peak - body) <= 0.25


def test_the_unit_metric_weight_is_the_scalar_one():
    for tag, grid in CASES:
        weights = symbols(tag, grid).weights
        assert len(weights) == 2
        assert type(weights[1]) is float and weights[1] == 1.0
        assert isinstance(weights[0], np.ndarray) and not weights[0].flags.writeable


def _bitwise(x, y) -> bool:
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("tag,grid", CASES, ids=["NWE-256", "NBE-64", "NWE-16^3"])
def test_scalar_unit_weight_is_bitwise_an_array_of_ones(tag, grid, monkeypatch):
    spec = ModelSpec(tag, grid, W)
    a = random_state(tag, grid, SplitMix64(11), amplitude=0.7, band_limit=4)
    b = random_state(tag, grid, SplitMix64(12), amplitude=0.6, band_limit=5)
    amps = np.linspace(0.2, 1.4, 5)

    def measured():
        return (x_norm_of(tag, grid, a.components), orbit_distance(a, b),
                functionals._gaussian_values(spec, amps, 2.0, lambda e, c: (e, c)))

    scalar = measured()
    table = symbols(tag, grid)
    ones = dataclasses.replace(table, weights=(table.weights[0], np.ones(grid.n)))
    for module in (gridmod, functionals):
        monkeypatch.setattr(module, "symbols", lambda *args: ones)
    with_ones = measured()
    assert _bitwise(scalar[0], with_ones[0])
    assert _bitwise(scalar[1], with_ones[1])
    assert all(_bitwise(x, y) for x, y in zip(scalar[2], with_ones[2]))
