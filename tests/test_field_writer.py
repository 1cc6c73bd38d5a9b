"""The field writer against a reference built one component at a time: the
header line, then each component's little-endian float64 bytes."""

import json

import numpy as np
import pytest

from hylosolve.fileio import read_field, write_field
from hylosolve.grid import COMPLEX_MODELS, COMPONENT_NAMES, Grid, random_state
from hylosolve.rng import SplitMix64


def field_bytes_per_component(state) -> bytes:
    """The field file format: the sorted JSON header line, then each
    component's C-order samples as '<c16' (NLS, NWE) or '<f8' (NBE)."""
    grid = state.grid
    header = {
        "model_tag": state.model_tag,
        "dim": grid.dim,
        "n": list(grid.n),
        "box_length": list(grid.box_length),
        "components": list(COMPONENT_NAMES[state.model_tag]),
        "encoding": "float64-le",
    }
    dtype = "<c16" if state.model_tag in COMPLEX_MODELS else "<f8"
    line = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    return line + b"".join(np.ascontiguousarray(c, dtype).tobytes() for c in state.components)


def _signed_zeros(state):
    psi = state.psi.copy()
    psi.real[::3] = -0.0
    psi.imag[1::5] = -0.0
    psi.flat[7] = complex(-0.0, -0.0)
    return state.replace_components((psi,))


CASES = {
    "NBE-1d": ("NBE", Grid((256,), (40.0,)), None),
    "NLS-2d-signed-zeros": ("NLS", Grid((32, 16), (20.0, 10.0)), _signed_zeros),
    "NWE-3d": ("NWE", Grid((16, 16, 16), (12.0, 12.0, 12.0)), None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_matches_per_row_reference(name, tmp_path):
    tag, grid, edit = CASES[name]
    state = random_state(tag, grid, SplitMix64(81), amplitude=0.6, band_limit=4)
    if edit is not None:
        state = edit(state)
    path = tmp_path / "state.field"
    write_field(state, path)
    written = path.read_bytes()
    assert written == field_bytes_per_component(state)
    itemsize = 16 if tag in COMPLEX_MODELS else 8
    assert len(written) - len(written.split(b"\n", 1)[0]) - 1 == (
        len(state.components) * grid.size * itemsize)
    back = read_field(path)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back.components, state.components))


def test_nbe_state_is_read_without_a_copy(tmp_path, traced_peak):
    # the two components are the rows of the one array the body is read
    # into; a state that copied them would hold a second body
    grid = Grid((64, 64), (20.0, 20.0))
    state = random_state("NBE", grid, SplitMix64(82), amplitude=0.6, band_limit=4)
    path = tmp_path / "nbe.field"
    write_field(state, path)
    back = read_field(path)
    u, v = back.components
    assert u.base is not None and u.base is v.base
    assert u.base.shape == (2,) + grid.n
    body = 2 * grid.size * np.dtype(np.float64).itemsize
    assert traced_peak(lambda: read_field(path)) < body + grid.size * 8 // 2
