"""The block-formatted field writer against a one-row-at-a-time reference."""

import json

import numpy as np
import pytest

from hylosolve import fileio
from hylosolve.fileio import read_field, write_field
from hylosolve.grid import COMPLEX_MODELS, COMPONENT_NAMES, Grid, random_state
from hylosolve.rng import SplitMix64


def write_field_per_row(state, path):
    """The field file format written one grid point at a time."""
    grid = state.grid
    header = {
        "model_tag": state.model_tag,
        "dim": grid.dim,
        "n": list(grid.n),
        "box_length": list(grid.box_length),
        "components": list(COMPONENT_NAMES[state.model_tag]),
    }
    complex_valued = state.model_tag in COMPLEX_MODELS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        flat = [c.reshape(-1) for c in state.components]
        for lin, idx in enumerate(np.ndindex(*grid.n)):
            cells = [str(i) for i in idx]
            for comp in flat:
                val = comp[lin]
                if complex_valued:
                    cells += ["%.17g" % val.real, "%.17g" % val.imag]
                else:
                    cells.append("%.17g" % val)
            fh.write(",".join(cells) + "\n")


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
def test_writer_matches_per_row_reference(name, tmp_path, monkeypatch):
    tag, grid, edit = CASES[name]
    state = random_state(tag, grid, SplitMix64(81), amplitude=0.6, band_limit=4)
    if edit is not None:
        state = edit(state)
    if grid.dim == 3:
        # 4096 rows in blocks of 1000: several blocks, the last one partial
        monkeypatch.setattr(fileio, "_ROW_BLOCK", 1000)
    write_field(state, tmp_path / "block.txt")
    write_field_per_row(state, tmp_path / "row.txt")
    assert (tmp_path / "block.txt").read_bytes() == (tmp_path / "row.txt").read_bytes()
    back = read_field(tmp_path / "block.txt")
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back.components, state.components))

