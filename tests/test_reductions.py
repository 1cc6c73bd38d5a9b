"""The reduction owners on the descent path call numpy's ufunc methods
(np.add.reduce, ndarray.all/any) instead of the np.sum/np.all/np.any
wrappers, which add about 3 us a call.  They must give the wrappers'
results bitwise, and the wrappers must not come back into the modules the
descent runs through."""

import ast
from pathlib import Path

import numpy as np
import pytest

from hylosolve import Grid
from hylosolve.exceptions import NonFinite
from hylosolve.grid import integrate, require_finite, spectral_sum, symbols, transform
from hylosolve.models import l2_inner_of

GRIDS = {
    "1d": ((), Grid((256,), (40.0,))),
    "stack-2d": ((3,), Grid((16, 32), (8.0, 12.0))),
    "3d": ((), Grid((16, 16, 16), (12.0, 12.0, 12.0))),
}


def _fields(batch, grid, seed=5):
    """A real field, a complex field and the .real view of a complex one."""
    rng = np.random.default_rng(seed)
    shape = batch + grid.n
    real = rng.standard_normal(shape)
    cplx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return {"real": real, "complex": cplx, "real-view": cplx.real}


def old_integrate(grid, values):
    return grid.cell_volume * np.sum(np.asarray(values).real, axis=grid.axes)


def old_spectral_sum(grid, multiplier, spec):
    return grid.cell_volume / grid.size * np.sum(multiplier * np.abs(spec) ** 2, axis=grid.axes)


def old_l2_inner_of(grid, a, b):
    total = 0.0
    for ca, cb in zip(a, b):
        total += float(np.sum((ca * np.conj(cb)).real))
    return grid.cell_volume * total


def old_is_finite(values):
    return bool(np.all(np.isfinite(values)))


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_integrate_and_spectral_sum_are_bitwise_np_sum(name):
    batch, grid = GRIDS[name]
    weight = symbols("NLS", grid).weights[0]
    for kind, values in _fields(batch, grid).items():
        assert _same(integrate(grid, values), old_integrate(grid, values)), kind
        spec = transform(grid, values)
        assert _same(spectral_sum(grid, weight, spec), old_spectral_sum(grid, weight, spec)), kind


@pytest.mark.parametrize("name", ["1d", "3d"])
def test_l2_inner_of_is_bitwise_np_sum(name):
    batch, grid = GRIDS[name]
    f, g = _fields(batch, grid, 5), _fields(batch, grid, 6)
    pairs = [((f["complex"], f["real"]), (g["complex"], g["real"])),
             ((f["real-view"],), (g["real-view"],)),
             ((f["complex"],), (f["complex"],))]
    for a, b in pairs:
        got, want = l2_inner_of(grid, a, b), old_l2_inner_of(grid, a, b)
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("bad", [None, np.inf, np.nan])
def test_require_finite_agrees_with_np_all(name, bad):
    batch, grid = GRIDS[name]
    for kind, values in _fields(batch, grid).items():
        values = values.copy()
        if bad is not None:
            values.reshape(-1)[7] = bad
        if old_is_finite(values):
            require_finite(values)
        else:
            with pytest.raises(NonFinite):
                require_finite(values)
        assert old_is_finite(values) == (bad is None), kind


def test_require_finite_sees_a_bad_imaginary_part():
    values = np.ones(32, np.complex128)
    values[3] = complex(1.0, np.nan)
    with pytest.raises(NonFinite):
        require_finite(values)


SRC = Path(__file__).resolve().parents[1] / "src" / "hylosolve"
# modules on the descent path: every evaluation and iterate goes through them
GUARDED = ("grid.py", "models.py", "minimize.py")
WRAPPERS = {"sum", "all", "any", "array_equal"}


def wrapper_calls(source: str, name: str = "<source>") -> list[str]:
    """Every call of np.sum, np.all, np.any or np.array_equal (as np.* or
    numpy.*) in source, as 'name:line np.<function>'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy") and func.attr in WRAPPERS):
            found.append(f"{name}:{node.lineno} np.{func.attr}")
    return found


def test_the_guard_sees_a_wrapper_call():
    source = ("import numpy as np\n"
              "x = np.add.reduce(a, axis=None) + np.sum(a)\n"
              "ok = a.all() and np.isfinite(a).all()\n"
              "bad = numpy.any(a) or np.array_equal(a, b)\n")
    assert wrapper_calls(source) == ["<source>:2 np.sum", "<source>:4 np.any",
                                     "<source>:4 np.array_equal"]


def test_descent_path_calls_no_reduction_wrapper():
    found = [call for name in GUARDED
             for call in wrapper_calls((SRC / name).read_text(encoding="utf-8"), name)]
    assert found == []
