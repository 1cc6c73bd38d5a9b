"""The single transform owner, grid.fft/ifft, and the split-step kernels
that run on it, against the plain numpy.fft.fftn forms they replace."""

import ast
from pathlib import Path

import numpy as np
import pytest

from hylosolve import DoublePower, Grid, ModelSpec, Saturating, SinglePower, WSpec
from hylosolve import grid as gridmod
from hylosolve.grid import random_state, symbols
from hylosolve.models import _propagator
from hylosolve.nonlinearity import w_prime_over_s
from hylosolve.rng import SplitMix64

DOUBLE_POWER = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))
# (spec, rows): the rows are evolved as one stack
CASES = {
    "NLS-1d": (ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))), 2),
    "NLS-2d": (ModelSpec("NLS", Grid((32, 32), (20.0, 20.0)),
                         WSpec(1.0, SinglePower(1.0, 3.0))), 1),
    "NWE-1d": (ModelSpec("NWE", Grid((256,), (40.0,)), DOUBLE_POWER), 1),
    "NBE-1d": (ModelSpec("NBE", Grid((256,), (40.0,)), WSpec(1.0, Saturating(0.0, 0.5))), 1),
    "NWE-3d": (ModelSpec("NWE", Grid((16, 16, 16), (12.0, 12.0, 12.0)), DOUBLE_POWER), 1),
    # at and above grid.SLAB_FLOOR: transforms and kernel passes in two slabs
    "NWE-3d-32": (ModelSpec("NWE", Grid((32, 32, 32), (16.0, 16.0, 16.0)), DOUBLE_POWER), 1),
    "NLS-2d-256x128": (ModelSpec("NLS", Grid((256, 128), (40.0, 20.0)),
                                 WSpec(1.0, SinglePower(1.0, 3.0))), 1),
}
DT = 1e-2
STEPS = 50


def _stack(spec, rows):
    states = [random_state(spec.model_tag, spec.grid, SplitMix64(80 + r), amplitude=1.0,
                           band_limit=6) for r in range(rows)]
    return tuple(np.stack(cs) for cs in zip(*(st.components for st in states)))


def fftn_nls_block(spec, psi, dt, steps):
    """The NLS block on numpy.fft.fftn, the spectrum multiplied as lin * F,
    each phase factor a complex exp."""
    w, axes = spec.w, spec.grid.axes
    lin = np.exp(-0.5j * dt * symbols(spec.model_tag, spec.grid).kinetic)

    def rotate(psi, coef):
        rot = coef * w_prime_over_s(w, np.abs(psi))
        np.exp(rot, out=rot)
        return np.multiply(rot, psi, out=rot)

    psi = rotate(psi, -0.25j * dt)
    for i in range(steps):
        psi = np.fft.ifftn(lin * np.fft.fftn(psi, axes=axes), axes=axes)
        psi = rotate(psi, -0.5j * dt if i < steps - 1 else -0.25j * dt)
    return (psi,)


def fftn_wave_block(spec, a, b, dt, steps):
    """The Fourier-resident NWE/NBE block on numpy.fft.fftn/ifftn."""
    w, axes = spec.w, spec.grid.axes
    real = spec.model_tag == "NBE"
    lam = np.sqrt(symbols(spec.model_tag, spec.grid).kinetic + w.m_sq)
    cos, sinc = np.cos(lam * dt), dt * np.sinc(lam * dt / np.pi)
    neg_lam_sin = -(lam * np.sin(lam * dt))

    def force_factor(a):
        factor = w_prime_over_s(w, np.abs(a))
        return np.subtract(factor, w.m_sq, out=factor)

    def kicked(b, a, tau):
        kick = force_factor(a) * a
        np.multiply(tau, kick, out=kick)
        return np.subtract(b, kick, out=kick)

    fa = np.fft.fftn(a, axes=axes, out=np.empty(a.shape, np.complex128))
    fb = np.fft.fftn(kicked(b, a, 0.5 * dt), axes=axes, out=np.empty(a.shape, np.complex128))
    field = np.empty(a.shape, np.complex128)
    for i in range(steps):
        mixed = np.multiply(neg_lam_sin, fa)
        np.multiply(sinc, fb, out=field)
        np.multiply(cos, fa, out=fa)
        fa += field
        np.multiply(cos, fb, out=fb)
        fb += mixed
        a = np.fft.ifftn(fa, axes=axes, out=field)
        if real:
            a = a.real
        if i < steps - 1:
            np.multiply(force_factor(a), a, out=field)
            np.fft.fftn(field, axes=axes, out=field)
            field *= dt
            fb -= field
    b = np.fft.ifftn(fb, axes=axes, out=fb)
    return (a, kicked(b.real if real else b, a, 0.5 * dt))


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_block_is_bitwise_the_fftn_block(name):
    spec, rows = CASES[name]
    comps = _stack(spec, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _propagator(spec, DT).step(comps, STEPS)
        want = (fftn_nls_block(spec, comps[0], DT, STEPS) if spec.model_tag == "NLS"
                else fftn_wave_block(spec, *comps, DT, STEPS))
    assert len(got) == len(want)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("grid", [Grid((512,), (40.0,)), Grid((16, 16, 16), (8.0,) * 3)],
                         ids=["1d", "3d"])
def test_owner_is_bitwise_fftn_on_stacks(grid):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((3,) + grid.n) + 1j * rng.standard_normal((3,) + grid.n)
    spec = gridmod.fft(values, grid.axes)
    assert spec.tobytes() == np.fft.fftn(values, axes=grid.axes).tobytes()
    back = gridmod.ifft(spec, grid.axes)
    assert back.tobytes() == np.fft.ifftn(spec, axes=grid.axes).tobytes()
    out = np.empty_like(values)
    assert gridmod.fft(values, grid.axes, out=out) is out
    assert out.tobytes() == spec.tobytes()
    assert gridmod.ifft(out, grid.axes, out=out) is out
    assert out.tobytes() == back.tobytes()


SRC = Path(__file__).resolve().parents[1] / "src" / "hylosolve"
# (module file, function) pairs that may call numpy.fft directly
OWNERS = {("grid.py", "fft"), ("grid.py", "ifft")}


def _direct_transforms(path: Path) -> list[str]:
    """Every np.fft.<name> use in a module outside the owners, other than
    fftfreq, and every import that binds numpy.fft under another name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owned = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and (path.name, node.name) in OWNERS]

    def in_owner(node):
        return any(f.lineno <= node.lineno <= f.end_lineno for f in owned)

    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "np"
                and node.value.attr == "fft" and node.attr != "fftfreq"
                and not in_owner(node)):
            found.append(f"{path.name}:{node.lineno} np.fft.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.fft")
                or (node.module == "numpy" and any(a.name == "fft" for a in node.names))):
            found.append(f"{path.name}:{node.lineno} from {node.module} import ...")
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft")
                                                  for a in node.names):
            found.append(f"{path.name}:{node.lineno} import numpy.fft")
    return found


def test_every_transform_goes_through_the_owner():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "grid.py" for p in modules)
    found = [use for path in modules for use in _direct_transforms(path)]
    assert found == []
