"""The single transform owner, grid.fft/ifft, and the split-step kernels
that run on it, against the plain numpy.fft.fftn forms they replace."""

import ast
from pathlib import Path

import numpy as np
import pytest

from hylosolve import DoublePower, Grid, ModelSpec, Saturating, SinglePower, WSpec
from hylosolve import grid as gridmod
from hylosolve.grid import random_state, symbols
from hylosolve.dynamics import evolve
from hylosolve.models import _propagator
from hylosolve.nonlinearity import w_prime_over_s
from hylosolve.rng import SplitMix64

DOUBLE_POWER = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))
# (spec, rows): the rows are evolved as one stack
CASES = {
    "NLS-1d": (ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))), 2),
    # the double power builds W'(s)/s in place over |psi|: the two must not share memory
    "NLS-1d-double": (ModelSpec("NLS", Grid((512,), (40.0,)), DOUBLE_POWER), 2),
    "NLS-1d-saturating": (ModelSpec("NLS", Grid((512,), (40.0,)),
                                    WSpec(1.0, Saturating(0.0, 0.5))), 2),
    "NLS-2d": (ModelSpec("NLS", Grid((32, 32), (20.0, 20.0)),
                         WSpec(1.0, SinglePower(1.0, 3.0))), 1),
    "NLS-2d-rows": (ModelSpec("NLS", Grid((32, 32), (20.0, 20.0)),
                              WSpec(1.0, SinglePower(1.0, 3.0))), 2),
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


def test_nls_block_peak_memory_is_its_work_arrays(traced_peak):
    # the spectrum, the phase factor, the output and the stack's copy of the
    # kinetic phase: four stacks plus the transforms' line buffers (4.14);
    # phase factors built from fresh temporaries peaked at 4.63
    spec, rows = CASES["NLS-1d"]
    comps = _stack(spec, rows)
    prop = _propagator(spec, DT)
    peak = traced_peak(lambda: prop.step(comps, STEPS))
    assert peak <= 4.25 * comps[0].nbytes


def test_a_row_that_overflows_mid_block_stops_alone():
    # W'(s)/s = 1 - s^38 overflows above about 1.3e8, and the phase it
    # gives turns the field non-finite; the second row, whose huge phases
    # scramble it, gets there inside its fourth record block
    spec = ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 40.0)))
    healthy, wild = (random_state("NLS", spec.grid, SplitMix64(seed), amplitude=amp,
                                  band_limit=6) for seed, amp in ((80, 1.0), (81, 2.98e7)))
    every = 10
    # the reference: the complex-exp block, a record block at a time
    psi, healthy_blocks = wild.psi[None], 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(psi := fftn_nls_block(spec, psi, DT, every)[0]).all():
            healthy_blocks += 1
        traces = evolve(spec, [healthy, wild], T=1.0, dt=DT, record_every=every)
    assert healthy_blocks == 3
    assert traces[1].blew_up
    assert traces[1].times.tolist() == [k * every * DT for k in range(healthy_blocks + 1)]
    solo = evolve(spec, healthy, T=1.0, dt=DT, record_every=every)
    assert not traces[0].blew_up
    for name in ("times", "energy", "charge", "sharp", "xnorm"):
        assert getattr(traces[0], name).tobytes() == getattr(solo, name).tobytes()
    assert traces[0].final_state.psi.tobytes() == solo.final_state.psi.tobytes()


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


def _one_axis_inputs():
    rng = np.random.default_rng(5)

    def plane(rows, n):
        return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))

    return {
        "complex-stack": plane(3, 256),
        "complex-row": plane(1, 256)[0],
        "real-stack": rng.standard_normal((3, 256)),
        "real-row": rng.standard_normal(256),
        "strided-samples": plane(3, 512)[:, ::2],
        "strided-rows": plane(6, 256)[::2],
        "real-strided": rng.standard_normal((3, 512))[:, 1::2],
        "list-row": rng.standard_normal(256).tolist(),
        "list-stack": plane(2, 256).tolist(),
    }


ONE_AXIS_INPUTS = _one_axis_inputs()


@pytest.mark.parametrize("name", sorted(ONE_AXIS_INPUTS))
@pytest.mark.parametrize("owner,reference", [(gridmod.fft, np.fft.fft),
                                             (gridmod.ifft, np.fft.ifft)], ids=["fft", "ifft"])
def test_one_axis_owner_is_bitwise_numpys_1d_transform(name, owner, reference):
    values = ONE_AXIS_INPUTS[name]
    want = reference(values, axis=-1)
    got = owner(values, (-1,))
    assert (got.dtype, got.shape) == (np.complex128, want.shape)
    assert got.tobytes() == want.tobytes()
    out = np.empty(np.shape(values), np.complex128)
    assert owner(values, (-1,), out=out) is out
    assert out.tobytes() == want.tobytes()
    # in place, into a contiguous array and into a strided view of a larger one
    inplace = np.array(values, np.complex128)
    assert owner(inplace, (-1,), out=inplace) is inplace
    assert inplace.tobytes() == want.tobytes()
    wide = np.zeros(np.shape(values)[:-1] + (2 * np.shape(values)[-1],), np.complex128)
    view = wide[..., ::2]
    view[...] = values
    assert owner(view, (-1,), out=view) is view
    assert view.tobytes() == want.tobytes()
    assert not wide[..., 1::2].any()


def test_numpy_still_has_the_pocketfft_gufuncs_the_owner_calls():
    umath = getattr(np.fft, "_pocketfft_umath", None)
    found = {name: getattr(umath, name, None) for name in ("fft", "ifft")}
    assert all(isinstance(f, np.ufunc) and (f.nin, f.nout) == (2, 1) and f.signature
               for f in found.values()), (
        f"numpy {np.__version__} no longer has the gufuncs numpy.fft._pocketfft_umath."
        f"fft/ifft(values, factor, out=) (found {found}); grid.fft/ifft call them over "
        "one axis and must move to the transform numpy.fft.fft makes now")


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
