import numpy as np
import pytest

import hylosolve
from hylosolve import grid as gridmod
from hylosolve import (FieldState, Grid, GridMismatch, LatticeShift, NBE, NLS, NWE,
                       NonFinite, NumericalFailure, integrate, orbit_distance, phase_rotate, sharp_seminorm,
                       spectral_derivative, translate)
from hylosolve.grid import random_state, x_norm
from hylosolve.rng import SplitMix64


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((48,), (10.0,))  # not a power of two
    with pytest.raises(ValueError):
        Grid((8,), (10.0,))  # below the minimum resolution
    with pytest.raises(ValueError):
        Grid((16,), (-1.0,))
    with pytest.raises(ValueError):
        Grid((2048, 2048, 2048), (1.0, 1.0, 1.0))  # desk-scale guard
    g = Grid((32, 64), (2.0, 4.0))
    assert g.dim == 2
    assert g.spacing == (2.0 / 32, 4.0 / 64)


def test_integrate_constant_and_zero():
    g = Grid((64,), (10.0,))
    assert integrate(g, np.ones(64)) == pytest.approx(10.0, abs=0)
    assert integrate(g, np.zeros(64)) == 0.0


def test_integrate_sin_squared_spectrally_exact():
    g = Grid((64,), (2 * np.pi,))
    x = g.axis_coordinates(0)
    # closed form: integral of sin^2 over a full period is L/2
    assert integrate(g, np.sin(x) ** 2) == pytest.approx(np.pi, abs=1e-12)


def test_spectral_derivative_eigenfunctions():
    g = Grid((64,), (5.0,))
    k = 2 * np.pi / 5.0
    f = np.sin(k * g.axis_coordinates(0))
    d2 = spectral_derivative(g, f, order=2)
    assert np.abs(d2 + k**2 * f).max() <= 1e-10 * k**2
    # fourth order on a mid-band mode: roundoff scales with (k_max/k)^4 eps
    k3 = 3 * k
    f3 = np.sin(k3 * g.axis_coordinates(0))
    d4 = spectral_derivative(g, f3, axis=0, order=4)
    assert np.abs(d4 - k3**4 * f3).max() <= 1e-10 * k3**4


def test_spectral_derivative_constant_and_errors():
    g = Grid((32,), (3.0,))
    c = np.full(32, 2.5)
    for order in (1, 2, 4):
        assert np.abs(spectral_derivative(g, c, axis=0, order=order)).max() == 0.0
    with pytest.raises(ValueError):
        spectral_derivative(g, c, axis=0, order=3)
    assert not np.iscomplexobj(spectral_derivative(g, c, axis=0, order=2))


def test_parseval_identity():
    g = Grid((64, 32), (3.0, 2.0))
    rng = SplitMix64(5)
    f = rng.symmetric(64 * 32).reshape(64, 32)
    phys = integrate(g, f**2)
    spec = np.fft.fftn(f)
    fourier = g.cell_volume / (64 * 32) * np.sum(np.abs(spec) ** 2)
    assert abs(phys - fourier) <= 1e-10 * phys


def test_translate_group_action_bitwise():
    g = Grid((32, 16), (4.0, 2.0))
    s = random_state(NLS, g, SplitMix64(1), amplitude=1.0)
    full = translate(s, LatticeShift((32, 16)))
    assert all(np.array_equal(a, b) for a, b in zip(full.components, s.components))
    fwd = translate(s, LatticeShift((5, 3)))
    back = translate(fwd, LatticeShift((-5, -3)))
    assert all(np.array_equal(a, b) for a, b in zip(back.components, s.components))
    two_step = translate(translate(s, LatticeShift((3, 1))), LatticeShift((7, 9)))
    one_step = translate(s, LatticeShift((10, 10)))
    assert all(np.array_equal(a, b) for a, b in zip(two_step.components, one_step.components))


def test_translate_commutes_with_derivative():
    g = Grid((64,), (7.0,))
    s = random_state(NLS, g, SplitMix64(2), amplitude=1.0, band_limit=10)
    shift = LatticeShift((11,))
    a = spectral_derivative(g, translate(s, shift).psi, axis=0, order=1)
    b = np.roll(spectral_derivative(g, s.psi, axis=0, order=1), 11)
    assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


def test_sharp_seminorm_zero_and_bump():
    g = Grid((256,), (40.0,))
    assert sharp_seminorm(FieldState.zero(NLS, g)) == 0.0
    # narrow bump: all mass inside one unit ball; oracle is the direct
    # masked summation of |psi|^2
    x = g.axis_coordinates(0)
    bump = np.exp(-((x - 20.0) ** 2) / (2 * 0.15**2))
    state = FieldState.nls(g, bump.astype(complex))
    dens = np.abs(bump) ** 2
    oracle = 0.0
    h = g.spacing[0]
    for center in range(256):
        dist = np.abs(x - x[center])
        dist = np.minimum(dist, 40.0 - dist)
        oracle = max(oracle, dens[dist <= 1.0].sum() * h)
    assert sharp_seminorm(state) == pytest.approx(np.sqrt(oracle), abs=1e-6)


def test_sharp_seminorm_nbe_and_small_box():
    g = Grid((64,), (10.0,))
    u = np.zeros(64)
    u[10] = -3.0
    state = FieldState.nbe(g, u, np.ones(64))
    assert sharp_seminorm(state) == pytest.approx(3.0, abs=1e-12)
    tiny = Grid((16,), (2.0,))
    with pytest.raises(ValueError):
        sharp_seminorm(FieldState.nls(tiny, np.zeros(16, complex)))


def test_orbit_distance_same_orbit_and_zero():
    g = Grid((128,), (20.0,))
    s = random_state(NLS, g, SplitMix64(3), amplitude=1.0, band_limit=12)
    moved = translate(s, LatticeShift((37,)))
    assert orbit_distance(s, moved) <= 1e-12 * x_norm(s)
    assert orbit_distance(s, phase_rotate(s, np.pi / 3)) <= 1e-12 * x_norm(s)
    zero = FieldState.zero(NLS, g)
    assert orbit_distance(s, zero) == pytest.approx(x_norm(s), rel=1e-12)
    assert orbit_distance(s, s) == 0.0


def test_orbit_distance_symmetry_and_guards():
    g = Grid((64,), (9.0,))
    rng = SplitMix64(4)
    a = random_state(NBE, g, rng, amplitude=0.8, band_limit=8)
    b = random_state(NBE, g, rng, amplitude=1.3, band_limit=8)
    dab, dba = orbit_distance(a, b), orbit_distance(b, a)
    assert abs(dab - dba) <= 1e-10 * max(dab, 1.0)
    other = random_state(NLS, Grid((64,), (9.0,)), rng)
    with pytest.raises(GridMismatch):
        orbit_distance(a, other)
    with pytest.raises(GridMismatch):
        orbit_distance(a, random_state(NBE, Grid((128,), (9.0,)), rng))


def _state_built_orbit_distance(a, b):
    """orbit_distance as it was when each candidate difference was a
    FieldState: translate the aligned state, phase-rotate a copy, and take
    x_norm of each difference state."""
    grid = a.grid
    weights = gridmod.symbols(a.model_tag, grid).weights
    corr = np.zeros(grid.n, dtype=np.complex128)
    for ca, cb, w in zip(a.components, b.components, weights):
        corr += w * gridmod.fft(ca, grid.axes) * np.conj(gridmod.fft(cb, grid.axes))
    corr_z = gridmod.ifft(corr, grid.axes) * grid.cell_volume
    gain = np.abs(corr_z) if a.model_tag in gridmod.COMPLEX_MODELS else corr_z.real
    z_best = np.unravel_index(int(np.argmax(gain)), grid.n)
    aligned = translate(b, LatticeShift(tuple(int(v) for v in z_best)))
    candidates = [aligned]
    if a.model_tag in gridmod.COMPLEX_MODELS and abs(corr_z[z_best]) > 0:
        phase = corr_z[z_best] / abs(corr_z[z_best])
        candidates.append(aligned.replace_components(
            tuple(phase * c for c in aligned.components)))
    best = np.inf
    for cand in candidates:
        diff = a.replace_components(tuple(
            x - y for x, y in zip(a.components, cand.components)))
        best = min(best, x_norm(diff))
    return best


@pytest.mark.parametrize("tag,grid", [
    (NLS, Grid((128,), (20.0,))), (NWE, Grid((128,), (20.0,))), (NBE, Grid((128,), (20.0,))),
    (NWE, Grid((16, 16, 16), (8.0, 8.0, 8.0))),
], ids=["NLS", "NWE", "NBE", "NWE-16^3"])
def test_orbit_distance_bitwise_equal_to_the_state_built_form(tag, grid, monkeypatch):
    rng = SplitMix64(7)
    a = random_state(tag, grid, rng, amplitude=0.7, band_limit=4)
    b = random_state(tag, grid, rng, amplitude=0.5, band_limit=4)
    shifted = translate(a, LatticeShift((5,) * grid.dim))
    pairs = [(a, b), (b, a), (a, a), (a, shifted)]
    if tag != NBE:
        pairs.append((a, phase_rotate(shifted, 0.4)))
    expected = [_state_built_orbit_distance(x, y) for x, y in pairs]
    builds = []
    init = FieldState.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldState, "__init__", counting_init)
    got = [orbit_distance(x, y) for x, y in pairs]
    assert not builds  # the differences are measured as component arrays
    assert [float(d).hex() for d in got] == [float(d).hex() for d in expected]
    assert got[2] == 0.0


def test_x_norm_homogeneity_and_resummation():
    g = Grid((64,), (11.0,))
    s = random_state(NLS, g, SplitMix64(6), amplitude=0.9, band_limit=10)
    doubled = s.replace_components(tuple(2.0 * c for c in s.components))
    assert x_norm(doubled) == pytest.approx(2.0 * x_norm(s), rel=1e-12)
    # physical-space re-summation oracle
    grad = spectral_derivative(g, s.psi, axis=0, order=1)
    oracle = np.sqrt(integrate(g, np.abs(grad) ** 2 + np.abs(s.psi) ** 2))
    assert x_norm(s) == pytest.approx(oracle, rel=1e-12)
    assert x_norm(FieldState.zero(NLS, g)) == 0.0


def test_x_norm_matches_grid_version_and_scaling():
    assert hylosolve.x_norm is x_norm
    state = random_state("NWE", Grid((64,), (20.0,)), SplitMix64(14), amplitude=0.7,
                         band_limit=9)
    tripled = state.replace_components(tuple(3.0 * c for c in state.components))
    assert x_norm(tripled) == pytest.approx(3.0 * x_norm(state), rel=1e-12)


def test_field_state_validation():
    g = Grid((16,), (3.0,))
    with pytest.raises(ValueError):
        FieldState.nls(g, np.full(16, np.nan, complex))
    with pytest.raises(ValueError):
        FieldState.nls(g, np.zeros(8, complex))
    with pytest.raises(ValueError):
        FieldState.nbe(g, np.zeros(16) + 1j, np.zeros(16))
    state = FieldState.nls(g, np.ones(16, complex))
    with pytest.raises(ValueError):
        state.components[0][0] = 5.0  # stored arrays are read-only


def test_non_finite_samples_raise_non_finite():
    # a numerical failure that is still the ValueError field validation raised
    assert issubclass(NonFinite, NumericalFailure) and issubclass(NonFinite, ValueError)
    g = Grid((16,), (3.0,))
    psi = np.zeros(16, complex)
    psi[3] = complex(0.0, np.inf)
    with pytest.raises(NonFinite):
        FieldState.nls(g, psi)


def _allocating_noise(grid, bits, band_limit, rms, complex_valued):
    """band_limited_noise as it was before the in-place buffer: separate
    real and imaginary planes, a complex sum, a fresh low-pass and a scaled
    copy."""
    batch = bits.shape[:-1]
    planes = (2.0 * ((bits >> np.uint64(11)).astype(np.float64) * 2.0**-53) - 1.0).reshape(
        batch + (-1, grid.size))
    raw = planes[..., 0, :]
    if complex_valued:
        raw = raw + 1j * planes[..., 1, :]
    out = gridmod.low_pass(grid, raw.reshape(batch + grid.n), band_limit)
    out = out if complex_valued else out.real
    current = np.sqrt(np.mean(np.abs(out) ** 2, axis=grid.axes))
    scale = np.divide(rms, current, out=np.ones_like(current), where=current > 0.0)
    return out * np.reshape(scale, batch + (1,) * grid.dim)


@pytest.mark.parametrize("grid", [Grid((512,), (40.0,)), Grid((32, 16), (5.0, 3.0)),
                                  Grid((32, 32, 32), (16.0, 16.0, 16.0))],
                         ids=["1d-512", "2d-32x16", "3d-32"])
@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
def test_band_limited_noise_matches_the_allocating_body(grid, complex_valued):
    rows = 3
    per_field = grid.size * (2 if complex_valued else 1)
    bits = SplitMix64(23).next_block_u64(rows * (per_field + 1)).reshape(rows, -1)[:, 1:]
    bits[1] = np.uint64(2**63)  # every draw 0.0: a row whose rms is 0
    rms = np.array([0.5, 2.0, 1.5])
    for band in (min(grid.n) // 4, np.array([2, 3, min(grid.n) // 4])):
        got = gridmod.band_limited_noise(grid, bits, band, rms, complex_valued)
        want = _allocating_noise(grid, bits, band, rms, complex_valued)
        assert got.dtype == want.dtype and got.shape == want.shape == (rows,) + grid.n
        assert got.tobytes() == want.tobytes()
        assert not np.any(got[1])
    # one field, scalar rms and band limit, as random_band_limited draws it
    one = gridmod.band_limited_noise(grid, bits[0], 2, 0.7, complex_valued)
    assert one.tobytes() == _allocating_noise(grid, bits[0], 2, 0.7, complex_valued).tobytes()


def test_low_pass_into_its_own_input():
    g = Grid((64, 32), (4.0, 2.0))
    field = SplitMix64(4).symmetric(2 * g.size).reshape((2,) + g.n) + 0j
    want = gridmod.low_pass(g, field, np.array([3, 5]))
    got = gridmod.low_pass(g, field, np.array([3, 5]), out=field)
    assert got is field and got.tobytes() == want.tobytes()
