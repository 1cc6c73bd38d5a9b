import numpy as np
import pytest

from hylosolve import (FieldState, Grid, LatticeShift, ModelSpec,
                       SinglePower, Saturating, WSpec, charge, energy,
                       evolve_step, grad_charge, grad_energy, integrate,
                       phase_rotate, translate)
from hylosolve.functionals import gaussian_profile, gaussian_state
from hylosolve.grid import random_state, x_norm as state_x_norm
from hylosolve.models import l2_inner, time_reverse
from hylosolve.rng import SplitMix64

GRID = Grid((64,), (20.0,))
W_FOCUS = WSpec(1.0, SinglePower(1.0, 4.0))

SPECS = {
    "NLS": ModelSpec("NLS", GRID, W_FOCUS),
    "NWE": ModelSpec("NWE", GRID, W_FOCUS),
    "NBE": ModelSpec("NBE", GRID, WSpec(1.0, Saturating(0.0, 0.5))),
}


def _perturbed(state, direction, eps):
    return state.replace_components(tuple(
        a + eps * b for a, b in zip(state.components, direction.components)))


@pytest.mark.parametrize("tag", list(SPECS))
def test_zero_state_normalization(tag):
    spec = SPECS[tag]
    zero = spec.zero_state()
    assert energy(spec, zero) == 0.0
    assert charge(spec, zero) == 0.0
    for g in (grad_energy(spec, zero), grad_charge(spec, zero)):
        assert all(np.abs(c).max() == 0.0 for c in g.components)


def test_nls_plane_wave_energy():
    g = Grid((64,), (10.0,))
    spec = ModelSpec("NLS", g, WSpec(1.0, SinglePower(0.0, 4.0)))
    c0, k = 0.8, 2 * np.pi / 10.0
    state = FieldState.nls(g, c0 * np.exp(1j * k * g.axis_coordinates(0)))
    expected = 10.0 * (0.5 * c0**2 * k**2 + 0.5 * c0**2)
    assert energy(spec, state) == pytest.approx(expected, rel=1e-10)


def test_nbe_bending_energy():
    g = Grid((64,), (10.0,))
    spec = ModelSpec("NBE", g, WSpec(0.0, Saturating(0.0, 1e-12)))  # W ~ 0
    k = 2 * np.pi / 10.0
    u = np.sin(k * g.axis_coordinates(0))
    state = FieldState.nbe(g, u, np.zeros(64))
    expected = 0.5 * k**4 * 10.0 / 2.0
    assert energy(spec, state) == pytest.approx(expected, rel=1e-10)


def test_nls_gaussian_charge():
    g = Grid((512,), (40.0,))
    spec = ModelSpec("NLS", g, W_FOCUS)
    amp, sigma = 0.7, 1.0
    state = FieldState.nls(g, gaussian_profile(g, amp, sigma).astype(complex))
    assert charge(spec, state) == pytest.approx(amp**2 * sigma * np.sqrt(np.pi), rel=1e-8)


def test_nwe_standing_pair_charge():
    spec = SPECS["NWE"]
    u = gaussian_profile(GRID, 0.5, 2.0)
    omega = 0.8
    state = FieldState.nwe(GRID, u, -1j * omega * u)
    expected = -omega * integrate(GRID, u**2)
    assert charge(spec, state) == pytest.approx(expected, rel=1e-12)


# band limit 32 on the 64-point grid keeps every mode, the Nyquist mode included
@pytest.mark.parametrize("tag,band_limit",
                         [pytest.param(tag, 8, id=tag) for tag in SPECS]
                         + [pytest.param(tag, 32, id=f"{tag}-full-spectrum") for tag in SPECS])
def test_gradients_match_finite_differences(tag, band_limit):
    spec = SPECS[tag]
    rng = SplitMix64(100).split(f"fd-{tag}")
    eps = 1e-5
    for trial in range(100):
        amp = 0.2 + 1.3 * rng.uniform()
        state = random_state(tag, GRID, rng, amplitude=amp, band_limit=band_limit)
        direction = random_state(tag, GRID, rng, amplitude=0.5, band_limit=band_limit)
        for func, grad in ((energy, grad_energy), (charge, grad_charge)):
            g = grad(spec, state)
            fd = (func(spec, _perturbed(state, direction, eps))
                  - func(spec, _perturbed(state, direction, -eps))) / (2 * eps)
            ip = l2_inner(g, direction)
            assert abs(ip - fd) <= 1e-5 * (1.0 + abs(ip))


def test_nls_quadratic_constant_gradient():
    # constant field: the Laplacian vanishes, so the energy gradient is the
    # pure potential force m^2 c (for the pairing under which grad C = 2 psi)
    g = Grid((32,), (8.0,))
    spec = ModelSpec("NLS", g, WSpec(1.0, SinglePower(0.0, 4.0)))
    c = 0.7
    state = FieldState.nls(g, np.full(32, c, complex))
    ge = grad_energy(spec, state)
    assert np.abs(ge.psi - 1.0 * c).max() <= 1e-13
    gc = grad_charge(spec, state)
    assert np.abs(gc.psi - 2.0 * c).max() == 0.0


@pytest.mark.parametrize("tag", list(SPECS))
def test_shift_invariance(tag):
    spec = SPECS[tag]
    rng = SplitMix64(7).split(tag)
    for _ in range(50):
        state = random_state(tag, GRID, rng, amplitude=0.5 + rng.uniform(), band_limit=10)
        z = int(rng.integers(1, 64)[0])
        moved = translate(state, LatticeShift((z,)))
        for func in (energy, charge):
            a, b = func(spec, state), func(spec, moved)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_disjoint_support_splitting():
    g = Grid((512,), (40.0,))
    spec = ModelSpec("NLS", g, W_FOCUS)
    x = g.axis_coordinates(0)
    # compact windows around L/4 and 3L/4, separation far above two cells
    left = np.where(np.abs(x - 10.0) < 7.0, gaussian_profile(g, 1.0, 1.2, (10.0,)), 0.0)
    right = np.where(np.abs(x - 30.0) < 7.0, gaussian_profile(g, 0.8, 1.5, (30.0,)), 0.0)
    assert np.count_nonzero(left * right) == 0
    u = FieldState.nls(g, left.astype(complex))
    w = FieldState.nls(g, right.astype(complex))
    both = FieldState.nls(g, (left + right).astype(complex))
    # charge is pointwise-additive on disjoint supports: quadratic part exact
    assert charge(spec, both) == pytest.approx(charge(spec, u) + charge(spec, w), rel=1e-14)
    e_both = energy(spec, both)
    assert e_both == pytest.approx(energy(spec, u) + energy(spec, w),
                                   rel=1e-10, abs=1e-12)


def test_evolve_step_zero_fixed_point():
    for tag, spec in SPECS.items():
        zero = spec.zero_state()
        out = evolve_step(spec, zero, 1e-2)
        assert all(np.array_equal(a, b) for a, b in zip(out.components, zero.components))
    with pytest.raises(ValueError):
        evolve_step(SPECS["NLS"], SPECS["NLS"].zero_state(), 0.0)


def test_linear_nls_exact_phase():
    g = Grid((64,), (10.0,))
    spec = ModelSpec("NLS", g, WSpec(1.0, SinglePower(0.0, 4.0)))
    k = 2 * np.pi / 10.0 * 2
    psi0 = np.exp(1j * k * g.axis_coordinates(0))
    state = FieldState.nls(g, psi0)
    dt, steps = 1e-2, 100
    for _ in range(steps):
        state = evolve_step(spec, state, dt)
    exact = psi0 * np.exp(-1j * (k**2 + 1.0) * (dt * steps) / 2.0)
    assert np.abs(state.psi - exact).max() <= 1e-10


def test_linear_nwe_normal_mode():
    g = Grid((64,), (10.0,))
    spec = ModelSpec("NWE", g, WSpec(1.0, SinglePower(0.0, 4.0)))
    k = 2 * np.pi / 10.0 * 3
    x = g.axis_coordinates(0)
    state = FieldState.nwe(g, np.cos(k * x).astype(complex), np.zeros(64, complex))
    dt, steps = 1e-2, 100
    for _ in range(steps):
        state = evolve_step(spec, state, dt)
    omega = np.sqrt(k**2 + 1.0)
    assert np.abs(state.psi - np.cos(k * x) * np.cos(omega * dt * steps)).max() <= 1e-8


def test_nls_split_step_conserves_charge():
    spec = SPECS["NLS"]
    state = random_state("NLS", GRID, SplitMix64(9), amplitude=0.5, band_limit=8)
    c0 = charge(spec, state)
    for _ in range(1000):
        state = evolve_step(spec, state, 1e-3)
    assert abs(charge(spec, state) - c0) <= 1e-12 * abs(c0)


def test_energy_drift_is_second_order():
    g = Grid((256,), (40.0,))
    spec = ModelSpec("NLS", g, W_FOCUS)
    init = gaussian_state(spec, 1.0, 1.5)
    e0 = energy(spec, init)
    drifts = []
    for dt in (2e-3, 1e-3):
        state = init
        worst = 0.0
        for step in range(int(10.0 / dt)):
            state = evolve_step(spec, state, dt)
            if step % 50 == 0:
                worst = max(worst, abs(energy(spec, state) - e0))
        drifts.append(worst / max(1.0, abs(e0)))
    ratio = drifts[0] / drifts[1]
    assert 3.0 <= ratio <= 5.0  # halving dt quarters the drift, +-25%


def test_phase_covariance_of_evolution():
    spec = SPECS["NLS"]
    state = random_state("NLS", GRID, SplitMix64(12), amplitude=0.6, band_limit=8)
    theta = 0.8
    a = evolve_step(spec, phase_rotate(state, theta), 1e-2)
    b = phase_rotate(evolve_step(spec, state, 1e-2), theta)
    assert np.abs(a.psi - b.psi).max() <= 1e-12


@pytest.mark.parametrize("tag", ["NWE", "NBE"])
def test_time_reversal_inverts_steps(tag):
    spec = SPECS[tag]
    state0 = random_state(tag, GRID, SplitMix64(13), amplitude=0.3, band_limit=6)
    state = state0
    for _ in range(200):
        state = evolve_step(spec, state, 1e-3)
    state = time_reverse(state)
    for _ in range(200):
        state = evolve_step(spec, state, 1e-3)
    state = time_reverse(state)
    diff = state.replace_components(tuple(
        a - b for a, b in zip(state.components, state0.components)))
    assert state_x_norm(diff) <= 1e-10


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("NBE", Grid((16, 16), (4.0, 4.0)), W_FOCUS)
    with pytest.raises(ValueError):
        ModelSpec("XXX", GRID, W_FOCUS)
