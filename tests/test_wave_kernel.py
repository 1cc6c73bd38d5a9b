"""The Fourier-resident NWE/NBE kernel against a plain four-FFT Strang step."""

import numpy as np
import pytest

from hylosolve import DoublePower, Grid, ModelSpec, Saturating, WSpec
from hylosolve.grid import random_state, symbols, x_norm
from hylosolve.models import _propagator, evolve_step
from hylosolve.nonlinearity import w_prime_over_s
from hylosolve.rng import SplitMix64

DOUBLE_POWER = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))
SPECS = {
    "NWE-1d": ModelSpec("NWE", Grid((256,), (40.0,)), DOUBLE_POWER),
    "NBE-1d": ModelSpec("NBE", Grid((256,), (40.0,)), WSpec(1.0, Saturating(0.0, 0.5))),
    "NWE-3d": ModelSpec("NWE", Grid((16, 16, 16), (12.0, 12.0, 12.0)), DOUBLE_POWER),
}
DT = 1e-2


def _state(spec, seed=71):
    return random_state(spec.model_tag, spec.grid, SplitMix64(seed), amplitude=0.6,
                        band_limit=4)


def strang_reference(spec, state, dt):
    """One plain Strang step: half kick, the exact linear flow with both
    components transformed forward and back, half kick."""
    w = spec.w
    lam = np.sqrt(symbols(spec.model_tag, spec.grid).kinetic + w.m_sq)
    cos, sinc = np.cos(lam * dt), dt * np.sinc(lam * dt / np.pi)
    neg_lam_sin = -(lam * np.sin(lam * dt))

    def kicked(b, a, tau):
        factor = w_prime_over_s(w, np.abs(a)) - w.m_sq
        return b - tau * (factor * a)

    a, b = state.components
    b = kicked(b, a, 0.5 * dt)
    fa, fb = np.fft.fftn(a), np.fft.fftn(b)
    a, b = np.fft.ifftn(cos * fa + sinc * fb), np.fft.ifftn(neg_lam_sin * fa + cos * fb)
    if spec.model_tag == "NBE":
        a, b = a.real, b.real
    return state.replace_components((a, kicked(b, a, 0.5 * dt)))


def _difference(a, b):
    return a.replace_components(tuple(x - y for x, y in zip(a.components, b.components)))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_step_is_the_plain_strang_step(name):
    spec = SPECS[name]
    state0 = _state(spec)
    fused = evolve_step(spec, state0, DT, 1)
    ref = strang_reference(spec, state0, DT)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fused.components, ref.components))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_block_matches_reference_steps(name):
    spec = SPECS[name]
    state0 = _state(spec, seed=72)
    ref = state0
    for _ in range(100):
        ref = strang_reference(spec, ref, DT)
    fused = evolve_step(spec, state0, DT, 100)
    assert x_norm(_difference(fused, ref)) <= 1e-12 * x_norm(ref)


@pytest.mark.parametrize("steps", [1, 100])
def test_beam_kernel_returns_real_fields(steps):
    spec = SPECS["NBE-1d"]
    comps = _propagator(spec, DT).step(_state(spec).components, steps)
    assert all(np.isrealobj(c) for c in comps)


@pytest.mark.parametrize("steps", [1, 10])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_leaves_its_input_unchanged(name, steps):
    spec = SPECS[name]
    state0 = _state(spec)
    before = [c.tobytes() for c in state0.components]
    evolve_step(spec, state0, DT, steps)
    assert [c.tobytes() for c in state0.components] == before


@pytest.mark.parametrize("steps", [1, 2, 10])
def test_block_costs_two_transforms_per_step_plus_two(transform_sizes, steps):
    spec = SPECS["NWE-3d"]
    state0 = _state(spec)
    transform_sizes.clear()  # drawing the state low-passes it
    evolve_step(spec, state0, DT, steps)
    assert len(transform_sizes) == 2 * steps + 2
