"""The fused split-step kernel against repeated single steps, and evolve's
record blocks against a per-step reference loop."""

import numpy as np
import pytest

from hylosolve import (DoublePower, Grid, ModelSpec, Saturating, SinglePower,
                       WSpec, evolve)
from hylosolve.functionals import gaussian_state
from hylosolve.grid import random_state, x_norm
from hylosolve.models import charge, energy, evolve_step
from hylosolve.rng import SplitMix64

GRID = Grid((256,), (40.0,))
SPECS = {
    "NLS": ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 4.0))),
    "NWE": ModelSpec("NWE", GRID, WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
    "NBE": ModelSpec("NBE", GRID, WSpec(1.0, Saturating(0.0, 0.5))),
}
# focusing wave model with a violent bump: blows up within a few steps
BLOW_UP_SPEC = ModelSpec("NWE", Grid((256,), (20.0,)), WSpec(1.0, SinglePower(1.0, 8.0)))


def _state(tag, seed=61):
    return random_state(tag, GRID, SplitMix64(seed), amplitude=0.6, band_limit=8)


def _difference(a, b):
    return a.replace_components(tuple(x - y for x, y in zip(a.components, b.components)))


def per_step_evolve(spec, state0, T, dt, record_every, abort_factor=1e6):
    """evolve's trace built one validated single step at a time, with the
    finiteness and abort checks after every step."""
    n_steps = max(1, int(round(T / dt)))
    norm0 = x_norm(state0)
    times, es, cs = [0.0], [energy(spec, state0)], [charge(spec, state0)]
    state = last_good = state0
    blew_up = False
    for step in range(1, n_steps + 1):
        try:
            state = evolve_step(spec, state, dt)
        except ValueError:
            blew_up = True
            break
        if step % record_every == 0 or step == n_steps:
            if not x_norm(state) <= abort_factor * (1.0 + norm0):
                blew_up = True
                break
            times.append(step * dt)
            es.append(energy(spec, state))
            cs.append(charge(spec, state))
            last_good = state
    return np.array(times), np.array(es), np.array(cs), blew_up, last_good


@pytest.mark.parametrize("steps", [1, 7, 100])
@pytest.mark.parametrize("tag", ["NLS", "NWE", "NBE"])
def test_block_matches_successive_single_steps(tag, steps):
    spec, dt = SPECS[tag], 1e-2
    state0 = _state(tag)
    ref = state0
    for _ in range(steps):
        ref = evolve_step(spec, ref, dt)
    fused = evolve_step(spec, state0, dt, steps)
    if steps == 1:
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(fused.components, ref.components))
    else:
        assert x_norm(_difference(fused, ref)) <= 1e-12 * x_norm(ref)


def test_block_steps_must_be_positive():
    spec = SPECS["NLS"]
    with pytest.raises(ValueError):
        evolve_step(spec, _state("NLS"), 1e-2, 0)


@pytest.mark.parametrize("tag", ["NLS", "NWE", "NBE"])
def test_uneven_record_blocks_match_per_step_reference(tag):
    # 50 steps in blocks of 7: the last block has one step
    spec, state0 = SPECS[tag], _state(tag, seed=62)
    trace = evolve(spec, state0, T=0.5, dt=0.01, record_every=7)
    times, es, cs, blew_up, final = per_step_evolve(spec, state0, 0.5, 0.01, 7)
    assert not trace.blew_up and not blew_up
    assert np.array_equal(trace.times, times)
    np.testing.assert_allclose(trace.energy, es, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(trace.charge, cs, rtol=1e-12, atol=1e-12)
    assert x_norm(_difference(trace.final_state, final)) <= 1e-12 * x_norm(final)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [4.0, 2.0])
@pytest.mark.parametrize("record_every", [1, 5, 7])
def test_blow_up_matches_per_step_reference(record_every, amplitude):
    init = gaussian_state(BLOW_UP_SPEC, amplitude, 0.5)
    trace = evolve(BLOW_UP_SPEC, init, T=5.0, dt=5e-3, record_every=record_every)
    times, es, _, blew_up, final = per_step_evolve(BLOW_UP_SPEC, init, 5.0, 5e-3,
                                                   record_every)
    assert trace.blew_up and blew_up
    assert np.array_equal(trace.times, times)
    np.testing.assert_allclose(trace.energy, es, rtol=1e-12)
    if record_every == 1:
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(trace.final_state.components, final.components))
    else:
        assert x_norm(_difference(trace.final_state, final)) <= 1e-12 * x_norm(final)
