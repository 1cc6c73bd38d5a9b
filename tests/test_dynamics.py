from types import SimpleNamespace

import numpy as np
import pytest

from hylosolve import (DoublePower, Grid, ModelSpec, Perturbation, SinglePower,
                       Saturating, WSpec, conservation_report, evolve, run_stability)
from hylosolve.dynamics import step_count
from hylosolve.functionals import gaussian_state
from hylosolve.grid import random_state
from hylosolve.models import time_reverse
from hylosolve.rng import SplitMix64

GRID = Grid((256,), (40.0,))
SPEC = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 4.0)))


def test_zero_state_trace():
    trace = evolve(SPEC, SPEC.zero_state(), T=0.5, dt=1e-2, record_every=10)
    assert not trace.blew_up
    assert np.all(trace.energy == 0.0)
    assert np.all(trace.charge == 0.0)
    assert np.all(trace.sharp == 0.0)
    assert np.all(trace.xnorm == 0.0)


def test_trace_structure_and_first_sample():
    state = gaussian_state(SPEC, 0.8, 2.0)
    trace = evolve(SPEC, state, T=0.2, dt=1e-3, record_every=37)
    assert trace.times[0] == 0.0
    assert np.all(np.diff(trace.times) > 0)
    from hylosolve import charge, energy, sharp_seminorm
    assert trace.energy[0] == energy(SPEC, state)
    assert trace.charge[0] == charge(SPEC, state)
    assert trace.sharp[0] == sharp_seminorm(state)
    assert trace.times[-1] == pytest.approx(0.2)
    assert trace.v is None and trace.orbit_dist is None


def test_exact_linear_flow_conserves_to_roundoff():
    spec = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(0.0, 4.0)))
    state = gaussian_state(spec, 0.5, 2.0)
    trace = evolve(spec, state, T=2.0, dt=1e-2, record_every=10)
    rep = conservation_report(trace)
    assert rep.max_drift_energy <= 1e-12
    assert rep.max_drift_charge <= 1e-12


def test_nonlinear_conservation_budget():
    state = gaussian_state(SPEC, 1.0, 1.5)
    trace = evolve(SPEC, state, T=10.0, dt=1e-3, record_every=100)
    rep = conservation_report(trace)
    assert rep.max_drift_charge <= 1e-11
    assert rep.max_drift_energy <= 1e-6


def test_single_sample_zero_drift():
    state = gaussian_state(SPEC, 0.5, 2.0)
    trace = evolve(SPEC, state, T=1e-3, dt=1e-3, record_every=1000)
    rep = conservation_report(trace)
    assert rep.max_drift_energy == 0.0 or trace.times.size > 1


def test_trace_determinism():
    state = random_state("NLS", GRID, SplitMix64(50), amplitude=0.5, band_limit=8)
    t1 = evolve(SPEC, state, T=0.5, dt=1e-3, record_every=50)
    t2 = evolve(SPEC, state, T=0.5, dt=1e-3, record_every=50)
    assert np.array_equal(t1.energy, t2.energy)
    assert np.array_equal(t1.charge, t2.charge)
    assert all(np.array_equal(a, b) for a, b in
               zip(t1.final_state.components, t2.final_state.components))


@pytest.mark.parametrize("tag,w", [
    ("NWE", WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
    ("NBE", WSpec(1.0, Saturating(0.0, 0.5))),
])
def test_time_reversibility(tag, w):
    spec = ModelSpec(tag, GRID, w)
    state0 = random_state(tag, GRID, SplitMix64(51), amplitude=0.3, band_limit=6)
    fwd = evolve(spec, state0, T=1.0, dt=1e-3).final_state
    back = evolve(spec, time_reverse(fwd), T=1.0, dt=1e-3).final_state
    recovered = time_reverse(back)
    diff = recovered.replace_components(tuple(
        a - b for a, b in zip(recovered.components, state0.components)))
    from hylosolve.grid import x_norm
    assert x_norm(diff) <= 1e-8


def test_defocusing_dispersion_decays_sharp_norm():
    g = Grid((2048,), (160.0,))
    spec = ModelSpec("NLS", g, WSpec(1.0, DoublePower(0.0, 3.0, 1.0, 4.0)))
    init = gaussian_state(spec, 1.0, 1.0)
    trace = evolve(spec, init, T=40.0, dt=0.01, record_every=100)
    assert not trace.blew_up
    peak_idx = int(np.argmax(trace.sharp))
    tail = trace.sharp[peak_idx:]
    assert tail[0] / tail[-1] >= 5.0
    # monotone after the transient, up to a 2% sampling ripple
    assert np.all(np.diff(tail) <= 0.02 * tail[0])


def test_blow_up_guard_flags_and_truncates():
    # focusing wave model with a violent bump: the force kick grows the
    # velocity component without bound; the trace must stop with the flag
    # instead of propagating non-finite values
    g = Grid((256,), (20.0,))
    spec = ModelSpec("NWE", g, WSpec(1.0, SinglePower(1.0, 8.0)))
    init = gaussian_state(spec, 4.0, 0.5)
    trace = evolve(spec, init, T=5.0, dt=5e-3, record_every=5)
    assert trace.blew_up
    assert trace.times.size >= 1
    assert np.all(np.isfinite(trace.energy))
    assert all(np.all(np.isfinite(c.view(np.float64)))
               for c in trace.final_state.components)


def test_kernel_value_error_is_not_blow_up(monkeypatch):
    # only NonFinite marks a row as blown up; any other error propagates
    from hylosolve import models

    def failing(self, comps, steps):
        raise ValueError("kernel failure")

    monkeypatch.setattr(models._Propagator, "step", failing)
    state = gaussian_state(SPEC, 0.8, 2.0)
    with pytest.raises(ValueError, match="kernel failure"):
        evolve(SPEC, state, T=0.1, dt=1e-2)
    with pytest.raises(ValueError, match="kernel failure"):
        evolve(SPEC, [state, state], T=0.1, dt=1e-2)


def test_soliton_profile_stationary(nls_acceptance_spec, soliton):
    # the computed minimizer evolves as a standing wave: amplitude profile
    # stationary over the long horizon, up to phase (removed by the orbit
    # distance) and integrator drift
    spec = nls_acceptance_spec
    refined = soliton["refined"]
    trace = evolve(spec, refined.state, T=50.0, dt=1e-3, record_every=1000,
                   reference=refined.state)
    assert trace.orbit_dist.max() <= 1e-3
    assert np.all(trace.v <= 1e-10)


def test_evolve_validation():
    with pytest.raises(ValueError):
        evolve(SPEC, SPEC.zero_state(), T=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        evolve(SPEC, SPEC.zero_state(), T=1.0, dt=-1e-3)
    with pytest.raises(ValueError):
        evolve(SPEC, SPEC.zero_state(), T=1.0, dt=1e-3, record_every=0)


@pytest.mark.parametrize("T,dt", [(0.25, 0.1), (0.35, 0.1), (0.1, 0.25), (0.04, 0.1)])
def test_a_span_of_no_whole_step_count_is_refused(T, dt):
    # rounding would run these to 0.2, 0.4, 0.25 and 0.1
    with pytest.raises(ValueError, match="not a whole number of steps"):
        step_count(T, dt)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        evolve(SPEC, SPEC.zero_state(), T=T, dt=dt)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        run_stability(SPEC, SimpleNamespace(converged=True, state=SPEC.zero_state()),
                      [Perturbation.amplitude_scale(0.0)], T=T, dt=dt)


def test_whole_spans_run_to_their_end():
    # the benchmark's spans, whose quotients T/dt are not exact in floating point
    assert (step_count(1.0, 0.01), step_count(20.0, 1e-3), step_count(0.3, 0.1)) == (100, 20000, 3)
    grid = Grid((16,), (10.0,))
    spec = ModelSpec("NLS", grid, SPEC.w)
    state = random_state("NLS", grid, SplitMix64(4), amplitude=0.5, band_limit=3)
    for T, dt, every in [(1.0, 0.01, 25), (20.0, 1e-3, 5000)]:
        trace = evolve(spec, state, T=T, dt=dt, record_every=every)
        assert trace.n_steps == step_count(T, dt)
        assert not trace.blew_up
        assert trace.times.tolist() == [k * every * dt for k in range(5)]
