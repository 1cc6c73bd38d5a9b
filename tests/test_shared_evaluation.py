"""One field transform per descent evaluation: `models.evaluate` against the
separate energy, charge, norm and gradient evaluations; the quadrature
X-norm of the velocity-like component against Parseval; the FFT budget of
the descent; and evolve's one norm per record point."""

import numpy as np
import pytest

from hylosolve import (DoublePower, Grid, MinimizeOptions, ModelSpec, PenaltyParams,
                       Saturating, SinglePower, WSpec, dynamics)
from hylosolve.functionals import gaussian_state, penalized_terms
from hylosolve.grid import random_state, spectral_sum, symbols, transform, x_norm, x_norm_of
from hylosolve.minimize import minimize_jdelta
from hylosolve.models import (charge, energy, evaluate, grad_charge, grad_charge_of,
                              grad_energy, grad_energy_of)
from hylosolve.rng import SplitMix64

DOUBLE_POWER = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))
SPECS = {
    "NLS-1d": ModelSpec("NLS", Grid((128,), (30.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
    "NLS-2d": ModelSpec("NLS", Grid((32, 16), (12.0, 10.0)), WSpec(1.0, SinglePower(1.0, 3.0))),
    "NWE-1d": ModelSpec("NWE", Grid((256,), (40.0,)), DOUBLE_POWER),
    "NBE-1d": ModelSpec("NBE", Grid((128,), (40.0,)), WSpec(1.0, Saturating(0.0, 0.5))),
}
# the quadrature X-norm tolerance against the Parseval form
X_NORM_RTOL = 1e-14


def _states(spec, count=3):
    return [random_state(spec.model_tag, spec.grid, SplitMix64(90 + i), amplitude=0.7,
                         band_limit=6) for i in range(count)]


def _bitwise(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_evaluate_matches_the_separate_evaluations(name):
    spec = SPECS[name]
    states = _states(spec)
    for st in states:
        ev = evaluate(spec, st.components)
        assert _bitwise(float(ev.energy), energy(spec, st))
        assert _bitwise(float(ev.charge), charge(spec, st))
        assert _bitwise(float(ev.x_norm), x_norm(st))
        for got, want in ((grad_energy_of(spec, st.components, ev.spectrum),
                           grad_energy(spec, st)),
                          (grad_charge_of(spec, st.components), grad_charge(spec, st))):
            assert all(_bitwise(x, y) for x, y in zip(got, want.components))
    # a stack gives each row what the row gives alone
    stack = tuple(np.stack(cs) for cs in zip(*(st.components for st in states)))
    ev = evaluate(spec, stack)
    assert ev.spectrum.shape == stack[0].shape
    ge = grad_energy_of(spec, stack, ev.spectrum)
    for i, st in enumerate(states):
        assert _bitwise(ev.energy[i], energy(spec, st))
        assert _bitwise(ev.charge[i], charge(spec, st))
        assert _bitwise(ev.x_norm[i], x_norm(st))
        assert all(_bitwise(x[i], y) for x, y in zip(ge, grad_energy(spec, st).components))


def _parseval_x_norm(model_tag, grid, components):
    """Every component through its transform, weighted by its metric symbol."""
    total = 0.0
    for comp, w in zip(components, symbols(model_tag, grid).weights):
        total = total + spectral_sum(grid, w, transform(grid, comp))
    return np.sqrt(total)


@pytest.mark.parametrize("tag,grid", [
    ("NWE", Grid((256,), (40.0,))),
    ("NWE", Grid((16, 16, 16), (12.0, 12.0, 12.0))),
    ("NBE", Grid((256,), (40.0,))),
])
def test_quadrature_x_norm_matches_parseval(tag, grid):
    states = [random_state(tag, grid, SplitMix64(40 + i), amplitude=a, band_limit=b)
              for i, (a, b) in enumerate([(0.7, 4), (2.0, 7), (1e-3, 3)])]
    for st in states:
        assert x_norm(st) == pytest.approx(_parseval_x_norm(tag, grid, st.components),
                                           rel=X_NORM_RTOL, abs=0.0)
    stack = tuple(np.stack(cs) for cs in zip(*(st.components for st in states)))
    np.testing.assert_allclose(x_norm_of(tag, grid, stack),
                               _parseval_x_norm(tag, grid, stack), rtol=X_NORM_RTOL, atol=0.0)


NWE = SPECS["NWE-1d"]
NWE_PARAMS = PenaltyParams(delta=0.03, a=0.05, s_exp=2.0)


def _nwe_seed():
    return gaussian_state(NWE, 1.5, 2.0, pair_param=0.5)


def test_penalized_trial_objective_is_one_transform(transform_sizes):
    state = _nwe_seed()
    penalized_terms(NWE, state.components, NWE_PARAMS)
    assert len(transform_sizes) == 1
    transform_sizes.clear()
    evaluate(NWE, state.components)
    assert len(transform_sizes) == 1


# transforms per free-descent iteration: 3 for the gradient (one inverse FFT
# for its kinetic term, two for the preconditioner) plus 1 per trial
# objective, about two trials per iteration
DESCENT_FFT_BUDGET = 6.0


def test_descent_iteration_fft_budget(transform_sizes):
    opts = MinimizeOptions(max_iters=40, grad_tol=1e-12)
    free = minimize_jdelta(NWE, NWE_PARAMS, init=_nwe_seed(), opts=opts)
    assert free.iters == 40
    assert len(transform_sizes) / free.iters <= DESCENT_FFT_BUDGET


@pytest.mark.parametrize("abort_factor", [1e6, 1e-2])
def test_evolve_takes_one_norm_per_record_point(monkeypatch, abort_factor):
    spec = NWE
    rows = _states(spec, 2)
    expected = dynamics.evolve(spec, rows, 0.2, 1e-2, record_every=7, reference=rows[0],
                               abort_factor=abort_factor)
    calls = []
    stepped = []
    original = dynamics.state_x_norm
    original_step = dynamics.evolve_step

    def counted(state):
        calls.append(1)
        return original(state)

    def counted_step(spec, states, dt, steps):
        stepped.append(len(states))
        return original_step(spec, states, dt, steps)

    monkeypatch.setattr(dynamics, "state_x_norm", counted)
    monkeypatch.setattr(dynamics, "evolve_step", counted_step)
    traces = dynamics.evolve(spec, rows, 0.2, 1e-2, record_every=7, reference=rows[0],
                             abort_factor=abort_factor)
    # one norm per record point: at t = 0 and after each of the 3 record
    # blocks; with the tight factor the t = 0 record already fails the
    # abort test, and the row stops there without entering the kernel
    per_row = 1 if abort_factor < 1.0 else 4
    assert len(calls) == per_row * len(rows)
    assert stepped == ([] if abort_factor < 1.0 else [len(rows)] * 3)
    for row, got, want in zip(rows, traces, expected):
        assert got.blew_up == want.blew_up == (abort_factor < 1.0)
        assert got.times.size == (0 if got.blew_up else 4)
        for field in ("times", "energy", "charge", "sharp", "xnorm", "v", "orbit_dist"):
            assert _bitwise(getattr(got, field), getattr(want, field))
        if not got.blew_up:
            assert got.xnorm[0] == x_norm(row)
