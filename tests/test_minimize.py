import math

import numpy as np
import pytest

from hylosolve import (DoublePower, FieldState, Grid, Inadmissible, LatticeShift,
                       MinimizeOptions, ModelSpec, NumericalFailure, PenaltyParams,
                       SinglePower, WSpec, charge, delta_continuation, energy, grad_charge,
                       grad_energy, j_delta, lambda0_estimate, minimize_jdelta,
                       orbit_distance, refine_constrained, translate)
from hylosolve.functionals import gaussian_state, penalized_probe_seed
from hylosolve.grid import symbols, x_norm
from hylosolve.minimize import _STALL_LIMIT, _descend, _noise_level, _precondition
from hylosolve.models import evaluate, grad_energy_of, l2_inner

GRID = Grid((256,), (40.0,))
SPEC = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 4.0)))
PARAMS = PenaltyParams(delta=0.03, a=0.02, s_exp=3.0)
OPTS = MinimizeOptions(max_iters=20000, grad_tol=1e-7)


@pytest.fixture(scope="module")
def converged():
    free = minimize_jdelta(SPEC, PARAMS, opts=OPTS)
    refined = refine_constrained(SPEC, free.c_delta, free.state, opts=OPTS,
                                 params=PARAMS)
    assert free.converged and refined.converged
    return free, refined


# Plain preconditioned gradient descent, the method before conjugate
# gradients, needed 249 free-descent iterations for the fixture above.
GD_FREE_ITERS = 249


def test_conjugate_gradients_halve_free_iterations(converged):
    free, _ = converged
    assert free.iters <= GD_FREE_ITERS // 2


# The fixture model at the CLI's default tolerance, grad_tol = 1e-8, as
# minimized by plain preconditioned gradient descent: (e_delta, c_delta,
# lambda_mult) after refinement, and the free-descent iteration count.
GD_REFERENCE = (-0.09620118295281488, 7.022471693905743, -1.041097146148291)
GD_REFERENCE_FREE_ITERS = 287


def test_outputs_agree_with_gradient_descent_reference():
    # Both methods stop at the same gradient tolerance, so they differ only
    # in where they stop along the nearly flat direction of the family:
    # e_delta and c_delta within 1e-4 relative, the multiplier within 1e-5.
    # (At the fixture's looser grad_tol = 1e-7 the two methods stop on
    # opposite sides of the minimizer and e_delta, a near-cancellation of
    # 3.51 and -3.61, differs by 1.3e-4 relative while c_delta differs by
    # 1.7e-6.)
    opts = MinimizeOptions(max_iters=20000, grad_tol=1e-8)
    free = minimize_jdelta(SPEC, PARAMS, opts=opts)
    refined = refine_constrained(SPEC, free.c_delta, free.state, opts=opts,
                                 params=PARAMS)
    assert free.converged and refined.converged
    e_ref, c_ref, lam_ref = GD_REFERENCE
    assert refined.e_delta == pytest.approx(e_ref, rel=1e-4)
    assert refined.c_delta == pytest.approx(c_ref, rel=1e-4)
    assert refined.lambda_mult == pytest.approx(lam_ref, rel=1e-5)
    assert free.iters <= GD_REFERENCE_FREE_ITERS // 2


def test_unconverged_link_is_diagnosed():
    opts = MinimizeOptions(max_iters=3, grad_tol=1e-7)
    with pytest.raises(NumericalFailure, match="did not converge") as info:
        delta_continuation(SPEC, [PARAMS.delta], opts=opts, params=PARAMS)
    detail, partial = info.value.detail, info.value.partial
    assert detail["link"] == 0 and detail["delta"] == PARAMS.delta
    assert detail["phase"] == "free"
    assert detail["iters"] == partial.iters == 3
    assert not partial.converged
    assert len(partial.log) == 4
    assert detail["last_step"] == partial.log[-1][2] > 0.0
    assert detail["grad_norm"] == partial.grad_norm > opts.grad_tol
    assert detail["kkt_residual"] == partial.kkt_residual > 0.0


@pytest.mark.parametrize("tag", ["NWE", "NBE"])
def test_precondition_transforms_only_the_field(tag):
    rng = np.random.default_rng(5)
    comps = [rng.standard_normal(GRID.n) for _ in range(2)]
    if tag == "NWE":
        comps = [c + 1j * rng.standard_normal(GRID.n) for c in comps]
    g = FieldState(tag, GRID, comps).components
    weight = symbols(tag, GRID).weights[0]
    d = _precondition(weight, g)
    # the velocity-like component has metric weight 1: passed through as is
    assert np.array_equal(d[1], g[1])
    expected = np.fft.ifftn(np.fft.fftn(comps[0]) / weight)
    np.testing.assert_allclose(d[0], expected if tag == "NWE" else expected.real,
                               rtol=0, atol=1e-14)


def test_descent_log_non_increasing(converged):
    free, refined = converged
    for result in (free, refined):
        vals = [row[1] for row in result.log]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert free.j_value <= free.log[0][1]


def test_fixed_point_start(converged):
    # a state stationary within the re-run tolerance is accepted untouched
    _, refined = converged
    loose = MinimizeOptions(max_iters=1000, grad_tol=1e-5)
    again = minimize_jdelta(SPEC, PARAMS, init=refined.state, opts=loose)
    assert again.converged
    assert again.iters == 0
    again_ref = refine_constrained(SPEC, refined.c_delta, refined.state,
                                   opts=loose)
    assert again_ref.converged
    assert again_ref.iters == 0


def test_kkt_contract_and_reevaluation(converged):
    for result in converged:
        assert result.kkt_residual <= 10 * OPTS.grad_tol * (1 + x_norm(result.state))
        assert energy(SPEC, result.state) == pytest.approx(result.e_delta, rel=1e-12)
        assert abs(charge(SPEC, result.state)) == pytest.approx(result.c_delta, rel=1e-12)


def _bitwise_same_state(a: FieldState, b: FieldState) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.components, b.components))


def test_stall_at_the_float_floor_is_judged_by_the_kkt_residual(converged):
    # From the fixture's free minimizer, grad_tol = 1e-9 and 1e-10 both lie
    # below the gradient norm the descent can reach: it stops after
    # _STALL_LIMIT steps that lower J only at float resolution, at a KKT
    # residual of about 1.7e-9 (1 + ||u||_X).  The tolerance judges that
    # stop against the contract kkt <= 10 grad_tol (1 + ||u||_X) and
    # changes nothing else.
    free, _ = converged
    inside, outside = (minimize_jdelta(SPEC, PARAMS, init=free.state,
                                       opts=MinimizeOptions(grad_tol=tol))
                       for tol in (1e-9, 1e-10))
    assert _bitwise_same_state(inside.state, outside.state)
    assert inside.log == outside.log
    values = [row[1] for row in inside.log[-_STALL_LIMIT - 1:]]
    assert all(a - b <= _noise_level(a) for a, b in zip(values, values[1:]))
    scale = 1.0 + x_norm(inside.state)
    for result, tol in ((inside, 1e-9), (outside, 1e-10)):
        assert result.iters < MinimizeOptions().max_iters
        assert result.grad_norm > tol * scale  # not stopped by the gradient test
        assert result.kkt_residual == inside.kkt_residual
    assert inside.converged and inside.kkt_residual <= 10 * 1e-9 * scale
    assert not outside.converged and outside.kkt_residual > 10 * 1e-10 * scale


def test_failed_search_along_pg_is_judged_by_the_kkt_residual(converged):
    # No step lowers a constant objective, so the first search along Pg
    # fails and the descent stops where it started; the stop is converged
    # iff the start meets the KKT contract: the refined minimizer does, a
    # Gaussian does not.
    _, refined = converged

    def flat(u):
        return 0.0, evaluate(SPEC, u)

    def gradient(u, ev):
        return grad_energy_of(SPEC, u, ev.spectrum)

    for start, stationary in ((refined.state, True),
                              (gaussian_state(SPEC, 1.0, 2.0), False)):
        result = _descend(SPEC, flat, gradient, start.components, OPTS)
        scale = 1.0 + x_norm(start)
        assert result.iters == 0 and _bitwise_same_state(result.state, start)
        assert result.grad_norm > OPTS.grad_tol * scale
        assert result.converged == stationary
        assert (result.kkt_residual <= 10 * OPTS.grad_tol * scale) == stationary
        assert np.isfinite(result.kkt_residual)


def test_multiplier_solves_stationarity(converged):
    _, refined = converged
    ge = grad_energy(SPEC, refined.state)
    gc = grad_charge(SPEC, refined.state)
    lam = l2_inner(ge, gc) / l2_inner(gc, gc)
    assert lam == pytest.approx(refined.lambda_mult, rel=1e-12)


def test_penalized_value_below_vanishing_floor(converged):
    free, _ = converged
    assert free.j_value < lambda0_estimate(SPEC)


def test_translation_start_invariance(converged):
    free, refined = converged
    seed, _ = penalized_probe_seed(SPEC, PARAMS)
    moved = translate(seed, LatticeShift((41,)))
    res2 = minimize_jdelta(SPEC, PARAMS, init=moved, opts=OPTS)
    ref2 = refine_constrained(SPEC, res2.c_delta, res2.state, opts=OPTS)
    assert orbit_distance(ref2.state, refined.state) <= 1e-6


def test_quadratic_constrained_minimizer_is_constant():
    # free field on a small box: the energy at fixed mass is minimized by
    # the zero-mode, psi = sqrt(c/L); multiplier from the gradient pairing:
    # gradE = m^2 psi, gradC = 2 psi -> lambda = m^2/2
    g = Grid((64,), (10.0,))
    spec = ModelSpec("NLS", g, WSpec(1.0, SinglePower(0.0, 4.0)))
    init = gaussian_state(spec, 1.0, 2.0)
    c_target = 1.0
    init = init.replace_components((init.psi * np.sqrt(c_target / charge(spec, init)),))
    res = refine_constrained(spec, c_target, init,
                             MinimizeOptions(max_iters=20000, grad_tol=1e-9))
    expected_value = np.sqrt(c_target / 10.0)
    # the mode amplitudes resolve to sqrt of the energy noise floor; the
    # energy and multiplier are quadratically insensitive and hit 1e-9
    assert np.abs(np.abs(res.state.psi) - expected_value).max() <= 1e-6
    assert res.e_delta == pytest.approx(0.5 * 1.0 * c_target, abs=1e-9)
    assert res.lambda_mult == pytest.approx(0.5, abs=1e-9)


def test_refine_guards():
    state = gaussian_state(SPEC, 1.0, 2.0)
    c = charge(SPEC, state)
    with pytest.raises(ValueError):
        refine_constrained(SPEC, 2.0 * c, state, OPTS)  # outside 20%
    with pytest.raises(ValueError):
        refine_constrained(SPEC, -1.0, state, OPTS)


def test_descent_builds_one_state_per_result(converged, monkeypatch):
    # iterates and trials are component tuples; only the result is a state
    free, _ = converged
    seed, _ = penalized_probe_seed(SPEC, PARAMS)
    builds = []
    build = FieldState.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(FieldState, "__init__", counting)
    again = minimize_jdelta(SPEC, PARAMS, init=seed, opts=OPTS)
    assert len(builds) == 1 and again.iters == free.iters > 0
    del builds[:]
    refined = refine_constrained(SPEC, again.c_delta, again.state, opts=OPTS, params=PARAMS)
    assert len(builds) == 1 and refined.iters > 0


def test_j_values_are_j_delta_of_the_result_state(converged):
    # the refined j_value comes from the stored E and C, not a re-evaluation
    for result in converged:
        assert result.j_value == j_delta(SPEC, result.state, PARAMS)


def test_overflowing_trial_is_backtracked():
    # a first trial far past the float range is shortened, not raised: the
    # penalized bulk overflows (NLS) or the retraction leaves a non-finite
    # sample (NWE)
    huge = MinimizeOptions(max_iters=3, initial_step=1e300)
    nwe = ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        for spec in (SPEC, nwe):
            seed, _ = penalized_probe_seed(spec, PARAMS)
            free = minimize_jdelta(spec, PARAMS, init=seed, opts=huge)
            refined = refine_constrained(spec, abs(charge(spec, seed)), seed, opts=huge)
            for result in (free, refined):
                assert result.iters == 3
                assert all(0.0 < row[2] < 1e3 for row in result.log[1:])


def test_plain_value_error_in_an_objective_propagates():
    # only NearZeroCharge and NumericalFailure reject a trial
    init = gaussian_state(SPEC, 1.0, 2.0).components
    calls = []

    def objective(u):
        calls.append(1)
        if len(calls) > 1:
            raise ValueError("not a trial rejection")
        ev = evaluate(SPEC, u)
        return float(ev.energy), ev

    with pytest.raises(ValueError, match="not a trial rejection"):
        _descend(SPEC, objective, lambda u, ev: grad_energy_of(SPEC, u, ev.spectrum), init,
                 OPTS)
    assert len(calls) == 2


def test_minimize_requires_charge():
    from hylosolve import NearZeroCharge
    with pytest.raises(NearZeroCharge):
        minimize_jdelta(SPEC, PARAMS, init=SPEC.zero_state(), opts=OPTS)


def test_continuation_single_element_reduces_to_two_phase(converged):
    _, refined = converged
    fam = delta_continuation(SPEC, [PARAMS.delta], opts=OPTS, params=PARAMS)
    assert len(fam.results) == 1
    only = fam.results[0]
    assert only.converged
    assert orbit_distance(only.state, refined.state) <= 1e-6
    assert fam.orbit_distances.shape == (1, 1)


def test_continuation_rejects_bad_delta_lists():
    with pytest.raises(ValueError):
        delta_continuation(SPEC, [0.01, 0.03], opts=OPTS, params=PARAMS)
    with pytest.raises(ValueError):
        delta_continuation(SPEC, [], opts=OPTS, params=PARAMS)
    # far above the admissible range: the penalized probe cannot undercut
    # the vanishing floor, so the link is rejected up front
    with pytest.raises(ValueError, match="too large"):
        delta_continuation(SPEC, [5.0], opts=OPTS, params=PARAMS)


def test_rejected_delta_is_a_typed_diagnosis():
    with pytest.raises(Inadmissible) as info:
        delta_continuation(SPEC, [5.0], opts=OPTS, params=PARAMS)
    err = info.value
    assert isinstance(err, NumericalFailure) and isinstance(err, ValueError)
    assert (err.detail["link"], err.detail["delta"]) == (0, 5.0)
    assert not err.detail["seed_value"] < err.detail["lambda0"]


def test_minimize_options_validation():
    with pytest.raises(ValueError):
        MinimizeOptions(max_iters=0)
    with pytest.raises(ValueError):
        MinimizeOptions(backtrack=1.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["max_iters", "grad_tol", "armijo_c1", "backtrack",
                                  "initial_step"])
def test_minimize_options_refuse_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        MinimizeOptions(**{name: value})


def test_minimize_options_take_an_int_beyond_the_float_range():
    assert MinimizeOptions(max_iters=10**400).max_iters == 10**400
