import numpy as np
import pytest

from hylosolve import (DoublePower, FieldState, Grid, LatticeShift, ModelSpec,
                       Inadmissible, NearZeroCharge, PenaltyParams, Saturating, SinglePower, WSpec,
                       bound_m, charge, choose_coercivity_params, energy,
                       hylomorphy_check, j_delta, lambda0_estimate,
                       lambda_ratio, nash_check, nash_exponents, phi,
                       translate)
from hylosolve.checkers import _nash_stability_check
from hylosolve.functionals import coercivity_exponent, gaussian_state, probe_states
from hylosolve.nonlinearity import critical_exponent
from hylosolve.grid import x_norm
from hylosolve.rng import SplitMix64

GRID = Grid((256,), (40.0,))
SPEC = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 4.0)))
PARAMS = PenaltyParams(delta=0.03, a=0.02, s_exp=3.0)


def test_lambda_ratio_guard_and_invariance():
    with pytest.raises(NearZeroCharge):
        lambda_ratio(SPEC, SPEC.zero_state())
    state = gaussian_state(SPEC, 0.8, 2.0)
    lam = lambda_ratio(SPEC, state)
    moved = translate(state, LatticeShift((67,)))
    assert lambda_ratio(SPEC, moved) == pytest.approx(lam, rel=1e-12)


def test_lambda_ratio_matches_quadrature_identity():
    # quadratic potential: the ratio is (grad + mass terms)/mass, computed
    # here directly from independent quadratures of the same state
    spec = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(0.0, 4.0)))
    state = gaussian_state(spec, 1.0, 2.0)
    lam = lambda_ratio(spec, state)
    from hylosolve import integrate, spectral_derivative
    psi = state.psi
    grad_sq = integrate(GRID, np.abs(spectral_derivative(GRID, psi, axis=0, order=1)) ** 2)
    mass = integrate(GRID, np.abs(psi) ** 2)
    assert lam == pytest.approx((0.5 * grad_sq + 0.5 * mass) / mass, rel=1e-12)


def test_phi_definition_and_degenerate_penalty():
    state = gaussian_state(SPEC, 0.7, 1.5)
    assert phi(SPEC, SPEC.zero_state(), PARAMS) == 0.0
    no_pen = PenaltyParams(delta=0.03, a=0.0, s_exp=3.0)
    assert phi(SPEC, state, no_pen) == energy(SPEC, state)
    # independent recomputation of the penalty difference
    e, c = energy(SPEC, state), charge(SPEC, state)
    assert phi(SPEC, state, PARAMS) - e == pytest.approx(
        2 * PARAMS.a * abs(c) ** PARAMS.s_exp, rel=1e-12)


def test_j_delta_decomposition_and_invariance():
    state = gaussian_state(SPEC, 0.9, 2.5)
    j = j_delta(SPEC, state, PARAMS)
    assert j - lambda_ratio(SPEC, state) == pytest.approx(
        PARAMS.delta * phi(SPEC, state, PARAMS), rel=1e-14)
    moved = translate(state, LatticeShift((31,)))
    assert j_delta(SPEC, moved, PARAMS) == pytest.approx(j, rel=1e-12)


def test_bound_m_closed_form_cases():
    # single-variable calculus: t* = 2(s-1)/(delta s) = 1, g(1) = -1/2
    assert bound_m(PenaltyParams(delta=1.0, a=1.0, s_exp=2.0)) == pytest.approx(0.5)
    assert bound_m(PenaltyParams(delta=0.5, a=0.0, s_exp=2.0)) == 0.0
    # degenerate exponent: minimum at t = 0 gives M = a
    assert bound_m(PenaltyParams(delta=0.7, a=1.3, s_exp=1.0)) == pytest.approx(1.3)


def test_bound_m_scan_oracle():
    rng = SplitMix64(21)
    for _ in range(20):
        delta = 0.01 + rng.uniform()
        s = 1.0 + 3.0 * rng.uniform()
        p = PenaltyParams(delta=delta, a=1.0, s_exp=s)
        assert abs(bound_m(p) - bound_m(p, scan_points=10000)) <= 1e-6


def test_theorem_inequality_on_random_suite(nls_acceptance_spec, nls_params):
    spec = nls_acceptance_spec
    params = nls_params
    m_const = bound_m(params)
    rng = SplitMix64(77).split("pli-suite")
    floor = -1e-9
    for state in probe_states(spec, rng, 200):
        j = j_delta(spec, state, params)
        ph = phi(spec, state, params)
        assert j - (0.5 * params.delta * ph - m_const) >= floor
        # EC-3(i) with the chosen coefficient
        assert energy(spec, state) + params.a * abs(charge(spec, state)) ** params.s_exp >= floor


def test_nash_exponents_and_coercivity_exponent():
    q, r = nash_exponents(4.0, 1)
    assert (q, r) == (1.0, 3.0)
    assert coercivity_exponent(4.0, 1) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        coercivity_exponent(8.0, 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exactly_critical_power_is_refused_with_one_message(dim):
    # in 3-d, q rounds to 1.9999999999999996 at p = 2 + 4/3: a q >= 2 test
    # would admit it with s near 3e15
    p = critical_exponent(dim)
    grid = Grid((16,) * dim, (10.0,) * dim)
    message = f"supercritical power p = {p} in dimension {dim}"
    for refuse in (lambda: coercivity_exponent(p, dim), lambda: nash_check(grid, p)):
        with pytest.raises(Inadmissible) as err:
            refuse()
        assert str(err.value) == message
    nash = _nash_stability_check(ModelSpec("NLS", grid, WSpec(1.0, SinglePower(1.0, p))))
    assert (nash.verdict, nash.parameters) == ("skipped", {"reason": message})


def test_choose_params_reports_exponents_and_zero_for_free_field():
    params = choose_coercivity_params(SPEC, delta=0.03, seed=3, n_probes=200)
    assert (params.nash_q, params.nash_r) == (1.0, 3.0)
    assert params.s_exp == pytest.approx(3.0)
    assert params.a > 0
    free = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(0.0, 4.0)))
    params0 = choose_coercivity_params(free, delta=0.03, seed=3, n_probes=200)
    assert params0.a == 0.0
    with pytest.raises(ValueError):
        choose_coercivity_params(ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 8.0))))


def test_chosen_params_floor_fresh_probes():
    params = choose_coercivity_params(SPEC, delta=0.03, seed=5, n_probes=500)
    rng = SplitMix64(999).split("fresh-probes")
    for state in probe_states(SPEC, rng, 1000):
        bulk = energy(SPEC, state) + params.a * abs(charge(SPEC, state)) ** params.s_exp
        assert bulk >= -1e-9


def test_nash_check_scale_invariance_and_stability():
    from hylosolve.functionals import _lp_gradient_ratio
    q, r = nash_exponents(4.0, 1)
    f = gaussian_state(SPEC, 1.0, 2.0).psi.real
    ratio = _lp_gradient_ratio(GRID, f, 4.0, q, r)
    scaled = _lp_gradient_ratio(GRID, 7.0 * f, 4.0, q, r)
    assert scaled == pytest.approx(ratio, rel=1e-10)
    assert np.isnan(_lp_gradient_ratio(GRID, np.full(GRID.n, 2.0), 4.0, q, r))
    # a Gaussian's ratio is 1/sqrt(pi) at every width in the continuum, below
    # the sharp constant 1/sqrt(3) of the sech ground state
    b = nash_check(GRID, 4.0)
    assert b == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-6)
    assert b < 1.0 / np.sqrt(3.0)
    assert nash_check(GRID, 4.0) == b
    with pytest.raises(ValueError):
        nash_check(GRID, 8.0)


def test_lambda0_values():
    assert lambda0_estimate(SPEC) == pytest.approx(0.5, abs=0.02)
    nwe = ModelSpec("NWE", GRID, WSpec(1.0, SinglePower(1.0, 4.0)))
    assert lambda0_estimate(nwe) == pytest.approx(1.0, abs=0.02)


def test_lambda0_box_stability():
    est = lambda0_estimate(SPEC)
    doubled = ModelSpec("NLS", Grid((512,), (80.0,)), SPEC.w)
    assert abs(lambda0_estimate(doubled) - est) <= 0.01 * est


# the probe-family estimate that lambda0_estimate returned for NBE before
# it became the closed form, for every W with m^2 = 1
OLD_NBE_ESTIMATE = 1.8802


def _plane_wave_ratios(spec, modes, amplitude=1e-4):
    """E/|C| of small plane waves at the given mode indices, each with the
    ratio-optimal second component: rotation rate sqrt(k^2 + m^2) (NWE),
    travel speed sqrt(k^4 + m^2)/k (NBE)."""
    g = spec.grid
    x = g.axis_coordinates(0)
    m_sq = spec.w.m_sq
    ratios = []
    for j in modes:
        k = 2.0 * np.pi * j / g.box_length[0]
        if spec.model_tag == "NLS":
            comps = (amplitude * np.exp(1j * k * x),)
        elif spec.model_tag == "NWE":
            psi = amplitude * np.exp(1j * k * x)
            comps = (psi, -1j * np.sqrt(k**2 + m_sq) * psi)
        else:
            u = amplitude * np.cos(k * x)
            ux = -amplitude * k * np.sin(k * x)
            comps = (u, -np.sqrt(k**4 + m_sq) / k * ux)
        ratios.append(lambda_ratio(spec, FieldState(spec.model_tag, g, comps)))
    return np.array(ratios)


def test_lambda0_closed_form_against_plane_waves():
    half = GRID.n[0] // 2
    nls = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 4.0)))
    nwe = ModelSpec("NWE", GRID, WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
    nbe = ModelSpec("NBE", GRID, WSpec(1.0, Saturating(0.0, 2.0)))
    assert (lambda0_estimate(nls), lambda0_estimate(nwe), lambda0_estimate(nbe)) == (
        0.5, 1.0, np.sqrt(2.0))
    doubled = Grid((512,), (80.0,))
    for spec in (nls, nwe, nbe):
        assert lambda0_estimate(ModelSpec(spec.model_tag, doubled, spec.w)) == (
            lambda0_estimate(spec))
    for spec in (nls, nwe):
        ratios = _plane_wave_ratios(spec, range(half))
        lam0 = lambda0_estimate(spec)
        assert np.all(ratios >= lam0 - 1e-6)
        assert abs(ratios.min() - lam0) <= 1e-6
    ratios = _plane_wave_ratios(nbe, range(1, half))
    lam0 = lambda0_estimate(nbe)
    assert np.all(ratios >= lam0 - 1e-6)
    # the mode nearest the minimizing wave number k = sqrt(m) = 1
    near = int(round(GRID.box_length[0] / (2.0 * np.pi))) - 1
    assert abs(ratios[near] - lam0) <= 1e-2
    assert ratios[near] < OLD_NBE_ESTIMATE


def test_vanishing_amplitude_drives_norm_down():
    # shrinking amplitudes drive both the coercive bulk and the norm to 0,
    # with the norm monotone beyond the first index
    sigma = 3.0
    amps = 0.2 * 2.0 ** (-np.arange(8))
    bulks, norms = [], []
    for a in amps:
        st = gaussian_state(SPEC, a, sigma)
        bulks.append(energy(SPEC, st) + PARAMS.a * abs(charge(SPEC, st)) ** PARAMS.s_exp)
        norms.append(x_norm(st))
    assert abs(bulks[-1]) <= 1e-3 * abs(bulks[0])
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_hylomorphy_dichotomy_and_witness():
    rep = hylomorphy_check(SPEC)
    assert rep.verdict is True
    assert rep.best_ratio < rep.lambda0_estimate - rep.margin
    ws = gaussian_state(SPEC, rep.witness["amplitude"], rep.witness["width"],
                        pair_param=rep.witness.get("pair_param"))
    assert lambda_ratio(SPEC, ws) == rep.best_ratio  # exact re-evaluation

    free = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(0.0, 4.0)))
    rep0 = hylomorphy_check(free)
    assert rep0.verdict is False
    assert rep0.best_ratio >= rep0.lambda0_estimate - rep0.margin


def test_penalty_params_validation():
    with pytest.raises(ValueError):
        PenaltyParams(delta=0.0, a=1.0, s_exp=2.0)
    with pytest.raises(ValueError):
        PenaltyParams(delta=0.1, a=-1.0, s_exp=2.0)
    with pytest.raises(ValueError):
        PenaltyParams(delta=0.1, a=1.0, s_exp=0.5)
