import numpy as np
import pytest

from hylosolve import (FieldState, Grid, LatticeShift, ModelSpec, Perturbation, SinglePower,
                       WSpec, apply_perturbation, charge, energy, lyapunov_v,
                       orbit_distance, run_stability, translate)
from hylosolve.functionals import gaussian_state
from hylosolve.grid import random_state, x_norm
from hylosolve.rng import SplitMix64
from hylosolve.stability import EMPIRICAL_BANNER


def test_lyapunov_basics(nls_acceptance_spec, soliton):
    spec = nls_acceptance_spec
    state = soliton["refined"].state
    e_ref, c_ref = energy(spec, state), charge(spec, state)
    assert lyapunov_v(spec, state, e_ref, c_ref) <= 1e-18
    other = gaussian_state(spec, 0.5, 3.0)
    v = lyapunov_v(spec, other, e_ref, c_ref)
    assert v >= 0.0
    moved = translate(other, LatticeShift((101,)))
    assert lyapunov_v(spec, moved, e_ref, c_ref) == pytest.approx(v, rel=1e-12)


def test_perturbation_identity_cases(nls_acceptance_spec, soliton):
    spec = nls_acceptance_spec
    state = soliton["refined"].state
    for pert in (Perturbation.additive_noise(0.0), Perturbation.amplitude_scale(0.0)):
        out = apply_perturbation(spec, state, pert)
        assert all(np.array_equal(a, b) for a, b in zip(out.components, state.components))
    shifted = apply_perturbation(spec, state, Perturbation.shift_and_phase((7,), 0.4))
    assert orbit_distance(shifted, state) <= 1e-10


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation("bogus")
    with pytest.raises(ValueError):
        Perturbation.additive_noise(-0.1)
    g = Grid((16,), (5.0,))
    spec = ModelSpec("NBE", g, WSpec(1.0, SinglePower(1.0, 4.0)))
    state = spec.zero_state()
    with pytest.raises(ValueError):
        apply_perturbation(spec, state, Perturbation.shift_and_phase((1,), 0.3))


# The session soliton (tests/conftest.py) as minimized by plain
# preconditioned gradient descent, the method before conjugate gradients:
# (e_delta, c_delta, lambda_mult), and the max_orbit_dist of the noise row
# of test_run_stability_short below.
GD_SOLITON = (-0.1562718353469732, 7.079484060624601, -1.0662217048481342)
GD_NOISE_MAX_ORBIT_DIST = 0.07509966495342309


def test_soliton_agrees_with_gradient_descent_reference(soliton):
    # both methods stop at grad_tol = 1e-8, at different points of the
    # nearly flat direction along the family
    refined = soliton["refined"]
    e_ref, c_ref, lam_ref = GD_SOLITON
    assert refined.e_delta == pytest.approx(e_ref, rel=1e-4)
    assert refined.c_delta == pytest.approx(c_ref, rel=1e-4)
    assert refined.lambda_mult == pytest.approx(lam_ref, rel=1e-5)


def test_run_stability_short(nls_acceptance_spec, soliton):
    spec = nls_acceptance_spec
    refined = soliton["refined"]
    perts = [Perturbation.additive_noise(1e-2, band_limit=8, seed=3),
             Perturbation.amplitude_scale(0.0),
             Perturbation.additive_noise(0.0)]
    report = run_stability(spec, refined, perts, T=2.0, dt=1e-3,
                           record_every=100, seed=5)
    assert report.note == EMPIRICAL_BANNER
    noise_row, scale0_row, noise0_row = report.rows
    assert noise_row.verdict == "stable"
    assert noise_row.max_v <= report.kappa * noise_row.v0 + report.abs_tol
    assert noise_row.max_orbit_dist == pytest.approx(GD_NOISE_MAX_ORBIT_DIST, rel=1e-5)
    # eps = 0 rows are the unperturbed run: identical trajectories
    assert scale0_row.v0 == 0.0
    assert scale0_row.max_v == noise0_row.max_v
    assert scale0_row.max_orbit_dist == noise0_row.max_orbit_dist
    # V along the unperturbed run is bounded by the integrator drift
    assert noise0_row.max_v <= 1e-10


def test_run_stability_deterministic(nls_acceptance_spec, soliton):
    spec = nls_acceptance_spec
    refined = soliton["refined"]
    perts = [Perturbation.additive_noise(1e-2, band_limit=6, seed=9)]
    r1 = run_stability(spec, refined, perts, T=0.5, dt=1e-3, record_every=100, seed=4)
    r2 = run_stability(spec, refined, perts, T=0.5, dt=1e-3, record_every=100, seed=4)
    assert r1.rows[0].max_v == r2.rows[0].max_v
    assert r1.rows[0].max_orbit_dist == r2.rows[0].max_orbit_dist


def test_run_stability_requires_converged(nls_acceptance_spec, soliton):
    import dataclasses
    broken = dataclasses.replace(soliton["refined"], converged=False)
    with pytest.raises(ValueError):
        run_stability(nls_acceptance_spec, broken, [], T=1.0, dt=1e-3)


def two_step_noise(spec, state, pert, seed_offset):
    """Additive noise as a separate scaled-noise state, then the sum."""
    rng = SplitMix64(pert.seed + seed_offset).split("stability-noise")
    target = pert.eps * max(1.0, x_norm(state))
    raw = random_state(spec.model_tag, spec.grid, rng, band_limit=pert.band_limit)
    norm = x_norm(raw)
    noise = raw if norm == 0.0 else raw.replace_components(
        tuple((target / norm) * c for c in raw.components))
    return state.replace_components(tuple(
        a + b for a, b in zip(state.components, noise.components)))


@pytest.mark.parametrize("spec,pert,seed_offset", [
    (ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
     Perturbation.additive_noise(1e-2, band_limit=8, seed=3), 0),
    (ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
     Perturbation.additive_noise(0.3, band_limit=6, seed=1), 0),
    (ModelSpec("NBE", Grid((256,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
     Perturbation.additive_noise(2e-3, band_limit=None, seed=2), 0),
    (ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
     Perturbation.additive_noise(1e-2, band_limit=8, seed=3), 7),
], ids=["NLS", "NWE", "NBE", "NLS-seed-offset"])
def test_additive_noise_bitwise_equal_to_the_two_step_form(spec, pert, seed_offset,
                                                           monkeypatch):
    state = random_state(spec.model_tag, spec.grid, SplitMix64(8), amplitude=0.7,
                         band_limit=6)
    expected = two_step_noise(spec, state, pert, seed_offset)
    builds = []
    build = FieldState.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(FieldState, "__init__", counting)
    out = apply_perturbation(spec, state, pert, seed_offset=seed_offset)
    assert len(builds) == 2  # the raw noise and the perturbed state
    assert [c.dtype for c in out.components] == [c.dtype for c in expected.components]
    assert [c.tobytes() for c in out.components] == [c.tobytes() for c in expected.components]
    assert not all(np.array_equal(a, b) for a, b in zip(out.components, state.components))


def test_free_field_gaussian_negative_control(nls_acceptance_spec):
    # pure-quadratic model: a Gaussian bump disperses, so its orbit distance
    # to the initial bump grows and then saturates (no single-bump orbit
    # stability in the free field)
    g = nls_acceptance_spec.grid
    spec = ModelSpec("NLS", g, WSpec(1.0, SinglePower(0.0, 4.0)))
    init = gaussian_state(spec, 1.0, 1.5)
    from hylosolve import evolve
    trace = evolve(spec, init, T=20.0, dt=5e-3, record_every=200, reference=init)
    od = trace.orbit_dist
    assert od[-1] > 0.5 * x_norm(init)
    late = od[od.size // 2:]
    assert late.max() - late.min() <= 0.2 * late.max()  # saturation
