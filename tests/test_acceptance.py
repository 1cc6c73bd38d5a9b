"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines
and timings.  Every tolerance is pinned here; nothing is calibrated at run
time.
"""

import time

import numpy as np

from hylosolve import (DoublePower, Grid, LatticeShift, MinimizeOptions,
                       ModelSpec, Perturbation, SinglePower,
                       WSpec, audit, bound_m, charge, choose_coercivity_params,
                       delta_continuation, energy, evolve, evolve_step,
                       grad_charge, grad_energy, hylomorphy_check,
                       j_delta, lambda0_estimate, lambda_ratio, lyapunov_v,
                       orbit_distance, phi, refine_constrained, run_stability,
                       translate)
from hylosolve.functionals import gaussian_profile, gaussian_state, probe_states
from hylosolve.grid import FieldState, random_state, x_norm
from hylosolve.models import l2_inner, time_reverse
from hylosolve.rng import SplitMix64

from helpers import aligned_l2_error, sech_profile


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_sech_soliton_recovery(nls_acceptance_spec, soliton):
    spec = nls_acceptance_spec
    refined = soliton["refined"]
    elapsed = soliton["seconds"]
    ok = refined.converged and soliton["free"].converged
    mu = spec.w.m_sq - 2.0 * refined.lambda_mult
    psi = refined.state.psi
    peak = spec.grid.axis_coordinates(0)[int(np.argmax(np.abs(psi)))]
    oracle = sech_profile(spec, mu, peak)
    # the oracle solves u'' = mu u - u^3; spot-check it by finite differences
    # before comparing the minimizer against it
    h = 1e-4
    xs = np.linspace(-2.0, 2.0, 9)
    u = lambda x: np.sqrt(2 * mu) / np.cosh(np.sqrt(mu) * x)
    residual = (u(xs + h) - 2 * u(xs) + u(xs - h)) / h**2 - (mu * u(xs) - u(xs) ** 3)
    assert np.abs(residual).max() <= 1e-4
    err = aligned_l2_error(psi, oracle.astype(complex))
    ok = ok and refined.kkt_residual <= 1e-6 and err <= 1e-3 and elapsed <= 60.0
    _report("criterion-1 sech recovery",
            ok, f"kkt={refined.kkt_residual:.2e}, profile_err={err:.2e}, "
                f"mu={mu:.4f}, runtime={elapsed:.1f}s")


def test_criterion_2_penalized_lower_bound(nls_acceptance_spec):
    spec = nls_acceptance_spec
    t0 = time.perf_counter()
    params = choose_coercivity_params(spec, delta=0.03, seed=11)
    m_impl = bound_m(params)
    # independent closed form: t* = 2(s-1)/(delta s), M = -a g(t*)
    s, d, a = params.s_exp, params.delta, params.a
    t_star = 2.0 * (s - 1.0) / (d * s)
    m_formula = -a * (0.5 * d * t_star**s - t_star ** (s - 1.0))
    m_scan = bound_m(params, scan_points=10000)
    rng = SplitMix64(2026).split("acceptance-suite")
    worst = np.inf
    for state in probe_states(spec, rng, 1000):
        slack = (j_delta(spec, state, params)
                 - (0.5 * d * phi(spec, state, params) - m_impl))
        worst = min(worst, slack)
    elapsed = time.perf_counter() - t0
    ok = (abs(m_impl - m_formula) <= 1e-12 * max(1.0, m_formula)
          and abs(m_impl - m_scan) <= 1e-6
          and worst >= -1e-9 and elapsed <= 10.0)
    _report("criterion-2 penalized lower bound",
            ok, f"min_slack={worst:.3e}, |M-scan|={abs(m_impl-m_scan):.2e}, "
                f"runtime={elapsed:.1f}s over 1000 states")


def test_criterion_3_lambda0_estimates():
    w = WSpec(1.0, SinglePower(1.0, 4.0))
    results = {}
    for tag, target in (("NLS", 0.5), ("NWE", 1.0)):
        t0 = time.perf_counter()
        base = lambda0_estimate(ModelSpec(tag, Grid((512,), (40.0,)), w))
        doubled = lambda0_estimate(ModelSpec(tag, Grid((1024,), (80.0,)), w))
        elapsed = time.perf_counter() - t0
        results[tag] = (base, doubled, elapsed)
    ok = all(abs(base - target) <= 0.02
             and abs(doubled - base) <= 0.01 * abs(base)
             and elapsed <= 30.0
             for (tag, target), (base, doubled, elapsed)
             in zip((("NLS", 0.5), ("NWE", 1.0)), results.values()))
    _report("criterion-3 lambda0 estimates", ok,
            ", ".join(f"{tag}={v[0]:.4f} (doubled {v[1]:.4f}, {v[2]:.1f}s)"
                      for tag, v in results.items()))


def test_criterion_4_hylomorphy_dichotomy():
    t0 = time.perf_counter()
    grid = Grid((512,), (40.0,))
    focusing = ModelSpec("NLS", grid, WSpec(1.0, SinglePower(1.0, 4.0)))
    rep_focus = hylomorphy_check(focusing)
    quadratic = ModelSpec("NLS", grid, WSpec(1.0, SinglePower(0.0, 4.0)))
    rep_quad = hylomorphy_check(quadratic)
    supercritical = ModelSpec("NLS", grid, WSpec(1.0, SinglePower(1.0, 8.0)))
    cert = audit(supercritical, budget=400, seed=11)
    elapsed = time.perf_counter() - t0
    ec3 = cert.results["EC-3i"]
    ok = (rep_focus.verdict is True and rep_quad.verdict is False
          and ec3.verdict == "fail"
          and ec3.counterexample["source"] == "width-sweep"
          and elapsed <= 60.0)
    _report("criterion-4 hylomorphy dichotomy", ok,
            f"focusing={rep_focus.verdict}, quadratic={rep_quad.verdict}, "
            f"supercritical EC-3i={ec3.verdict} ({ec3.counterexample['source'] if ec3.counterexample else '-'}), "
            f"runtime={elapsed:.1f}s")


def test_criterion_5_conservation(nls_acceptance_spec):
    spec = nls_acceptance_spec
    t0 = time.perf_counter()
    state0 = gaussian_state(spec, 1.0, 1.5)
    c0 = charge(spec, state0)
    state = state0
    for _ in range(10000):
        state = evolve_step(spec, state, 1e-3)
    c_drift = abs(charge(spec, state) - c0) / abs(c0)

    e0 = energy(spec, state0)
    drifts = []
    for dt in (1e-3, 5e-4):
        st, worst = state0, 0.0
        for step in range(int(round(10.0 / dt))):
            st = evolve_step(spec, st, dt)
            if step % 100 == 0:
                worst = max(worst, abs(energy(spec, st) - e0))
        drifts.append(worst / max(1.0, abs(e0)))
    ratio = drifts[0] / drifts[1]

    rev_errors = {}
    grid = Grid((256,), (40.0,))
    for tag, w in (("NWE", WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
                   ("NBE", WSpec(1.0, SinglePower(1.0, 4.0)))):
        mspec = ModelSpec(tag, grid, w)
        st0 = random_state(tag, grid, SplitMix64(61).split(tag),
                           amplitude=0.3, band_limit=6)
        fwd = evolve(mspec, st0, T=1.0, dt=1e-3).final_state
        back = evolve(mspec, time_reverse(fwd), T=1.0, dt=1e-3).final_state
        rec = time_reverse(back)
        diff = rec.replace_components(tuple(
            a - b for a, b in zip(rec.components, st0.components)))
        rev_errors[tag] = x_norm(diff)
    elapsed = time.perf_counter() - t0
    ok = (c_drift <= 1e-11 and 3.0 <= ratio <= 5.0
          and all(v <= 1e-8 for v in rev_errors.values()))
    _report("criterion-5 conservation", ok,
            f"C_drift={c_drift:.2e}, E-drift ratio={ratio:.2f}, "
            f"reversibility={ {k: f'{v:.1e}' for k, v in rev_errors.items()} }, "
            f"runtime={elapsed:.1f}s")


def test_criterion_6_stability_lab(nls_acceptance_spec, soliton):
    spec = nls_acceptance_spec
    refined = soliton["refined"]
    t0 = time.perf_counter()
    report = run_stability(spec, refined,
                           [Perturbation.additive_noise(1e-2, band_limit=8, seed=3)],
                           T=50.0, dt=1e-3, record_every=250, seed=5)
    row = report.rows[0]
    stable_ok = (row.verdict == "stable"
                 and row.max_v <= 4.0 * row.v0 + 1e-6
                 and row.max_orbit_dist <= 10.0 * row.initial_perturbation_norm)

    defoc = ModelSpec("NLS", Grid((2048,), (160.0,)),
                      WSpec(1.0, DoublePower(0.0, 3.0, 1.0, 4.0)))
    trace = evolve(defoc, gaussian_state(defoc, 1.0, 1.0), T=40.0, dt=0.01,
                   record_every=100)
    peak = int(np.argmax(trace.sharp))
    decay = trace.sharp[peak] / trace.sharp[-1]
    elapsed = time.perf_counter() - t0
    ok = stable_ok and decay >= 5.0 and elapsed <= 300.0
    _report("criterion-6 stability lab", ok,
            f"maxV/V0={row.max_v/max(row.v0,1e-300):.3f}, "
            f"orbit/pert={row.max_orbit_dist/row.initial_perturbation_norm:.2f}, "
            f"defocusing decay={decay:.1f}x, runtime={elapsed:.1f}s")


def test_criterion_7_continuation_family(nls_acceptance_spec, nls_params):
    spec = nls_acceptance_spec
    t0 = time.perf_counter()
    opts = MinimizeOptions(max_iters=40000, grad_tol=1e-8)
    deltas = list(np.geomspace(0.03, 0.0107, 5))
    family = delta_continuation(spec, deltas, opts=opts, params=nls_params)
    off_diag = family.orbit_distances[np.triu_indices(len(deltas), 1)]
    cs = [r.c_delta for r in family.results]
    monotone = all(b > a for a, b in zip(cs, cs[1:]))

    mid = family.results[2]
    fresh = gaussian_state(spec, 1.0, 2.0)
    fresh = fresh.replace_components(
        (fresh.psi * np.sqrt(mid.c_delta / charge(spec, fresh)),))
    restart = refine_constrained(spec, mid.c_delta, fresh, opts=opts)
    agreement = orbit_distance(restart.state, mid.state)
    elapsed = time.perf_counter() - t0
    ok = (all(r.converged for r in family.results)
          and off_diag.min() >= 1e-3 and monotone
          and restart.converged and agreement <= 1e-2
          and elapsed <= 300.0)
    _report("criterion-7 continuation family", ok,
            f"min pair dist={off_diag.min():.2e}, c monotone={monotone}, "
            f"restart agreement={agreement:.2e}, runtime={elapsed:.1f}s")


def test_criterion_8_invariance_suite(nls_acceptance_spec, nls_params, soliton):
    spec = nls_acceptance_spec
    params = nls_params
    t0 = time.perf_counter()
    refined = soliton["refined"]
    e_ref, c_ref = refined.e_delta, charge(spec, refined.state)
    rng = SplitMix64(88).split("invariance")
    worst = 0.0
    for _ in range(20):
        state = random_state("NLS", spec.grid, rng, amplitude=0.3 + rng.uniform(),
                             band_limit=12)
        z = LatticeShift((int(rng.integers(1, 512)[0]),))
        moved = translate(state, z)
        for f in (lambda s: energy(spec, s), lambda s: charge(spec, s),
                  lambda s: lambda_ratio(spec, s),
                  lambda s: phi(spec, s, params),
                  lambda s: j_delta(spec, s, params),
                  lambda s: lyapunov_v(spec, s, e_ref, c_ref)):
            a, b = f(state), f(moved)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    invariance_ok = worst <= 1e-12

    x = spec.grid.axis_coordinates(0)
    left = np.where(np.abs(x - 10.0) < 7.0, gaussian_profile(spec.grid, 1.0, 1.2, (10.0,)), 0.0)
    right = np.where(np.abs(x - 30.0) < 7.0, gaussian_profile(spec.grid, 0.8, 1.5, (30.0,)), 0.0)
    u = FieldState.nls(spec.grid, left.astype(complex))
    w = FieldState.nls(spec.grid, right.astype(complex))
    both = FieldState.nls(spec.grid, (left + right).astype(complex))
    split_e = abs(energy(spec, both) - energy(spec, u) - energy(spec, w)) / max(
        1.0, abs(energy(spec, both)))
    split_c = abs(charge(spec, both) - charge(spec, u) - charge(spec, w)) / max(
        1.0, abs(charge(spec, both)))
    splitting_ok = split_e <= 1e-10 and split_c <= 1e-10

    grid = Grid((64,), (20.0,))
    fd_ok = True
    worst_fd = 0.0
    for tag, wspec in (("NLS", WSpec(1.0, SinglePower(1.0, 4.0))),
                       ("NWE", WSpec(1.0, SinglePower(1.0, 4.0))),
                       ("NBE", WSpec(1.0, SinglePower(1.0, 4.0)))):
        mspec = ModelSpec(tag, grid, wspec)
        srng = SplitMix64(89).split(f"fd-{tag}")
        eps = 1e-5
        for _ in range(100):
            state = random_state(tag, grid, srng, amplitude=0.2 + srng.uniform(),
                                 band_limit=8)
            direction = random_state(tag, grid, srng, amplitude=0.5, band_limit=8)
            for func, gradf in ((energy, grad_energy), (charge, grad_charge)):
                g = gradf(mspec, state)
                plus = state.replace_components(tuple(
                    a + eps * b for a, b in zip(state.components, direction.components)))
                minus = state.replace_components(tuple(
                    a - eps * b for a, b in zip(state.components, direction.components)))
                fd = (func(mspec, plus) - func(mspec, minus)) / (2 * eps)
                ip = l2_inner(g, direction)
                err = abs(ip - fd) / (1.0 + abs(ip))
                worst_fd = max(worst_fd, err)
                fd_ok = fd_ok and err <= 1e-5
    elapsed = time.perf_counter() - t0
    ok = invariance_ok and splitting_ok and fd_ok
    _report("criterion-8 invariance suite", ok,
            f"shift_invariance={worst:.1e}, splitting=(E {split_e:.1e}, C {split_c:.1e}), "
            f"grad_fd={worst_fd:.1e}, runtime={elapsed:.1f}s")
