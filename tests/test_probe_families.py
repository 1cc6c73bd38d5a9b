"""Stacked probe families against one-state-at-a-time references.

The references below rebuild every probe as its own FieldState and
evaluate it with the per-state functionals, in the loop order the searches
define (amplitude-major, refined around the incumbent).
"""

import numpy as np
import pytest

from hylosolve import (DoublePower, FieldState, Grid, ModelSpec, PenaltyParams,
                       Saturating, SinglePower, WSpec, energy, hylomorphy_check,
                       integrate, j_delta, lambda_ratio)
from hylosolve import functionals
from hylosolve.checkers import (_coercivity_floor_check, _coercivity_growth_check,
                                _coercivity_vanishing_check, _largest_shift_change,
                                _shift_invariance_check, _splitting_check)
from hylosolve.functionals import (PROBE_CHUNK_POINTS, choose_coercivity_params,
                                   default_probe_bounds, gaussian_profile, gaussian_state,
                                   penalized_probe_seed, probe_chunks, probe_states)
from hylosolve.grid import spectral_derivative
from hylosolve.models import charge_of, energy_of, evaluate
from hylosolve.nonlinearity import w_value
from hylosolve.rng import SplitMix64

SPECS = {
    "NLS": ModelSpec("NLS", Grid((64,), (20.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
    # 4096 points: 8 probes per stack, so a 12-amplitude column takes two stacks
    "NLS-split-column": ModelSpec("NLS", Grid((4096,), (40.0,)),
                                  WSpec(1.0, SinglePower(1.0, 4.0))),
    "NWE-double-power": ModelSpec("NWE", Grid((64,), (20.0,)),
                                  WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
    "NBE-saturating": ModelSpec("NBE", Grid((64,), (20.0,)), WSpec(1.0, Saturating(0.0, 2.0))),
}
PARAMS = PenaltyParams(delta=0.03, a=0.05, s_exp=2.0)


def _reference_probe(spec, amp, sigma):
    """The Gaussian probe with the closed-form optimal pair parameter."""
    g = spec.grid
    if spec.model_tag == "NLS":
        return gaussian_state(spec, amp, sigma)
    bump = gaussian_profile(g, amp, sigma)
    if spec.model_tag == "NWE":
        rest = energy(spec, FieldState.nwe(g, bump, np.zeros_like(bump)))
        weight = integrate(g, np.abs(bump) ** 2)
    else:
        ux = spectral_derivative(g, bump, axis=0, order=1)
        rest = energy(spec, FieldState.nbe(g, bump, np.zeros_like(bump)))
        weight = integrate(g, ux**2)
    floor = 1e-4 * max(1.0, np.sqrt(spec.w.m_sq))
    pair = floor if rest <= 0.0 or weight <= 0.0 else max(float(np.sqrt(2.0 * rest / weight)),
                                                            floor)
    return gaussian_state(spec, amp, sigma, pair), pair


def _reference_search(spec, objective, grid_size, refinements):
    amp_bounds, sig_bounds = default_probe_bounds(spec)
    (a_lo, a_hi), (s_lo, s_hi) = amp_bounds, sig_bounds
    best = (np.inf, a_lo, s_lo)
    for _ in range(refinements + 1):
        amps = np.geomspace(a_lo, a_hi, grid_size)
        sigs = np.geomspace(s_lo, s_hi, grid_size)
        for amp in amps:
            for sig in sigs:
                probe = _reference_probe(spec, amp, sig)
                val = objective(probe if spec.model_tag == "NLS" else probe[0])
                if val < best[0]:
                    best = (val, float(amp), float(sig))
        ra = (a_hi / a_lo) ** (2.0 / (grid_size - 1))
        rs = (s_hi / s_lo) ** (2.0 / (grid_size - 1))
        a_lo, a_hi = max(amp_bounds[0], best[1] / ra), min(amp_bounds[1], best[1] * ra)
        s_lo, s_hi = max(sig_bounds[0], best[2] / rs), min(sig_bounds[1], best[2] * rs)
    return best


@pytest.mark.parametrize("name", SPECS)
def test_hylomorphy_search_matches_per_state_reference(name):
    spec = SPECS[name]
    size = 12 if name == "NLS-split-column" else 6
    ref_val, ref_amp, ref_sig = _reference_search(
        spec, lambda st: lambda_ratio(spec, st), size, 1)
    rep = hylomorphy_check(spec, grid_size=size, refinements=1)
    assert (rep.witness["amplitude"], rep.witness["width"]) == (ref_amp, ref_sig)
    assert rep.best_ratio == pytest.approx(ref_val, rel=1e-12, abs=0)
    if spec.model_tag != "NLS":
        assert rep.witness["pair_param"] == _reference_probe(spec, ref_amp, ref_sig)[1]


@pytest.mark.parametrize("name", SPECS)
def test_penalized_seed_matches_per_state_reference(name):
    spec = SPECS[name]
    size = 12 if name == "NLS-split-column" else 6
    ref_val, ref_amp, ref_sig = _reference_search(
        spec, lambda st: j_delta(spec, st, PARAMS), size, 1)
    state, val = penalized_probe_seed(spec, PARAMS, grid_size=size, refinements=1)
    ref = _reference_probe(spec, ref_amp, ref_sig)
    ref_state = ref if spec.model_tag == "NLS" else ref[0]
    for a, b in zip(state.components, ref_state.components):
        assert np.array_equal(a, b)
    assert val == pytest.approx(ref_val, rel=1e-12, abs=0)


def _one_probe_per_stack(spec, rng, count):
    """The probes of probe_chunks drawn one stack of one probe at a time."""
    return [tuple(comp[0] for comp in next(probe_chunks(spec, rng, 1))) for _ in range(count)]


@pytest.mark.parametrize("spec", [
    SPECS["NLS"],
    ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
    ModelSpec("NWE", Grid((32, 16), (5.0, 3.0)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
    SPECS["NBE-saturating"],
], ids=["NLS-64", "NLS-512", "NWE-2d", "NBE-64"])
def test_probe_chunks_reproduce_one_probe_at_a_time(spec):
    count = 150  # 64 probes per stack at n = 512: two full stacks and a partial one
    rng_a, rng_b, rng_c = (SplitMix64(17).split("chunks") for _ in range(3))
    rows = [row for comps in probe_chunks(spec, rng_a, count) for row in zip(*comps)]
    states = probe_states(spec, rng_b, count)
    reference = _one_probe_per_stack(spec, rng_c, count)
    assert len(rows) == len(states) == len(reference) == count
    for row, st, ref in zip(rows, states, reference):
        for x, y, z in zip(row, st.components, ref):
            assert np.array_equal(x, z) and np.array_equal(y, z)
    # the stream continues where the one-probe-at-a-time loop leaves it
    assert rng_a.next_u64() == rng_b.next_u64() == rng_c.next_u64()


def test_no_probe_stack_exceeds_the_chunk_bound(monkeypatch):
    spec = ModelSpec("NWE", Grid((32, 32, 32), (16.0, 16.0, 16.0)),
                     WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
    seen = []
    energy_of = functionals.energy_of

    def recording_energy_of(spec_, comps, *spectrum):
        seen.append(comps[0].size)
        return energy_of(spec_, comps, *spectrum)

    evaluate = functionals.evaluate

    def recording_evaluate(spec_, comps):
        seen.append(comps[0].size)
        return evaluate(spec_, comps)

    # the power family's Gaussian potentials are polynomials in the
    # amplitude: no stack of amplitudes goes through the module's w_value
    potential_stacks = []
    w_value = functionals.w_value

    def recording_w_value(w_spec, s):
        potential_stacks.append(np.size(s))
        return w_value(w_spec, s)

    monkeypatch.setattr(functionals, "energy_of", recording_energy_of)
    monkeypatch.setattr(functionals, "evaluate", recording_evaluate)
    monkeypatch.setattr(functionals, "w_value", recording_w_value)
    monkeypatch.setattr("hylosolve.checkers.energy_of", recording_energy_of)
    monkeypatch.setattr("hylosolve.checkers.evaluate", recording_evaluate)
    params = choose_coercivity_params(spec, n_probes=3)
    penalized_probe_seed(spec, params, grid_size=3, refinements=0)
    assert potential_stacks == []
    _coercivity_floor_check(spec, params, SplitMix64(1).split("ec3i"), count=3)
    before = len(seen)
    _coercivity_growth_check(spec, params, SplitMix64(1).split("ec3ii"))
    _coercivity_vanishing_check(spec, params)
    _splitting_check(spec)
    assert len(seen) == before + 8 + 8 + 3  # one evaluate per ray point, amplitude and state
    assert len(seen) > 5
    assert max(seen) <= PROBE_CHUNK_POINTS
    for comps in probe_chunks(spec, SplitMix64(2), 3):
        assert all(c.size <= PROBE_CHUNK_POINTS for c in comps)


def test_saturating_potential_stacks_keep_the_chunk_bound(monkeypatch):
    # the saturating potential is summed per amplitude, on stacks of amplitudes
    spec = ModelSpec("NWE", Grid((32, 32, 32), (16.0, 16.0, 16.0)),
                     WSpec(1.0, Saturating(0.0, 2.0)))
    potential_stacks = []
    w_value = functionals.w_value

    def recording_w_value(w_spec, s):
        potential_stacks.append(np.size(s))
        return w_value(w_spec, s)

    monkeypatch.setattr(functionals, "w_value", recording_w_value)
    penalized_probe_seed(spec, PARAMS, grid_size=3, refinements=0)
    # one 32^3 probe per stack: 3 widths x 3 amplitudes, and the winner's own column
    assert len(potential_stacks) == 3 * 3 + 1
    assert max(potential_stacks) <= PROBE_CHUNK_POINTS


def test_demo_witness_sits_on_the_window_corner(nls_acceptance_spec):
    rep = hylomorphy_check(nls_acceptance_spec)
    assert (rep.witness["amplitude"], rep.witness["width"]) == (2.0, 5.0)
    assert rep.on_window_bound == ["amplitude_upper", "width_upper"]


def test_search_transform_budget(transform_sizes):
    # one transform of the 40 unit profiles of a pass as one stack, 3 passes;
    # the winner is evaluated again on its own (NWE: plus its pair parameter)
    nls = ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0)))
    hylomorphy_check(nls)
    assert transform_sizes == [40 * 512] * 3 + [512]
    del transform_sizes[:]
    penalized_probe_seed(nls, PARAMS)
    assert transform_sizes == [40 * 512] * 3 + [512]
    # evaluated probe by probe, the searches transformed 4800 rows on NLS and 9601 on NWE;
    # one transform per width column, 121 and 122
    nwe = ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
    del transform_sizes[:]
    hylomorphy_check(nwe)  # the witness's pair parameter is the winner's, not taken again
    assert transform_sizes == [40 * 256] * 3 + [256] * 2
    del transform_sizes[:]
    penalized_probe_seed(nwe, PARAMS)
    assert transform_sizes == [40 * 256] * 3 + [256] * 2


@pytest.mark.parametrize("spec", [
    ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
    ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
], ids=["NLS-512", "NWE-256"])
def test_full_size_tables_match_per_probe_evaluation(spec):
    # the first pass of both searches on the workload specs: the tables taken
    # from one transform per width agree with evaluating every probe alone
    amp_bounds, sig_bounds = default_probe_bounds(spec)
    amps, sigs = np.geomspace(*amp_bounds, 40), np.geomspace(*sig_bounds, 40)
    energies, charges = np.empty((40, 40)), np.empty((40, 40))
    for i, amp in enumerate(amps):
        for j, sig in enumerate(sigs):
            ev = evaluate(spec, functionals._gaussian_probe(spec, amp, sig)[0])
            energies[i, j], charges[i, j] = ev.energy, ev.charge
    for value in (functionals._ratio, lambda e, c: functionals.penalized_value(e, c, PARAMS)):
        table = np.column_stack([functionals._gaussian_values(spec, amps, sig, value)
                                 for sig in sigs])
        reference = value(energies, charges)
        assert np.all(np.abs(table - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))
        assert np.argmin(table) == np.argmin(reference)


POWER_GRIDS = {
    "NLS-512": ("NLS", Grid((512,), (40.0,))),
    "NWE-256": ("NWE", Grid((256,), (40.0,))),
    "NLS-2d": ("NLS", Grid((64, 32), (20.0, 10.0))),
}
POWER_FAMILIES = {
    "single-3": SinglePower(1.0, 3.0),
    "single-4": SinglePower(1.0, 4.0),
    "single-7.5": SinglePower(1.0, 7.5),
    "double": DoublePower(1.0, 4.0, 0.3, 6.0),
}


@pytest.mark.parametrize("m_sq", [0.0, 1.0])
@pytest.mark.parametrize("family", POWER_FAMILIES)
@pytest.mark.parametrize("where", POWER_GRIDS)
def test_power_potentials_match_the_quadrature(where, family, m_sq):
    # the closed form sums k A^e g^e over the family's terms; the reference
    # is the quadrature of W(A g) per amplitude, the form kept for the
    # saturating family
    tag, g = POWER_GRIDS[where]
    fam = POWER_FAMILIES[family]
    spec = ModelSpec(tag, g, WSpec(m_sq, fam))
    amp_bounds, (s_lo, s_hi) = default_probe_bounds(spec)
    amps = np.geomspace(*amp_bounds, 40)
    for sigma in (s_lo, np.sqrt(s_lo * s_hi), s_hi):
        profile = gaussian_profile(g, 1.0, sigma)
        moments = functionals._gaussian_sums(tag, g, [sigma], [e for e, _ in
                                                              functionals._power_terms(spec.w)])
        got = functionals._potential_integrals(spec, amps, [sigma], moments.powers)[:, 0]
        want = np.array([integrate(g, w_value(spec.w, a * profile)) for a in amps])
        terms = [0.5 * m_sq * amps**2 * integrate(g, profile**2),
                 fam.b / fam.p * amps**fam.p * integrate(g, profile**fam.p)]
        if isinstance(fam, DoublePower):
            terms.append(fam.c / fam.q_tilde * amps**fam.q_tilde
                         * integrate(g, profile**fam.q_tilde))
        larger = np.max(np.abs(terms), axis=0)
        assert got.shape == amps.shape
        assert np.all(np.abs(got - want) <= 1e-13 * larger)


def _reference_shift_change(spec, rng, count):
    """EC-2's sampling one probe at a time: amplitude draw, one random
    probe with its spectrum, shift draws, then E and C of the probe from
    that spectrum and one evaluate of its shift."""
    worst, worst_case = 0.0, None
    axes = tuple(range(spec.grid.dim))
    for _ in range(count):
        amp = 0.1 + 2.0 * rng.uniform()
        probe = next(probe_chunks(spec, rng, 1, amp_range=(amp, amp * 1.0000001), scan=True))
        comps = tuple(c[0] for c in probe.components)
        z = tuple(int(v) for v in rng.integers(spec.grid.dim, max(spec.grid.n)))
        spectrum = probe.spectrum[0]
        here = energy_of(spec, comps, spectrum), charge_of(spec, comps, spectrum)
        moved = evaluate(spec, tuple(np.roll(c, z, axis=axes) for c in comps))
        for a, b, name in ((here[0], moved.energy, "E"), (here[1], moved.charge, "C")):
            a, b = float(a), float(b)
            rel = abs(a - b) / max(1.0, abs(a))
            if rel > worst:
                worst, worst_case = rel, {"functional": name, "shift": list(z), "rel": rel}
    return worst, worst_case


@pytest.mark.parametrize("spec, count", [
    (ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))), 50),
    # 8 probes per stack: two full stacks and a partial one
    (ModelSpec("NLS", Grid((4096,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))), 20),
    (ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))), 50),
    (SPECS["NBE-saturating"], 50),
    (ModelSpec("NLS", Grid((32, 16), (5.0, 3.0)), WSpec(1.0, SinglePower(1.0, 3.0))), 50),
    # one probe per stack
    (ModelSpec("NWE", Grid((32, 32, 32), (16.0, 16.0, 16.0)),
               WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))), 3),
], ids=["NLS-512", "NLS-4096", "NWE-256", "NBE-64", "NLS-2d", "NWE-32^3"])
def test_stacked_shift_check_matches_one_probe_at_a_time(spec, count):
    rng_a, rng_b, rng_c = (SplitMix64(6).split("ec2") for _ in range(3))
    worst, case = _largest_shift_change(spec, rng_a, count)
    ref_worst, ref_case = _reference_shift_change(spec, rng_b, count)
    assert worst == ref_worst and case == ref_case
    assert worst > 0.0  # a rounding-level change, so the case is compared too
    result = _shift_invariance_check(spec, rng_c, count)
    assert result.verdict == "pass" and result.parameters["worst_rel"] == ref_worst
    # the stream continues where the one-probe-at-a-time loop leaves it
    assert rng_a.next_u64() == rng_b.next_u64() == rng_c.next_u64()
