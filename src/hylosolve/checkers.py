"""One-stop hypothesis audit.

Runs the structural checks every downstream result leans on (zero-state
normalization, shift invariance, coercivity, disjoint-support splitting,
potential conditions, the Gaussian-family interpolation constant, and the
hylomorphy verdict) under a probe budget, and emits a machine-readable
certificate.  Failures are verdicts with counterexample descriptors, not
exceptions; the CLI pipeline gates continuation runs on the certificate.
The coercivity floor (EC-3i) is tested on the closed-form plateau at a dip
of W (NWE and NBE), a random scan whose size the grid bounds, a fixed-mass
width sweep and a Gaussian-family descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import Inadmissible
from .functionals import (RANDOM_SCAN_POINTS, PenaltyParams, _chunk_rows, _gaussian_components,
                          _probe_draws, _probe_stack, bulk_descent, choose_coercivity_params,
                          gaussian_profile, hylomorphy_check, nash_check, probe_chunks)
from .grid import COMPONENT_NAMES, NBE, NLS, NWE, min_image_distances
from .models import (ModelSpec, charge, charge_of, energy, energy_of, evaluate, grad_charge,
                     grad_energy)
from .nonlinearity import DoublePower, SinglePower, check_w_conditions, w_dip, w_value
from .rng import SplitMix64, uniform_from_bits

__all__ = ["CheckResult", "HypothesisCertificate", "audit", "gate_passed"]

GATE_IDS = ("EC-1", "EC-2", "EC-3i", "EC-3ii", "EC-3iii", "EC-4-disjoint", "hh")

_THEOREM_FOR_TAG = {NLS: "NSE", NWE: "NWE", NBE: "NBE"}


@dataclass(frozen=True)
class CheckResult:
    verdict: str  # pass | fail | skipped
    kind: str     # analytic | sampled | probe-family
    parameters: dict = field(default_factory=dict)
    counterexample: dict | None = None


@dataclass
class HypothesisCertificate:
    model_tag: str
    results: dict[str, CheckResult]
    budget: int
    seed: int
    params: dict

    def passed(self, check_id: str) -> bool:
        res = self.results.get(check_id)
        return res is not None and res.verdict == "pass"


def gate_passed(cert: HypothesisCertificate) -> bool:
    """The continuation gate: core structural checks plus hylomorphy."""
    return all(cert.passed(cid) for cid in GATE_IDS)


def _zero_state_check(spec: ModelSpec) -> CheckResult:
    zero = spec.zero_state()
    vals = {
        "E0": energy(spec, zero),
        "C0": charge(spec, zero),
        "gradE0": max(float(np.abs(c).max()) for c in grad_energy(spec, zero).components),
        "gradC0": max(float(np.abs(c).max()) for c in grad_charge(spec, zero).components),
    }
    ok = all(v == 0.0 for v in vals.values())
    return CheckResult("pass" if ok else "fail", "analytic", vals,
                       None if ok else vals)


def _largest_shift_change(spec: ModelSpec, rng: SplitMix64, count: int):
    """The largest relative change of E or C under a lattice shift over
    count random probes, and its first case (None while no change is
    positive); the case is the first non-finite change instead, if any.

    Each probe takes a fixed number of draws: its amplitude, the draws of a
    random probe (functionals._probe_draws) and one per axis for its shift.
    A stack of _chunk_rows probes takes one block of the stream; its E and
    C come from the spectrum its draw carries unshifted and from one
    evaluate shifted, so every probe gets the draws and the values it would
    get alone."""
    g = spec.grid
    per_probe = _probe_draws(spec)
    per_item = 1 + per_probe + g.dim
    axes = tuple(range(-g.dim, 0))
    step = _chunk_rows(g)
    buffers = {}
    worst = 0.0
    worst_case = None
    non_finite = None
    for start in range(0, count, step):
        rows = min(step, count - start)
        bits = rng.next_block_u64(rows * per_item).reshape(rows, per_item)
        amp = 0.1 + 2.0 * uniform_from_bits(bits[:, 0])
        stack = _probe_stack(spec, bits[:, 1:1 + per_probe], np.log(amp),
                             np.log(amp * 1.0000001), buffers)
        comps, spectrum = stack.components, stack.spectrum
        shifts = (bits[:, 1 + per_probe:] % np.uint64(max(g.n))).astype(np.int64)
        moved = tuple(np.stack([np.roll(row, tuple(z), axis=axes) for row, z in zip(c, shifts)])
                      for c in comps)
        there = evaluate(spec, moved)
        # per probe, E then C: the first largest relative change wins
        rel = np.column_stack([np.abs(a - b) / np.maximum(1.0, np.abs(a)) for a, b in (
            (energy_of(spec, comps, spectrum), there.energy),
            (charge_of(spec, comps, spectrum), there.charge))]).ravel()
        finite = np.isfinite(rel)
        if non_finite is None and not finite.all():
            k = int(np.argmin(finite))
            non_finite = {"source": "non-finite", "probe": start + k // 2,
                          "functional": ("E", "C")[k % 2],
                          "shift": [int(v) for v in shifts[k // 2]]}
        k = int(np.argmax(np.where(finite, rel, -np.inf)))
        if rel[k] > worst:
            worst = float(rel[k])
            worst_case = {"functional": ("E", "C")[k % 2],
                          "shift": [int(v) for v in shifts[k // 2]], "rel": worst}
    return worst, non_finite or worst_case


def _shift_invariance_check(spec: ModelSpec, rng: SplitMix64, count: int) -> CheckResult:
    """EC-2: E and C of random probes are unchanged by lattice shifts."""
    worst, worst_case = _largest_shift_change(spec, rng, count)
    ok = worst <= 1e-12 and (worst_case or {}).get("source") != "non-finite"
    return CheckResult("pass" if ok else "fail", "sampled",
                       {"states": count, "worst_rel": worst},
                       None if ok else worst_case)


def _random_probe(spec: ModelSpec, rng: SplitMix64, amplitude: float) -> tuple:
    """The components of one random probe at this amplitude."""
    comps = next(probe_chunks(spec, rng, 1, amp_range=(amplitude, amplitude * 1.0000001)))
    return tuple(comp[0] for comp in comps)


def _drawn_probe(stack, start: int, k: int) -> dict:
    """What redraws row k of a probe stack whose first row is probe start of
    its scan: the probe's index, amplitude and band limit."""
    return {"probe": start + k, "amplitude": float(stack.amplitude[k]),
            "band": int(stack.band[k])}


def _bulk_of(params: PenaltyParams, e, c):
    """E + a|C|^s from E and C (scalars or arrays)."""
    return e + params.a * abs(c) ** params.s_exp


def _measured(spec: ModelSpec, comps) -> tuple[float, float, float]:
    """E, signed C and the phase-space norm of one state, from one evaluate."""
    ev = evaluate(spec, comps)
    return float(ev.energy), float(ev.charge), float(ev.x_norm)


def _gaussian_bulk(spec: ModelSpec, params: PenaltyParams, bump: np.ndarray):
    """E + a|C|^s and the phase-space norm of the Gaussian probe with this
    bump and a still second component."""
    e, c, norm = _measured(spec, _gaussian_components(spec, bump, 0.0))
    return _bulk_of(params, e, c), norm


def _coercivity_floor_check(spec: ModelSpec, params: PenaltyParams,
                            rng: SplitMix64, count: int) -> CheckResult:
    """EC-3i: E + a|C|^s >= 0 on the plateau at a dip of W (NWE and NBE),
    count random probes, a fixed-mass width sweep and a descent of the
    Gaussian family (functionals.bulk_descent).

    The plateau at a dip s0 of W (nonlinearity.w_dip), field s0 and second
    component 0, has C = 0 and E = |box| W(s0) < 0 for every a: no
    coefficient exists, and the plateau is the counterexample, with its s0,
    W, E and C.  (On NLS its charge |box| s0^2 is positive, so the other
    sources test it.)  Otherwise the width sweep is the supercriticality
    detector: at fixed charge the energy of a bump narrowing from L/8 to 3
    cells (to one cell where 3 are wider than L/8) must stay floored,
    otherwise the trend is the counterexample.  Otherwise it is the first
    random probe below the floor, named by its index in the scan, its
    amplitude and its band so that it can be redrawn.  Otherwise it is the
    descent's end, with its bulk, width, amplitude, charge, the window
    bounds it sits on and the columns it took.  The descent starts from the
    sweep's lowest state and searches widths from one cell to L/8 with
    amplitudes up to 16 times the sweep's charge: the ground states of a
    too small a concentrate there.  A non-finite value fails the check
    before any of them, with a `non-finite` counterexample.  The parameters
    give count as `probes`, the lowest value of all of them as `min_bulk`,
    the sweep and the descent's end."""
    tol = 1e-9
    worst = np.inf
    non_finite = below = plateau = None
    s0 = None if spec.model_tag == NLS else w_dip(spec.w)
    if s0 is not None:
        w = float(w_value(spec.w, s0))
        worst = math.prod(spec.grid.box_length) * w
        if worst < -tol:
            plateau = {"source": "plateau", "s0": s0, "W": w, "E": worst, "C": 0.0}
    start = 0
    for stack in probe_chunks(spec, rng, count, scan=True):
        comps, spectrum = stack.components, stack.spectrum
        vals = _bulk_of(params, energy_of(spec, comps, spectrum),
                        charge_of(spec, comps, spectrum))
        finite = np.isfinite(vals)
        worst = min(worst, float(np.min(vals, initial=np.inf, where=finite)))
        if non_finite is None and not finite.all():
            non_finite = _drawn_probe(stack, start, int(np.argmin(finite)))
        if below is None and np.any(vals < -tol):
            k = int(np.argmax(vals < -tol))
            below = {"source": "random-probe", **_drawn_probe(stack, start, k),
                     "value": float(vals[k])}
        start += len(vals)
    g = spec.grid
    sig_hi = min(g.box_length) / 8.0
    cell = min(max(g.spacing), sig_hi)
    # narrowing to 3 cells, or to one where 3 are wider than L/8
    sig_lo = max(3.0 * cell if 3.0 * cell <= sig_hi else cell, sig_hi / 32.0)
    sweep = []
    mass_scale = 2.0
    for sigma in np.geomspace(sig_hi, sig_lo, 8):
        amp = mass_scale * (sig_hi / sigma) ** (g.dim / 2.0)
        bulk, _ = _gaussian_bulk(spec, params, gaussian_profile(g, amp, sigma))
        sweep.append((float(sigma), bulk))
    sweep_vals = np.array([v for _, v in sweep])
    finite = np.isfinite(sweep_vals)
    worst = min(worst, float(np.min(sweep_vals, initial=np.inf, where=finite)))
    if non_finite is None and not finite.all():
        non_finite = {"sweep": sweep}
    if np.any(sweep_vals < -tol):
        below = {"source": "width-sweep", "sweep": sweep,
                 "trend": "bulk decreases without floor as width shrinks"}
    # the descent starts from the sweep's lowest state; its amplitudes reach
    # 16 times the sweep's charge at every width of its window
    sigma = sweep[int(np.argmin(np.where(finite, sweep_vals, np.inf)))][0]
    descent = bulk_descent(spec, params, sigma, (cell, sig_hi), (
        mass_scale / 16.0, 4.0 * mass_scale * (sig_hi / cell) ** (g.dim / 2.0)))
    descent_non_finite = descent.pop("non_finite")
    worst = min(worst, descent["bulk"])
    if non_finite is None and descent_non_finite:
        non_finite = {"descent": descent_non_finite}
    if below is None and descent["bulk"] < -tol:
        below = {"source": "family-descent", **descent}
    bad = {"source": "non-finite", **non_finite} if non_finite else plateau or below
    return CheckResult("pass" if bad is None else "fail", "sampled",
                       {"probes": count, "min_bulk": float(worst), "width_sweep": sweep,
                        "family_descent": descent},
                       bad)


def _coercivity_growth_check(spec: ModelSpec, params: PenaltyParams,
                             rng: SplitMix64) -> CheckResult:
    """EC-3ii: the bulk diverges along norm-growing rays."""
    base = _random_probe(spec, rng, 0.5)
    factors = np.geomspace(1.0, 32.0, 8)
    vals = [_bulk_of(params, *_measured(spec, tuple(f * c for c in base))[:2])
            for f in factors]
    tail_increasing = all(b > a for a, b in zip(vals[-4:], vals[-3:]))
    ok = tail_increasing and vals[-1] > 10.0 * max(1.0, abs(vals[0]))
    return CheckResult("pass" if ok else "fail", "sampled",
                       {"factors": list(map(float, factors)), "values": list(map(float, vals))},
                       None if ok else {"values": list(map(float, vals))})


def _coercivity_vanishing_check(spec: ModelSpec, params: PenaltyParams) -> CheckResult:
    """EC-3iii: bulk -> 0 along shrinking amplitudes forces the norm to 0."""
    g = spec.grid
    sigma = min(g.box_length) / 10.0
    amps = 0.2 * 2.0 ** (-np.arange(8))
    bulks, norms = zip(*(_gaussian_bulk(spec, params, gaussian_profile(g, a, sigma))
                         for a in amps))
    bulk_to_zero = abs(bulks[-1]) <= 1e-3 * max(abs(bulks[0]), 1e-30)
    monotone = all(b < a for a, b in zip(norms, norms[1:]))
    ok = bulk_to_zero and monotone and norms[-1] < norms[0]
    return CheckResult("pass" if ok else "fail", "sampled",
                       {"bulks": list(map(float, bulks)), "xnorms": list(map(float, norms))},
                       None if ok else {"bulks": list(map(float, bulks))})


def _disjoint_support_bump(spec: ModelSpec, center_frac: float) -> np.ndarray:
    """Gaussian truncated to a quarter-box window: supports are exactly
    disjoint and the truncation happens below machine precision."""
    g = spec.grid
    sigma = min(g.box_length) / 24.0
    center = tuple(f * center_frac for f in g.box_length)
    bump = gaussian_profile(g, 1.0, sigma, center=center)
    window = np.ones(g.n, dtype=bool)
    for axis, d in enumerate(min_image_distances(g, center)):
        window &= (d < g.box_length[axis] / 4.0 - 2.0 * g.spacing[axis])
    return np.where(window, bump, 0.0)


def _splitting_check(spec: ModelSpec) -> CheckResult:
    """EC-4 at its discretely exact instance: disjoint-support additivity."""
    left = _disjoint_support_bump(spec, 0.25)
    right = 0.7 * _disjoint_support_bump(spec, 0.75)
    if spec.model_tag == NLS:
        mk = lambda f: (f.astype(np.complex128),)
    elif spec.model_tag == NWE:
        mk = lambda f: (f.astype(np.complex128), 0.3j * f)
    else:
        mk = lambda f: (f, 0.3 * f)
    u, w = mk(left), mk(right)
    both = tuple(a + b for a, b in zip(u, w))
    (e_u, c_u, _), (e_w, c_w, _), (e_both, c_both, _) = (
        _measured(spec, x) for x in (u, w, both))
    rel_e = abs(e_both - e_u - e_w) / max(1.0, abs(e_both))
    rel_c = abs(c_both - c_u - c_w) / max(1.0, abs(c_both))
    ok = rel_e <= 1e-10 and rel_c <= 1e-10
    return CheckResult("pass" if ok else "fail", "sampled",
                       {"rel_energy": rel_e, "rel_charge": rel_c,
                        "note": "disjoint-support instance only"},
                       None if ok else {"rel_energy": rel_e, "rel_charge": rel_c})


def _nash_stability_check(spec: ModelSpec) -> CheckResult:
    fam = spec.w.family
    if spec.model_tag != NLS or not isinstance(fam, (SinglePower, DoublePower)):
        return CheckResult("skipped", "analytic",
                           {"reason": "interpolation constant probed for NLS power families only"})
    try:
        b_emp = nash_check(spec.grid, fam.p)
    except Inadmissible as err:  # a supercritical power
        return CheckResult("skipped", "analytic", {"reason": str(err)})
    ok = np.isfinite(b_emp) and b_emp > 0.0
    return CheckResult("pass" if ok else "fail", "probe-family",
                       {"b_emp": b_emp,
                        "note": "Gaussian-family lower bound of the sharp constant"},
                       None if ok else {"b_emp": b_emp})


def audit(spec: ModelSpec, params: PenaltyParams | None = None,
          budget: int = 10000, seed: int = 0) -> HypothesisCertificate:
    """Run every hypothesis check under the probe budget.

    budget = 0 marks everything skipped.  When params is omitted the
    coercivity parameters are those of choose_coercivity_params, which
    draws nothing; if no admissible exponent exists (supercritical power)
    fixed ones are used so the coercivity checks can exhibit their
    counterexample.  The random probes of EC-2 and of EC-3i's scan take
    min(budget, 50) and min(budget, 2000) probes, fewer where they would
    transform more than RANDOM_SCAN_POINTS grid points (one probe at
    least): 50 and 256 on NLS 512 and NWE 256, one each on 64^3.
    """
    results: dict[str, CheckResult] = {}
    params_note = {}
    if budget <= 0:
        for cid in GATE_IDS + ("W-conditions", "Nash"):
            results[cid] = CheckResult("skipped", "analytic", {"reason": "zero budget"})
        return HypothesisCertificate(spec.model_tag, results, budget, seed, params_note)
    if params is None:
        try:
            params = choose_coercivity_params(spec)
            params_note["source"] = "auto"
        except ValueError as err:
            params = PenaltyParams(delta=0.01, a=1.0, s_exp=2.0)
            params_note["source"] = f"fallback ({err})"
    params_note.update(delta=params.delta, a=params.a, s_exp=params.s_exp)
    root = SplitMix64(seed)
    results["EC-1"] = _zero_state_check(spec)
    scan = RANDOM_SCAN_POINTS // (len(COMPONENT_NAMES[spec.model_tag]) * spec.grid.size)
    results["EC-2"] = _shift_invariance_check(spec, root.split("ec2"),
                                              count=max(1, min(budget, 50, scan)))
    results["EC-3i"] = _coercivity_floor_check(spec, params, root.split("ec3i"),
                                               count=max(1, min(budget, 2000, scan)))
    results["EC-3ii"] = _coercivity_growth_check(spec, params, root.split("ec3ii"))
    results["EC-3iii"] = _coercivity_vanishing_check(spec, params)
    results["EC-4-disjoint"] = _splitting_check(spec)
    wreport = check_w_conditions(spec.w, _THEOREM_FOR_TAG[spec.model_tag],
                                 dim=spec.grid.dim)
    results["W-conditions"] = CheckResult(
        "pass" if wreport.all_passed() else "fail", "analytic",
        {k: {"passed": v.passed, "kind": v.kind, "witness": v.witness}
         for k, v in wreport.conditions.items()},
        None if wreport.all_passed() else
        {k: v.detail for k, v in wreport.conditions.items() if not v.passed})
    results["Nash"] = _nash_stability_check(spec)
    hylo = hylomorphy_check(spec)
    results["hh"] = CheckResult(
        "pass" if hylo.verdict else "fail", "probe-family",
        {"lambda0_estimate": hylo.lambda0_estimate, "best_ratio": hylo.best_ratio,
         "margin": hylo.margin, "note": hylo.note, "witness": hylo.witness,
         "on_window_bound": hylo.on_window_bound},
        None if hylo.verdict else {"best_ratio": hylo.best_ratio,
                                   "lambda0_estimate": hylo.lambda0_estimate})
    return HypothesisCertificate(spec.model_tag, results, budget, seed, params_note)
