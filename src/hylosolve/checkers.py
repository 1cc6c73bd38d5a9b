"""One-stop hypothesis audit.

Runs the structural checks every downstream result leans on (zero-state
normalization, shift invariance, coercivity, disjoint-support splitting,
potential conditions, the Gaussian-family interpolation constant, and the
hylomorphy verdict) and emits a machine-readable certificate.  Failures are
verdicts with counterexample descriptors, not exceptions; the CLI pipeline
gates continuation runs on the certificate.  No check draws a random state:
shift invariance (EC-2) is an exact identity, tested on two off-centre
Gaussians, and the coercivity checks test the infima that concentrating
bumps approach, on the closed-form plateau at a dip of W (NWE and NBE), a
fixed-mass width sweep and a Gaussian-family descent (EC-3i) and on one
Gaussian amplitude column (EC-3ii and EC-3iii).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import Inadmissible
from .functionals import (PenaltyParams, _gaussian_components, bulk_descent,
                          choose_coercivity_params, gaussian_bulk_column, gaussian_profile,
                          hylomorphy_check, nash_check)
from .grid import NBE, NLS, NWE, min_image_distances
from .models import ModelSpec, charge, energy, evaluate, grad_charge, grad_energy
from .nonlinearity import DoublePower, SinglePower, check_w_conditions, w_dip, w_value

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


def _bulk_of(params: PenaltyParams, e, c):
    """E + a|C|^s from E and C (scalars or arrays)."""
    return e + params.a * abs(c) ** params.s_exp


def _measured(spec: ModelSpec, comps) -> tuple[float, float, float]:
    """E, signed C and the phase-space norm of one state, from one evaluate."""
    ev = evaluate(spec, comps)
    return float(ev.energy), float(ev.charge), float(ev.x_norm)


def _shift_invariance_check(spec: ModelSpec) -> CheckResult:
    """EC-2: a lattice shift leaves E and C unchanged.

    Two off-centre Gaussian probes (centre at 0.3 L on every axis, amplitude
    1, one cell and L/8 wide, the second component at pair parameter 0.5)
    are each valued by one evaluate as built and one after a roll of
    n // 3 + 1 cells along every axis, one state at a time.  The check fails
    when E or C changes by more than 1e-12 relative, naming the width, the
    functional, the shift and the change, or first on a non-finite value."""
    g = spec.grid
    widths = (max(g.spacing), min(g.box_length) / 8.0)
    center = tuple(0.3 * L for L in g.box_length)
    shift = tuple(n // 3 + 1 for n in g.n)
    worst = 0.0
    worst_case = non_finite = None
    for sigma in widths:
        comps = _gaussian_components(spec, gaussian_profile(g, 1.0, sigma, center=center), 0.5)
        here = _measured(spec, comps)
        there = _measured(spec, tuple(np.roll(c, shift, axis=g.axes) for c in comps))
        for name, a, b in zip(("E", "C"), here, there):
            rel = abs(a - b) / max(1.0, abs(a))
            case = {"width": float(sigma), "functional": name, "shift": list(shift)}
            if not math.isfinite(rel):
                non_finite = non_finite or {"source": "non-finite", **case}
            elif rel > worst:
                worst, worst_case = rel, {**case, "rel": rel}
    bad = non_finite or (worst_case if worst > 1e-12 else None)
    return CheckResult("pass" if bad is None else "fail", "sampled",
                       {"widths": list(widths), "shift": list(shift), "worst_rel": worst}, bad)


def _gaussian_bulk(spec: ModelSpec, params: PenaltyParams, bump: np.ndarray) -> float:
    """E + a|C|^s of the Gaussian probe with this bump and a still second
    component."""
    e, c, _ = _measured(spec, _gaussian_components(spec, bump, 0.0))
    return _bulk_of(params, e, c)


def _coercivity_floor_check(spec: ModelSpec, params: PenaltyParams) -> CheckResult:
    """EC-3i: E + a|C|^s >= 0 on the plateau at a dip of W (NWE and NBE), a
    fixed-mass width sweep and a descent of the Gaussian family
    (functionals.bulk_descent).

    The plateau at a dip s0 of W (nonlinearity.w_dip), field s0 and second
    component 0, has C = 0 and E = |box| W(s0) < 0 for every a: no
    coefficient exists, and the plateau is the counterexample, with its s0,
    W, E and C.  (On NLS its charge |box| s0^2 is positive, so the other
    sources test it.)  Otherwise the width sweep is the supercriticality
    detector: at fixed charge the energy of a bump narrowing from L/8 to 3
    cells (to one cell where 3 are wider than L/8) must stay floored,
    otherwise the trend is the counterexample.  Otherwise it is the
    descent's end, with its bulk, width, amplitude, charge, the window
    bounds it sits on and the columns it took.  The descent starts from the
    sweep's lowest state and searches widths from one cell to L/8 with
    amplitudes up to 16 times the sweep's charge: the ground states of a
    too small a concentrate there, and the infimum of the bulk is
    approached by concentrating bumps (Lions, Ann. IHP 1 (1984) 109).  A
    non-finite value fails the check before any of them, with a
    `non-finite` counterexample.  The parameters give the lowest value of
    all of them as `min_bulk`, the sweep and the descent's end."""
    tol = 1e-9
    worst = np.inf
    non_finite = below = plateau = None
    s0 = None if spec.model_tag == NLS else w_dip(spec.w)
    if s0 is not None:
        w = float(w_value(spec.w, s0))
        worst = math.prod(spec.grid.box_length) * w
        if worst < -tol:
            plateau = {"source": "plateau", "s0": s0, "W": w, "E": worst, "C": 0.0}
    g = spec.grid
    sig_hi = min(g.box_length) / 8.0
    cell = min(max(g.spacing), sig_hi)
    # narrowing to 3 cells, or to one where 3 are wider than L/8
    sig_lo = max(3.0 * cell if 3.0 * cell <= sig_hi else cell, sig_hi / 32.0)
    sweep = []
    mass_scale = 2.0
    for sigma in np.geomspace(sig_hi, sig_lo, 8):
        amp = mass_scale * (sig_hi / sigma) ** (g.dim / 2.0)
        bulk = _gaussian_bulk(spec, params, gaussian_profile(g, amp, sigma))
        sweep.append((float(sigma), bulk))
    sweep_vals = np.array([v for _, v in sweep])
    finite = np.isfinite(sweep_vals)
    worst = min(worst, float(np.min(sweep_vals, initial=np.inf, where=finite)))
    if not finite.all():
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
                       {"min_bulk": float(worst), "width_sweep": sweep,
                        "family_descent": descent},
                       bad)


def _coercivity_ray_checks(spec: ModelSpec, params: PenaltyParams) -> tuple:
    """EC-3ii (the bulk diverges along a norm-growing ray) and EC-3iii (a
    bulk tending to 0 along shrinking amplitudes forces the norm to 0), on
    one column of Gaussian probes L/10 wide with a still second component
    (functionals.gaussian_bulk_column): the ray takes the amplitudes
    0.5 geomspace(1, 32, 8), the shrinking sequence 0.2 2^-k, k = 0..7."""
    factors = np.geomspace(1.0, 32.0, 8)
    amps = np.concatenate([0.5 * factors, 0.2 * 2.0 ** (-np.arange(8))])
    sigma = min(spec.grid.box_length) / 10.0
    bulks, _, norms = gaussian_bulk_column(spec, params, amps, sigma)
    vals = list(map(float, bulks[:8]))
    tail_increasing = all(b > a for a, b in zip(vals[-4:], vals[-3:]))
    ok = tail_increasing and vals[-1] > 10.0 * max(1.0, abs(vals[0]))
    growth = CheckResult("pass" if ok else "fail", "sampled",
                         {"factors": list(map(float, factors)), "values": vals},
                         None if ok else {"values": vals})
    # the shrinking amplitudes
    bulks = list(map(float, bulks[8:]))
    norms = list(map(float, norms[8:]))
    bulk_to_zero = abs(bulks[-1]) <= 1e-3 * max(abs(bulks[0]), 1e-30)
    monotone = all(b < a for a, b in zip(norms, norms[1:]))
    ok = bulk_to_zero and monotone and norms[-1] < norms[0]
    vanishing = CheckResult("pass" if ok else "fail", "sampled",
                            {"bulks": bulks, "xnorms": norms},
                            None if ok else {"bulks": bulks})
    return growth, vanishing


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
          budget: int = 10000) -> HypothesisCertificate:
    """Run every hypothesis check; the certificate depends on the model, the
    parameters and the budget alone, as no check draws anything.

    budget = 0 (or less) marks everything skipped.  When params is omitted
    the coercivity parameters are those of choose_coercivity_params; if no
    admissible exponent exists (supercritical power) fixed ones are used so
    the coercivity checks can exhibit their counterexample.
    """
    results: dict[str, CheckResult] = {}
    params_note = {}
    if budget <= 0:
        for cid in GATE_IDS + ("W-conditions", "Nash"):
            results[cid] = CheckResult("skipped", "analytic", {"reason": "zero budget"})
        return HypothesisCertificate(spec.model_tag, results, budget, params_note)
    if params is None:
        try:
            params = choose_coercivity_params(spec)
            params_note["source"] = "auto"
        except ValueError as err:
            params = PenaltyParams(delta=0.01, a=1.0, s_exp=2.0)
            params_note["source"] = f"fallback ({err})"
    params_note.update(delta=params.delta, a=params.a, s_exp=params.s_exp)
    results["EC-1"] = _zero_state_check(spec)
    results["EC-2"] = _shift_invariance_check(spec)
    results["EC-3i"] = _coercivity_floor_check(spec, params)
    results["EC-3ii"], results["EC-3iii"] = _coercivity_ray_checks(spec, params)
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
    return HypothesisCertificate(spec.model_tag, results, budget, params_note)
