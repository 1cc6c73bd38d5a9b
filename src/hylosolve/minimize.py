"""Descent machinery for the penalized objective and its constrained refinement.

Two phases mirror the structure of the existence argument: free descent on
j_delta globalizes toward the right charge level, then projected descent on
the energy at that fixed charge sharpens the multiplier residual.  The
charge is restored after every constrained step by rescaling the component
the charge is linear (NWE/NBE) or quadratic (NLS) in, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import NearZeroCharge, NumericalFailure
from .functionals import (PenaltyParams, choose_coercivity_params, j_delta,
                          lambda0_estimate, penalized_probe_seed, penalized_terms)
from .grid import NLS, FieldState, orbit_distance, symbols, x_norm as state_x_norm
from .models import ModelSpec, charge, energy, grad_charge, grad_energy, l2_inner, l2_norm

__all__ = [
    "MinimizeOptions", "MinimizeResult", "ContinuationResult",
    "minimize_jdelta", "refine_constrained", "delta_continuation",
]

_MIN_STEP = 1e-18
_EPS = float(np.finfo(np.float64).eps)
_STALL_LIMIT = 25  # accepted steps with float-resolution improvement


def _noise_level(value: float) -> float:
    return 64.0 * _EPS * (1.0 + abs(value))


@dataclass(frozen=True)
class MinimizeOptions:
    """Iteration budget, gradient tolerance, and Armijo line-search constants."""

    max_iters: int = 20000
    grad_tol: float = 1e-8
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    initial_step: float = 1.0

    def __post_init__(self):
        if min(self.max_iters, self.grad_tol, self.armijo_c1, self.initial_step) <= 0:
            raise ValueError("options must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack factor must lie in (0, 1)")


@dataclass
class MinimizeResult:
    state: FieldState
    e_delta: float
    c_delta: float
    j_value: float
    lambda_mult: float
    kkt_residual: float
    iters: int
    converged: bool
    log: list[tuple[int, float, float, float]] = field(default_factory=list)
    # log rows: (iteration, objective, accepted step, gradient norm)


def _axpy(state: FieldState, t: float, direction: FieldState) -> FieldState:
    return state.replace_components(tuple(
        a + t * d for a, d in zip(state.components, direction.components)))


def _precondition(g: FieldState) -> FieldState:
    """Descent direction in the phase-space metric: divide each component's
    spectrum by the metric weight (1 + the kinetic symbol for the field, 1
    for the velocity-like component).

    Plain L2 steps are limited by the largest spectral curvature, so the
    highest modes hover at the stability edge and the gradient stalls well
    above tolerance; in this metric every mode contracts at an O(1) rate.
    """
    comps = []
    for c, w in zip(g.components, symbols(g.model_tag, g.grid).weights):
        d = np.fft.ifftn(np.fft.fftn(c) / w)
        comps.append(d.real if not np.iscomplexobj(c) else d)
    return g.replace_components(tuple(comps))


def _identical(a: FieldState, b: FieldState) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.components, b.components))


def _scale_component(state: FieldState, index: int, factor: float) -> FieldState:
    comps = list(state.components)
    comps[index] = comps[index] * factor
    return state.replace_components(tuple(comps))


def _grad_j(spec: ModelSpec, state: FieldState, params: PenaltyParams,
            e: float, c: float) -> FieldState:
    ge = grad_energy(spec, state)
    gc = grad_charge(spec, state)
    sgn = 1.0 if c >= 0 else -1.0
    coef_e = 1.0 / abs(c) + params.delta
    coef_c = sgn * (-e / c**2
                    + params.delta * 2.0 * params.a * params.s_exp * abs(c) ** (params.s_exp - 1.0))
    return state.replace_components(tuple(
        coef_e * a + coef_c * b for a, b in zip(ge.components, gc.components)))


def _kkt(spec: ModelSpec, state: FieldState) -> tuple[float, float]:
    """(multiplier, residual) of the stationarity system gradE = lam gradC."""
    ge = grad_energy(spec, state)
    gc = grad_charge(spec, state)
    gc_sq = l2_inner(gc, gc)
    lam = l2_inner(ge, gc) / gc_sq if gc_sq > 0 else 0.0
    resid = _axpy(ge, -lam, gc)
    return lam, l2_norm(resid) / (1.0 + l2_norm(ge))


def _stall_converged(spec: ModelSpec, u: FieldState, opts: MinimizeOptions) -> bool:
    """Descent stopped at the float-resolution floor of the objective; call
    it converged iff the stationarity residual meets the result contract
    (kkt <= 10 grad_tol (1 + x_norm))."""
    _, kkt = _kkt(spec, u)
    return kkt <= 10.0 * opts.grad_tol * (1.0 + state_x_norm(u))


def minimize_jdelta(spec: ModelSpec, params: PenaltyParams,
                    init: FieldState | None = None,
                    opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Armijo-backtracked gradient descent on the penalized objective.

    The accepted step seeds the next trial (doubled), so the search settles
    near the local curvature limit without rescanning from the initial
    step.  init=None seeds from the best Gaussian probe of the objective.
    """
    if init is None:
        init, _ = penalized_probe_seed(spec, params)
    u = init
    ju, e, c = penalized_terms(spec, u, params)
    step = opts.initial_step
    log: list[tuple[int, float, float, float]] = []
    converged = False
    iters = 0
    stalled = 0
    for it in range(opts.max_iters):
        gj = _grad_j(spec, u, params, e, c)
        gnorm = l2_norm(gj)
        if it == 0:
            log.append((0, ju, 0.0, gnorm))
        if not np.isfinite(gnorm):
            raise NumericalFailure("non-finite gradient in penalized descent")
        if gnorm <= opts.grad_tol * (1.0 + state_x_norm(u)):
            converged = True
            break
        if stalled >= _STALL_LIMIT:
            converged = _stall_converged(spec, u, opts)
            break
        direction = _precondition(gj)
        slope = l2_inner(gj, direction)  # > 0: the metric is positive
        t = step
        accepted = None
        while t >= _MIN_STEP:
            try:
                trial = _axpy(u, -t, direction)
                if _identical(trial, u):  # step below float resolution
                    break
                jt, et, ct = penalized_terms(spec, trial, params)
            except (NearZeroCharge, ValueError):
                t *= opts.backtrack
                continue
            if jt <= ju - opts.armijo_c1 * t * slope:
                accepted = (trial, jt, et, ct)
                break
            t *= opts.backtrack
        if accepted is None:
            # objective improvements fell below float resolution: stationary
            # up to the measurable floor
            converged = _stall_converged(spec, u, opts)
            break
        stalled = stalled + 1 if ju - accepted[1] <= _noise_level(ju) else 0
        u, ju, e, c = accepted
        iters = it + 1
        step = t / opts.backtrack
        log.append((iters, ju, t, gnorm))
    else:
        gj = _grad_j(spec, u, params, e, c)
        converged = l2_norm(gj) <= opts.grad_tol * (1.0 + state_x_norm(u))
    lam, kkt = _kkt(spec, u)
    return MinimizeResult(state=u, e_delta=e, c_delta=abs(c), j_value=ju,
                          lambda_mult=lam, kkt_residual=kkt, iters=iters,
                          converged=converged, log=log)


def _restore_charge(spec: ModelSpec, state: FieldState, c_target: float) -> FieldState:
    """Exact charge restoration: amplitude rescale (NLS, charge quadratic in
    psi) or second-component rescale (NWE/NBE, charge linear in it).
    c_target is signed."""
    c = charge(spec, state)
    if abs(c) < 1e-14 * (1.0 + state_x_norm(state)):
        raise NumericalFailure("charge restoration failed: charge collapsed mid-flow")
    if spec.model_tag == NLS:
        if c_target <= 0:
            raise ValueError("NLS charge target must be positive")
        return state.replace_components((state.components[0] * np.sqrt(c_target / c),))
    return _scale_component(state, 1, c_target / c)


def refine_constrained(spec: ModelSpec, c_target: float, init: FieldState,
                       opts: MinimizeOptions = MinimizeOptions(),
                       params: PenaltyParams | None = None) -> MinimizeResult:
    """Projected gradient flow for the energy at fixed charge magnitude.

    Steps along gradE - lam gradC with the least-squares multiplier, then
    restores |C| = c_target exactly; Armijo acceptance on the restored
    energy.  The reported multiplier and KKT residual come from the final
    iterate.
    """
    if c_target <= 0:
        raise ValueError("c_target must be a positive charge magnitude")
    c0 = charge(spec, init)
    if abs(abs(c0) - c_target) > 0.2 * c_target:
        raise ValueError(f"init charge {abs(c0):.6g} not within 20% of target {c_target:.6g}")
    signed_target = c_target if (c0 >= 0 or spec.model_tag == NLS) else -c_target
    u = _restore_charge(spec, init, signed_target)
    e = energy(spec, u)
    step = opts.initial_step
    log: list[tuple[int, float, float, float]] = []
    converged = False
    iters = 0
    lam = 0.0
    stalled = 0
    for it in range(opts.max_iters):
        ge = grad_energy(spec, u)
        gc = grad_charge(spec, u)
        gc_sq = l2_inner(gc, gc)
        lam = l2_inner(ge, gc) / gc_sq if gc_sq > 0 else 0.0
        gperp = _axpy(ge, -lam, gc)
        gnorm = l2_norm(gperp)
        if it == 0:
            log.append((0, e, 0.0, gnorm))
        if not np.isfinite(gnorm):
            raise NumericalFailure("non-finite gradient in constrained refinement")
        if gnorm <= opts.grad_tol * (1.0 + state_x_norm(u)):
            converged = True
            break
        if stalled >= _STALL_LIMIT:
            converged = _stall_converged(spec, u, opts)
            break
        direction = _precondition(gperp)
        slope = l2_inner(gperp, direction)
        t = step
        accepted = None
        while t >= _MIN_STEP:
            try:
                stepped = _axpy(u, -t, direction)
                if _identical(stepped, u):
                    break
                trial = _restore_charge(spec, stepped, signed_target)
                et = energy(spec, trial)
            except (NumericalFailure, ValueError):
                t *= opts.backtrack
                continue
            if et <= e - opts.armijo_c1 * t * slope:
                accepted = (trial, et)
                break
            t *= opts.backtrack
        if accepted is None:
            converged = _stall_converged(spec, u, opts)
            break
        stalled = stalled + 1 if e - accepted[1] <= _noise_level(e) else 0
        u, e = accepted
        iters = it + 1
        step = t / opts.backtrack
        log.append((iters, e, t, gnorm))
    lam, kkt = _kkt(spec, u)
    c_final = charge(spec, u)
    jv = j_delta(spec, u, params) if params is not None else float("nan")
    return MinimizeResult(state=u, e_delta=e, c_delta=abs(c_final), j_value=jv,
                          lambda_mult=lam, kkt_residual=kkt, iters=iters,
                          converged=converged, log=log)


@dataclass
class ContinuationResult:
    """Family of refined minimizers over decreasing penalty weights."""

    results: list[MinimizeResult]
    deltas: list[float]
    orbit_distances: np.ndarray  # pairwise, between refined states
    lambda0: float


def delta_continuation(spec: ModelSpec, delta_list, opts: MinimizeOptions = MinimizeOptions(),
                       params: PenaltyParams | None = None,
                       lam0: float | None = None) -> ContinuationResult:
    """Warm-started chain of penalized minimizations over decreasing delta,
    each refined at its own charge level.

    Every link is gated by the penalized infimum test: the best available
    probe (Gaussian family for the first link, the previous refined
    minimizer afterwards) must undercut the vanishing-ratio floor at that
    delta, otherwise the delta is rejected as too large.
    """
    deltas = [float(d) for d in delta_list]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("delta_list must contain positive values")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta_list must be strictly decreasing")
    if params is None:
        params = choose_coercivity_params(spec, delta=deltas[0])
    if lam0 is None:
        lam0 = lambda0_estimate(spec)
    results: list[MinimizeResult] = []
    seed_state: FieldState | None = None
    for d in deltas:
        pd = replace(params, delta=d)
        if seed_state is None:
            seed_state, seed_val = penalized_probe_seed(spec, pd)
        else:
            seed_val = j_delta(spec, seed_state, pd)
        if not seed_val < lam0:
            raise ValueError(
                f"delta = {d} too large: penalized value {seed_val:.6g} does not "
                f"undercut the vanishing floor {lam0:.6g}")
        free = minimize_jdelta(spec, pd, init=seed_state, opts=opts)
        refined = refine_constrained(spec, free.c_delta, free.state, opts=opts, params=pd)
        if not (free.converged and refined.converged):
            raise NumericalFailure(f"continuation link at delta = {d} did not converge")
        results.append(refined)
        seed_state = refined.state
    k = len(results)
    dists = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dists[i, j] = dists[j, i] = orbit_distance(results[i].state, results[j].state)
    return ContinuationResult(results=results, deltas=deltas,
                              orbit_distances=dists, lambda0=lam0)
