"""Descent machinery for the penalized objective and its constrained refinement.

Two phases mirror the structure of the existence argument: free descent on
j_delta globalizes toward the right charge level, then descent on the
energy at that fixed charge sharpens the multiplier residual.  Both run
through one line-search driver, `_descend`: preconditioned nonlinear
conjugate gradients (Polak-Ribiere+ in the phase-space metric of
`_precondition`, restarted at the preconditioned gradient) with
interpolated Armijo backtracking, after Antoine, Levitt & Tang, J. Comput.
Phys. 343 (2017).  The constrained phase passes the exact charge
restoration as a retraction: every trial step is followed by a rescale of
the component the charge is linear (NWE/NBE) or quadratic (NLS) in.
Iterates are component tuples; a FieldState is built once, for the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as gridmod
from .exceptions import Inadmissible, NearZeroCharge, NumericalFailure
from .functionals import (PenaltyParams, choose_coercivity_params, lambda0_estimate,
                          penalized_probe_seed, penalized_terms, penalized_value,
                          require_probe_widths)
from .grid import NLS, FieldState, orbit_distance, require_finite, symbols, x_norm_of
from .models import (Evaluation, ModelSpec, charge, charge_of, check_state, evaluate,
                     grad_charge_of, grad_energy_of, l2_inner_of, l2_norm_of)

__all__ = [
    "MinimizeOptions", "MinimizeResult", "ContinuationResult",
    "minimize_jdelta", "refine_constrained", "delta_continuation",
]

_MIN_STEP = 1e-18
_EPS = float(np.finfo(np.float64).eps)
_STALL_LIMIT = 25  # accepted steps with float-resolution improvement
_MIN_SHRINK = 0.1  # a failed trial shrinks the step to no less than this share
_CORRECT_RTOL = 0.25  # an accepted step this far from the line minimizer is corrected
# two refined states are aligned, so that their difference is a tangent of
# the family and not a group motion, when their plain X distance is their
# orbit distance to this relative tolerance
_ALIGN_RTOL = 1e-6


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
        # NaN passes the comparisons below, and an infinite step never ends
        # the line search (inf * backtrack is inf); an int is always finite
        values = (self.max_iters, self.grad_tol, self.armijo_c1, self.backtrack,
                  self.initial_step)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError("options must be finite")
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
    grad_norm: float = float("nan")  # L2 norm of the descent gradient at state


def _axpy(a: tuple, t: float, d: tuple) -> tuple:
    """a + t d on component tuples."""
    return tuple(x + t * y for x, y in zip(a, d))


def _precondition(weight: np.ndarray, g: tuple) -> tuple:
    """Descent direction in the phase-space metric: divide the field
    component's spectrum by its metric weight, 1 + the kinetic symbol
    (`symbols(...).weights[0]`).  The velocity-like component has weight 1,
    so it is passed through as is.

    Plain L2 steps are limited by the largest spectral curvature, so the
    highest modes hover at the stability edge and the gradient stalls well
    above tolerance; in this metric every mode contracts at an O(1) rate.
    """
    field_g = g[0]
    axes = tuple(range(-weight.ndim, 0))
    d = gridmod.ifft(gridmod.fft(field_g, axes) / weight, axes)
    d = d if np.iscomplexobj(field_g) else d.real
    return (d,) + tuple(g[1:])


def _grad_j(spec: ModelSpec, components, params: PenaltyParams, ev: Evaluation) -> tuple:
    e, c = float(ev.energy), float(ev.charge)
    ge = grad_energy_of(spec, components, ev.spectrum)
    gc = grad_charge_of(spec, components)
    sgn = 1.0 if c >= 0 else -1.0
    coef_e = 1.0 / abs(c) + params.delta
    coef_c = sgn * (-e / c**2
                    + params.delta * 2.0 * params.a * params.s_exp * abs(c) ** (params.s_exp - 1.0))
    return tuple(coef_e * a + coef_c * b for a, b in zip(ge, gc))


def _projected_gradient(spec: ModelSpec, components, field_spec: np.ndarray
                        ) -> tuple[float, tuple, tuple]:
    """(lam, gradE, gradE - lam gradC) with the least-squares multiplier;
    field_spec is the field component's spectrum."""
    ge = grad_energy_of(spec, components, field_spec)
    gc = grad_charge_of(spec, components)
    gc_sq = l2_inner_of(spec.grid, gc, gc)
    lam = l2_inner_of(spec.grid, ge, gc) / gc_sq if gc_sq > 0 else 0.0
    return lam, ge, _axpy(ge, -lam, gc)


def _line_minimizer(value: float, slope: float, t: float, trial_value: float) -> float | None:
    """The minimizer of the quadratic q with q(0) = value, q'(0) = -slope and
    q(t) = trial_value; None unless trial_value is finite and q's curvature
    is positive."""
    curvature = trial_value - value + slope * t
    if not (math.isfinite(trial_value) and curvature > 0.0):
        return None
    return slope * t * t / (2.0 * curvature)


def _descend(spec: ModelSpec, objective, gradient, u: tuple, opts: MinimizeOptions,
             retract=None, what: str = "descent", start=None) -> MinimizeResult:
    """Armijo-backtracked Polak-Ribiere+ conjugate gradients in the metric P
    of `_precondition`, from the component tuple u, reported with the
    objective value as j_value and the final iterate as the one FieldState
    built.

    objective(u) -> (value, ev), with ev the `evaluate` result of u (E, C,
    X-norm and the field's spectrum from one transform), raises
    NearZeroCharge or NumericalFailure on an inadmissible state, and the
    trial step is shortened; gradient(u, ev) is its Riesz gradient (the
    projected one under a constraint), its kinetic term taken from ev's
    spectrum; retract(u) -> u maps every stepped iterate back onto the
    constraint; start, if given, is objective(u), already at hand.
    Iterates, gradients and directions are component tuples.  A trial with
    a non-finite sample, before or after the retraction, raises NonFinite
    (a NumericalFailure) and is rejected like an inadmissible one; any
    other exception propagates.

    The step is u <- retract(u - t d) with d = Pg + beta d_prev and
    beta = max(0, <g - g_prev, Pg> / <g_prev, P g_prev>).  d restarts at Pg
    when <g, d> <= 0 or when the search along d fails; only a failed search
    along Pg is a stall.  A stall (or _STALL_LIMIT accepted steps at the
    float-resolution floor of the objective) counts as converged iff the
    KKT residual, taken once at exit, meets the result contract
    kkt <= 10 grad_tol (1 + x_norm).

    Each search starts at the last accepted step (initial_step at first).
    A failed Armijo trial shrinks t to the minimizer t_q of the quadratic
    through the value and slope at 0 and the trial's value, clamped to
    [_MIN_SHRINK t, backtrack t] (backtrack t when the trial raised or the
    quadratic is not convex), so backtrack bounds the shrink per failed
    trial.  An accepted t more than _CORRECT_RTOL from t_q is followed by
    one trial at t_q, kept when it is lower and passes Armijo at t_q.  On
    a quadratic the search thus lands on the line minimizer, which
    Polak-Ribiere+ needs to stay conjugate (Nocedal & Wright, Numerical
    Optimization, 2nd ed. 2006, sections 3.5 and 5.2).
    """
    grid = spec.grid
    weight = symbols(spec.model_tag, grid).weights[0]
    value, ev = objective(u) if start is None else start
    step = opts.initial_step
    log: list[tuple[int, float, float, float]] = []
    iters = stalled = 0
    at_floor = False  # stopped on a stall: judged by the KKT residual at exit
    g_prev = d_prev = None  # and gpg_prev = <g_prev, P g_prev>, once a step is taken

    def step_to(t: float, direction: tuple):
        """(trial, its objective terms) at retract(u - t d); None when t d
        is below float resolution."""
        trial = _axpy(u, -t, direction)
        for comp in trial:
            require_finite(comp)
        if all((x == y).all() for x, y in zip(trial, u)):
            return None
        if retract is not None:
            trial = retract(trial)
        return trial, objective(trial)

    def search(direction: tuple, slope: float):
        def armijo(trial_value: float, t: float) -> bool:
            return trial_value <= value - opts.armijo_c1 * t * slope

        t = step
        while t >= _MIN_STEP:
            try:
                stepped = step_to(t, direction)
            except (NearZeroCharge, NumericalFailure):
                t *= opts.backtrack
                continue
            if stepped is None:
                return None  # step below float resolution
            trial_value = stepped[1][0]
            t_q = _line_minimizer(value, slope, t, trial_value)
            if not armijo(trial_value, t):
                t = (opts.backtrack * t if t_q is None else
                     min(max(t_q, _MIN_SHRINK * t), opts.backtrack * t))
                continue
            if t_q is not None and abs(t_q - t) > _CORRECT_RTOL * t:
                try:
                    better = step_to(t_q, direction)
                except (NearZeroCharge, NumericalFailure):
                    better = None
                if (better is not None and better[1][0] < trial_value
                        and armijo(better[1][0], t_q)):
                    return better + (t_q,)
            return stepped + (t,)
        return None

    while True:
        g = gradient(u, ev)
        gnorm = l2_norm_of(grid, g)
        if not log:
            log.append((0, value, 0.0, gnorm))
        if not np.isfinite(gnorm):
            raise NumericalFailure(f"non-finite gradient in {what}")
        converged = gnorm <= opts.grad_tol * (1.0 + float(ev.x_norm))
        if converged or iters == opts.max_iters:
            break
        if stalled >= _STALL_LIMIT:
            at_floor = True
            break
        pg = _precondition(weight, g)
        gpg = l2_inner_of(grid, g, pg)  # > 0: the metric is positive
        candidates = [(pg, gpg)]
        if d_prev is not None:
            beta = max(0.0, (gpg - l2_inner_of(grid, g_prev, pg)) / gpg_prev)
            if beta > 0.0:
                conj = _axpy(pg, beta, d_prev)
                slope = l2_inner_of(grid, g, conj)
                if slope > 0.0:
                    candidates.insert(0, (conj, slope))
        for d, slope in candidates:
            accepted = search(d, slope)
            if accepted is not None:
                break
        if accepted is None:
            # objective improvements fell below float resolution: stationary
            # up to the measurable floor
            at_floor = True
            break
        u, terms, t = accepted
        stalled = stalled + 1 if value - terms[0] <= _noise_level(value) else 0
        value, ev = terms
        g_prev, d_prev, gpg_prev = g, d, gpg
        iters += 1
        step = t
        log.append((iters, value, t, gnorm))
    # multiplier and residual of the stationarity system gradE = lam gradC
    lam, ge, resid = _projected_gradient(spec, u, ev.spectrum)
    kkt = l2_norm_of(grid, resid) / (1.0 + l2_norm_of(grid, ge))
    if at_floor:
        converged = kkt <= 10.0 * opts.grad_tol * (1.0 + float(ev.x_norm))
    return MinimizeResult(state=FieldState(spec.model_tag, grid, u), e_delta=float(ev.energy),
                          c_delta=abs(float(ev.charge)), j_value=value, lambda_mult=lam,
                          kkt_residual=kkt, iters=iters, converged=converged, log=log,
                          grad_norm=gnorm)


def minimize_jdelta(spec: ModelSpec, params: PenaltyParams,
                    init: FieldState | None = None,
                    opts: MinimizeOptions = MinimizeOptions(),
                    _start=None) -> MinimizeResult:
    """Descent on the penalized objective (see `_descend`); init=None seeds
    from the best Gaussian probe of the objective.  _start, if given, is
    init's `penalized_terms`, which the descent then does not compute again."""
    if init is None:
        init, _ = penalized_probe_seed(spec, params)
    check_state(spec, init)
    return _descend(spec, lambda u: penalized_terms(spec, u, params),
                    lambda u, ev: _grad_j(spec, u, params, ev), init.components, opts,
                    what="penalized descent", start=_start)


def _restore_charge(spec: ModelSpec, comps: tuple, c_target: float) -> tuple:
    """Exact charge restoration of a component tuple: amplitude rescale (NLS,
    charge quadratic in psi) or second-component rescale (NWE/NBE, charge
    linear in it).  c_target is signed.  The collapse guard measures the
    state by its L2 norm, a quadrature, so the retraction makes no
    transform of its own (NBE's charge makes one).  Raises NonFinite if
    the rescaled component is not finite."""
    c = float(charge_of(spec, comps))
    if abs(c) < 1e-14 * (1.0 + l2_norm_of(spec.grid, comps)):
        raise NumericalFailure("charge restoration failed: charge collapsed mid-flow")
    if spec.model_tag == NLS:
        if c_target <= 0:
            raise ValueError("NLS charge target must be positive")
        restored = (comps[0] * np.sqrt(c_target / c),)
    else:
        restored = (comps[0], comps[1] * (c_target / c))
    require_finite(restored[-1])
    return restored


def refine_constrained(spec: ModelSpec, c_target: float, init: FieldState,
                       opts: MinimizeOptions = MinimizeOptions(),
                       params: PenaltyParams | None = None) -> MinimizeResult:
    """Descent on the energy at fixed charge magnitude (see `_descend`).

    The gradient is gradE - lam gradC with the least-squares multiplier,
    and every trial step is retracted onto |C| = c_target by the exact
    charge rescale, so Armijo acceptance is on the restored energy.  The
    reported multiplier and KKT residual come from the final iterate.
    """
    if c_target <= 0:
        raise ValueError("c_target must be a positive charge magnitude")
    c0 = charge(spec, init)
    if abs(abs(c0) - c_target) > 0.2 * c_target:
        raise ValueError(f"init charge {abs(c0):.6g} not within 20% of target {c_target:.6g}")
    signed_target = c_target if (c0 >= 0 or spec.model_tag == NLS) else -c_target

    def objective(u: tuple):
        ev = evaluate(spec, u)
        return float(ev.energy), ev

    result = _descend(spec, objective,
                      lambda u, ev: _projected_gradient(spec, u, ev.spectrum)[2],
                      _restore_charge(spec, init.components, signed_target), opts,
                      retract=lambda u: _restore_charge(spec, u, signed_target),
                      what="constrained refinement")
    result.j_value = (penalized_value(result.e_delta, result.c_delta, params)
                      if params is not None else float("nan"))
    return result


@dataclass
class ContinuationResult:
    """Family of refined minimizers over decreasing penalty weights."""

    results: list[MinimizeResult]
    deltas: list[float]
    orbit_distances: np.ndarray  # pairwise, between refined states
    lambda0: float
    free_iters: list[int]  # free-descent iterations of each link
    seeds: list[str]  # where each link's free descent started: probe, warm or predicted


def _require_converged(result: MinimizeResult, link: int, delta: float, phase: str) -> None:
    """Raise a diagnosed NumericalFailure, carrying the partial result, for
    a link phase ('free' or 'refine') that stopped unconverged."""
    if result.converged:
        return
    detail = {"link": link, "delta": delta, "phase": phase, "iters": result.iters,
              "grad_norm": result.grad_norm, "last_step": result.log[-1][2],
              "kkt_residual": result.kkt_residual}
    raise NumericalFailure(f"continuation link at delta = {delta} did not converge: {detail}",
                           detail=detail, partial=result)


def _secant(older: FieldState, newer: FieldState, r: float) -> tuple:
    """The secant predictor newer + r (newer - older), as component arrays."""
    return tuple(b + r * (b - a) for a, b in zip(older.components, newer.components))


def _aligned_distance(spec: ModelSpec, a: FieldState, b: FieldState) -> tuple[float, bool]:
    """The orbit distance of two states, and whether it is their plain X
    distance to _ALIGN_RTOL (no shift or phase separates them)."""
    dist = orbit_distance(a, b)
    diff = tuple(x - y for x, y in zip(a.components, b.components))
    plain = float(x_norm_of(spec.model_tag, spec.grid, diff))
    return dist, abs(plain - dist) <= _ALIGN_RTOL * dist


def delta_continuation(spec: ModelSpec, delta_list, opts: MinimizeOptions = MinimizeOptions(),
                       params: PenaltyParams | None = None) -> ContinuationResult:
    """Chain of penalized minimizations over decreasing delta, each refined
    at its own charge level.

    The first link starts from the best Gaussian probe (seed "probe"), the
    second from the previous refined minimizer (the plain warm start,
    "warm").  From the third link on, the secant of the last two refined
    states in log delta predicts the start, u_{k-1} + r (u_{k-1} - u_{k-2})
    with r = log(delta_k/delta_{k-1}) / log(delta_{k-1}/delta_{k-2})
    ("predicted"), a predictor-corrector chain after Allgower and Georg,
    Numerical Continuation Methods (1990).  The prediction falls back to
    the warm start when the two states are not aligned (`_aligned_distance`)
    or when it fails the link's gate.  It is not compared with the warm
    start: its J_delta is the higher one on the benchmark chain, yet its
    descent is the shorter.

    Every link is gated by the penalized infimum test: its start must
    undercut the vanishing-ratio floor at that delta, otherwise the delta
    is rejected as too large.  A link that does not converge raises a
    diagnosed NumericalFailure (`_require_converged`); a rejected delta
    raises Inadmissible with link, delta, seed value and lambda0 as its
    detail.  A grid too coarse for the probe family raises Inadmissible
    before any link (`require_probe_widths`).
    """
    deltas = [float(d) for d in delta_list]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("delta_list must contain positive values")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta_list must be strictly decreasing")
    if params is None:
        params = choose_coercivity_params(spec, delta=deltas[0])
    require_probe_widths(spec.grid)
    lam0 = lambda0_estimate(spec)
    results: list[MinimizeResult] = []
    free_iters: list[int] = []
    seeds: list[str] = []
    adjacent: list[float] = []  # orbit distance of each refined state to the next
    aligned = False  # the last two refined states are aligned
    for link, d in enumerate(deltas):
        pd = replace(params, delta=d)
        start = None  # the gate's penalized_terms of a predicted start
        if not results:
            seed_state, seed_val = penalized_probe_seed(spec, pd)
            kind = "probe"
        else:  # the previous refined minimizer, valued from its stored E and C
            last = results[-1]
            seed_state, seed_val = last.state, penalized_value(last.e_delta, last.c_delta, pd)
            kind = "warm"
            if aligned:
                r = math.log(d / deltas[link - 1]) / math.log(deltas[link - 1] / deltas[link - 2])
                predicted = _secant(results[-2].state, last.state, r)
                try:
                    terms = penalized_terms(spec, predicted, pd)
                except (NearZeroCharge, NumericalFailure):
                    terms = (math.inf, None)
                if terms[0] < lam0:
                    seed_state = FieldState(spec.model_tag, spec.grid, predicted, owned=True)
                    seed_val, kind, start = terms[0], "predicted", terms
        if not seed_val < lam0:
            raise Inadmissible(
                f"delta = {d} too large: penalized value {seed_val:.6g} does not "
                f"undercut the vanishing floor {lam0:.6g}",
                detail={"link": link, "delta": d, "seed_value": float(seed_val),
                        "lambda0": float(lam0)})
        free = minimize_jdelta(spec, pd, init=seed_state, opts=opts, _start=start)
        _require_converged(free, link, d, "free")
        refined = refine_constrained(spec, free.c_delta, free.state, opts=opts, params=pd)
        _require_converged(refined, link, d, "refine")
        if results:
            dist, aligned = _aligned_distance(spec, results[-1].state, refined.state)
            adjacent.append(dist)
        results.append(refined)
        free_iters.append(free.iters)
        seeds.append(kind)
    k = len(results)
    dists = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dists[i, j] = dists[j, i] = (adjacent[i] if j == i + 1 else
                                         orbit_distance(results[i].state, results[j].state))
    return ContinuationResult(results=results, deltas=deltas, orbit_distances=dists,
                              lambda0=lam0, free_iters=free_iters, seeds=seeds)
