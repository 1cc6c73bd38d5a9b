"""Derived functionals and hypothesis probes.

Houses the energy/charge ratio, the penalized objective
j_delta = ratio + delta * (E + 2 a |C|^s), its closed-form lower-bound
constant, empirical estimation of the interpolation-inequality constant,
the small-localization ratio floor (lambda0), and the hylomorphy check.

The coercivity exponent returned by choose_coercivity_params is
s = r / (2 - q) with q = N (p - 2) / 2 and r = p - q: the unique exponent
for which the Young split of the interpolation inequality closes with
matching powers of the L2 mass on both sides (it also equals the
mass-scaling law of the ground-state energy, so the bound is sharp up to
the empirical constant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NearZeroCharge
from .grid import (NBE, NLS, NWE, FieldState, Grid, integrate, k_squared, low_pass,
                   min_image_distances, random_state, spectral_derivative,
                   spectral_quadratic, x_norm as state_x_norm)
from .models import ModelSpec, charge, energy
from .nonlinearity import DoublePower, SinglePower, critical_exponent
from .rng import SplitMix64

__all__ = [
    "PenaltyParams", "HylomorphyReport", "lambda_ratio", "phi", "j_delta", "penalized_terms",
    "bound_m", "nash_exponents", "coercivity_exponent", "nash_check",
    "choose_coercivity_params", "lambda0_estimate", "hylomorphy_check",
    "gaussian_profile", "gaussian_state", "probe_states",
]

CHARGE_FLOOR = 1e-12


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty weight delta, coercivity coefficient a, and exponent s_exp."""

    delta: float
    a: float
    s_exp: float
    nash_q: float | None = None
    nash_r: float | None = None
    nash_b: float | None = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.a < 0:
            raise ValueError("a must be >= 0")
        if self.s_exp < 1:
            raise ValueError("s_exp must be >= 1")


def _charge_above_floor(spec: ModelSpec, state: FieldState) -> float:
    c = charge(spec, state)
    if abs(c) < CHARGE_FLOOR * (1.0 + state_x_norm(state)):
        raise NearZeroCharge(f"charge magnitude {abs(c):.3e} below the ratio floor")
    return c


def lambda_ratio(spec: ModelSpec, state: FieldState) -> float:
    """Energy per unit charge magnitude, E/|C|."""
    c = _charge_above_floor(spec, state)
    return energy(spec, state) / abs(c)


def phi(spec: ModelSpec, state: FieldState, params: PenaltyParams) -> float:
    """Coercive bulk E + 2 a |C|^s."""
    return energy(spec, state) + 2.0 * params.a * abs(charge(spec, state)) ** params.s_exp


def penalized_terms(spec: ModelSpec, state: FieldState,
                    params: PenaltyParams) -> tuple[float, float, float]:
    """(j_delta, E, C) from one energy and one charge evaluation; C is signed."""
    e = energy(spec, state)
    c = _charge_above_floor(spec, state)
    return e / abs(c) + params.delta * (e + 2.0 * params.a * abs(c) ** params.s_exp), e, c


def j_delta(spec: ModelSpec, state: FieldState, params: PenaltyParams) -> float:
    """Penalized objective: ratio plus delta times the coercive bulk."""
    return penalized_terms(spec, state, params)[0]


def bound_m(params: PenaltyParams, scan_points: int = 0) -> float:
    """Closed-form constant M = -a min_{t>=0} ((delta/2) t^s - t^(s-1)).

    For s > 1 the interior minimum sits at t* = 2(s-1)/(delta s); for s = 1
    the minimum is the degenerate boundary value at t = 0 and M = a.  With
    scan_points > 0 the closed form is cross-checked by a dense scan
    (three zoom stages) and the scan value is returned instead.
    """
    a, delta, s = params.a, params.delta, params.s_exp
    if s == 1.0:
        closed = a
        t_star = 0.0
    else:
        t_star = 2.0 * (s - 1.0) / (delta * s)
        closed = a * t_star ** (s - 1.0) / s
    if scan_points:
        g = lambda t: 0.5 * delta * t**s - np.where(t > 0, t ** (s - 1.0), 1.0 if s == 1.0 else 0.0)
        lo, hi = 0.0, max(4.0 * t_star, 4.0 / delta, 1.0)
        for _ in range(3):
            ts = np.linspace(lo, hi, scan_points)
            vals = g(ts)
            i = int(np.argmin(vals))
            step = ts[1] - ts[0]
            lo, hi = max(ts[i] - step, 0.0), ts[i] + step
        return -a * float(vals[i])
    return closed


def nash_exponents(p: float, dim: int) -> tuple[float, float]:
    """Interpolation exponents (q, r) with q = p N (1/2 - 1/p), r = p - q."""
    q = p * dim * (0.5 - 1.0 / p)
    return q, p - q


def coercivity_exponent(p: float, dim: int) -> float:
    """Mass exponent s = r/(2-q) closing the Young split of the inequality."""
    q, r = nash_exponents(p, dim)
    if q >= 2.0:
        raise ValueError(f"supercritical power p = {p} in dimension {dim}")
    return r / (2.0 - q)


def _lp_gradient_ratio(grid: Grid, f: np.ndarray, p: float,
                       q: float, r: float) -> float | None:
    """||f||_p^p / (||f||_2^r ||grad f||_2^q); None when the gradient vanishes."""
    norm2_sq = integrate(grid, np.abs(f) ** 2)
    grad_sq = spectral_quadratic(grid, k_squared(grid), f)
    if grad_sq <= 1e-20 * max(norm2_sq, 1.0) or norm2_sq <= 0.0:
        return None
    num = integrate(grid, np.abs(f) ** p)
    return num / (norm2_sq ** (r / 2.0) * grad_sq ** (q / 2.0))


def nash_check(grid: Grid, p: float, seed: int = 0, n_random: int = 1000) -> float:
    """Empirical constant for ||f||_p^p <= b ||f||_2^r ||grad f||_2^q.

    Maximizes the scale-invariant ratio over random band-limited fields plus
    adversarial Gaussians of 30 widths; near-constant fields (vanishing
    gradient) are excluded.
    """
    if p >= critical_exponent(grid.dim):
        raise ValueError(f"p must be below {critical_exponent(grid.dim)} in dim {grid.dim}")
    q, r = nash_exponents(p, grid.dim)
    rng = SplitMix64(seed).split("nash-check")
    best = 0.0
    for _ in range(n_random):
        f = np.asarray(rng.symmetric(int(np.prod(grid.n)))).reshape(grid.n)
        f = low_pass(grid, f, min(grid.n) // 4).real
        ratio = _lp_gradient_ratio(grid, f, p, q, r)
        if ratio is not None:
            best = max(best, ratio)
    sig_hi = min(grid.box_length) / 8.0
    sig_lo = max(4.0 * max(grid.spacing), sig_hi / 64.0)
    for sigma in np.geomspace(sig_lo, sig_hi, 30):
        f = gaussian_profile(grid, 1.0, sigma)
        ratio = _lp_gradient_ratio(grid, f, p, q, r)
        if ratio is not None:
            best = max(best, ratio)
    return best


def gaussian_profile(grid: Grid, amplitude: float, sigma: float,
                     center: tuple[float, ...] | None = None) -> np.ndarray:
    """Periodic Gaussian bump (min-image distance to the box center)."""
    if center is None:
        center = tuple(L / 2.0 for L in grid.box_length)
    r_sq = sum(d**2 for d in min_image_distances(grid, center))
    return amplitude * np.exp(-r_sq / (2.0 * sigma**2))


def gaussian_state(spec: ModelSpec, amplitude: float, sigma: float,
                   pair_param: float | None = None) -> FieldState:
    """Gaussian probe state; the pair parameter is the rotation rate (NWE)
    or travel speed (NBE) of the second component."""
    g = spec.grid
    bump = gaussian_profile(g, amplitude, sigma)
    if spec.model_tag == NLS:
        return FieldState.nls(g, bump.astype(np.complex128))
    if spec.model_tag == NWE:
        omega = 0.0 if pair_param is None else pair_param
        return FieldState.nwe(g, bump, -1j * omega * bump)
    c = 0.0 if pair_param is None else pair_param
    ux = spectral_derivative(g, bump, axis=0, order=1)
    return FieldState.nbe(g, bump, -c * ux)


def _optimal_pair_param(spec: ModelSpec, bump: np.ndarray) -> float:
    """Closed-form minimizer of the ratio over the second-component scale.

    The ratio as a function of the pair parameter w is w/2 + B/(w P) with
    B the frozen-field energy and P the relevant quadratic weight, so the
    optimum is sqrt(2 B / P); a small floor guards indefinite B.
    """
    g = spec.grid
    if spec.model_tag == NWE:
        rest = energy(spec, FieldState.nwe(g, bump, np.zeros_like(bump)))
        weight = integrate(g, np.abs(bump) ** 2)
    else:
        ux = spectral_derivative(g, bump, axis=0, order=1)
        rest = energy(spec, FieldState.nbe(g, bump, np.zeros_like(bump)))
        weight = integrate(g, ux**2)
    floor = 1e-4 * max(1.0, np.sqrt(spec.w.m_sq))
    if rest <= 0.0 or weight <= 0.0:
        return floor
    return max(float(np.sqrt(2.0 * rest / weight)), floor)


def _probe_state(spec: ModelSpec, amplitude: float, sigma: float) -> FieldState:
    bump = gaussian_profile(spec.grid, amplitude, sigma)
    if spec.model_tag == NLS:
        return FieldState.nls(spec.grid, bump.astype(np.complex128))
    return gaussian_state(spec, amplitude, sigma, _optimal_pair_param(spec, bump))


def probe_states(spec: ModelSpec, rng: SplitMix64, count: int,
                 amp_range: tuple[float, float] = (1e-2, 3.0)) -> list[FieldState]:
    """Seeded random smooth states with log-uniform amplitudes."""
    lo, hi = np.log(amp_range[0]), np.log(amp_range[1])
    out = []
    for _ in range(count):
        amp = float(np.exp(lo + (hi - lo) * rng.uniform()))
        band = 2 + int(rng.integers(1, min(spec.grid.n) // 4 - 1)[0])
        out.append(random_state(spec.model_tag, spec.grid, rng, amplitude=amp,
                                band_limit=band))
    return out


def choose_coercivity_params(spec: ModelSpec, delta: float = 0.02,
                             safety: float = 2.0, seed: int = 0,
                             n_probes: int = 2000) -> PenaltyParams:
    """Coercivity coefficient and exponent making E + a|C|^s >= 0 hold.

    For NLS power families below the critical power the coefficient comes
    from the matched-exponent Young split of the empirical interpolation
    inequality (see module docstring); the exponent is s = r/(2-q).  A
    random-probe supremum of -E/|C|^s is folded in as a conservative
    fallback, and is the sole source for the wave/beam models.  delta is a
    placeholder the caller (continuation/minimizer) overrides per run.
    """
    fam = spec.w.family
    rng = SplitMix64(seed).split("coercivity-probes")
    if spec.model_tag == NLS and isinstance(fam, (SinglePower, DoublePower)):
        if fam.p >= critical_exponent(spec.grid.dim):
            raise ValueError(
                f"supercritical power p = {fam.p}: no coercivity exponent exists")
        q, r = nash_exponents(fam.p, spec.grid.dim)
        s_exp = r / (2.0 - q)
        b_emp = nash_check(spec.grid, fam.p, seed=seed, n_random=400)
        c3 = fam.b / fam.p
        k_young = ((1.0 - q / 2.0) * q ** (q / (2.0 - q))
                   * (c3 * b_emp) ** (2.0 / (2.0 - q)))
        a_probe = _probe_supremum(spec, rng, s_exp, n_probes)
        return PenaltyParams(delta=delta, a=safety * max(k_young, a_probe),
                             s_exp=s_exp, nash_q=q, nash_r=r, nash_b=b_emp)
    s_exp = 1.0
    a_probe = _probe_supremum(spec, rng, s_exp, n_probes)
    return PenaltyParams(delta=delta, a=safety * a_probe, s_exp=s_exp)


def _probe_supremum(spec: ModelSpec, rng: SplitMix64, s_exp: float,
                    n_probes: int) -> float:
    worst = 0.0
    for state in probe_states(spec, rng, n_probes):
        e = energy(spec, state)
        if e >= 0.0:
            continue
        c = abs(charge(spec, state))
        if c < 1e-9 * (1.0 + state_x_norm(state)):
            continue
        worst = max(worst, -e / c**s_exp)
    return worst


def _richardson_limit(values: np.ndarray, small_param: np.ndarray, tail: int = 4) -> float:
    """Intercept of a linear fit in the known leading small parameter."""
    v = np.asarray(values[-tail:], dtype=float)
    t = np.asarray(small_param[-tail:], dtype=float)
    design = np.vstack([np.ones_like(t), t]).T
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return float(coef[0])


def lambda0_estimate(spec: ModelSpec, n_scales: int = 8, fit_tail: int = 4) -> float:
    """Floor of the energy/charge ratio as the localization seminorm vanishes.

    Probes: Gaussian bumps over geometric width scales, each extrapolated to
    vanishing amplitude (Richardson in the leading amplitude power), then
    the spreading limit is extrapolated in 1/width^2 over the last fit_tail
    scales.  For the wave/beam pairs the second component uses the
    closed-form optimal rotation rate/speed.  This is a probe-family
    estimate, not a certified bound.
    """
    g = spec.grid
    sig_hi = min(g.box_length) / 8.0
    sig_lo = max(4.0 * max(g.spacing), sig_hi / 8.0)
    if sig_lo >= sig_hi:
        raise ValueError("grid too coarse for the probe widths (sigma > L/8 needed)")
    sigmas = np.geomspace(sig_lo, sig_hi, n_scales)
    fam = spec.w.family
    amp_power = fam.p - 2.0 if isinstance(fam, (SinglePower, DoublePower)) else 2.0
    amps = 0.05 * 2.0 ** (-np.arange(4))
    per_sigma = []
    for sigma in sigmas:
        vals = np.array([lambda_ratio(spec, _probe_state(spec, a, sigma)) for a in amps])
        per_sigma.append(_richardson_limit(vals, amps**amp_power, tail=4))
    per_sigma = np.asarray(per_sigma)
    best = float(per_sigma.min())
    if spec.model_tag in (NLS, NWE):
        spread = _richardson_limit(per_sigma, 1.0 / sigmas**2, tail=fit_tail)
        best = min(best, spread)
    return best


@dataclass(frozen=True)
class HylomorphyReport:
    """Verdict on whether concentrated probes beat the vanishing-state floor."""

    lambda0_estimate: float
    best_ratio: float
    witness: dict = field(default_factory=dict)
    verdict: bool = False
    margin: float = 0.0
    note: str = "probe-family estimate (empirical, not certified)"


def _family_search(spec: ModelSpec, objective, amp_bounds: tuple[float, float],
                   sig_bounds: tuple[float, float], grid_size: int = 40,
                   refinements: int = 2):
    """Coordinate grid search over (amplitude, width), log-spaced, refined
    around the incumbent; returns (best value, amplitude, width)."""
    a_lo, a_hi = amp_bounds
    s_lo, s_hi = sig_bounds
    best = (np.inf, a_lo, s_lo)
    for _ in range(refinements + 1):
        amps = np.geomspace(a_lo, a_hi, grid_size)
        sigs = np.geomspace(s_lo, s_hi, grid_size)
        for amp in amps:
            for sig in sigs:
                val = objective(amp, sig)
                if val < best[0]:
                    best = (val, float(amp), float(sig))
        # shrink the window two cells around the incumbent, inside the bounds
        ra = (a_hi / a_lo) ** (2.0 / (grid_size - 1))
        rs = (s_hi / s_lo) ** (2.0 / (grid_size - 1))
        a_lo, a_hi = max(amp_bounds[0], best[1] / ra), min(amp_bounds[1], best[1] * ra)
        s_lo, s_hi = max(sig_bounds[0], best[2] / rs), min(sig_bounds[1], best[2] * rs)
    return best


def default_probe_bounds(spec: ModelSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    g = spec.grid
    sig_hi = min(g.box_length) / 8.0
    sig_lo = max(4.0 * max(g.spacing), sig_hi / 16.0)
    return (0.05, 2.0), (sig_lo, sig_hi)


def hylomorphy_check(spec: ModelSpec, params: PenaltyParams,
                     margin: float | None = None, grid_size: int = 40,
                     refinements: int = 2) -> HylomorphyReport:
    """Search the Gaussian probe family for ratios below the vanishing floor.

    The verdict is true iff the best ratio undercuts the lambda0 estimate
    by the margin (default one part in 10^3 of the estimate).
    """
    lam0 = lambda0_estimate(spec)
    if margin is None:
        margin = 1e-3 * abs(lam0)
    amp_bounds, sig_bounds = default_probe_bounds(spec)

    def objective(amp, sig):
        return lambda_ratio(spec, _probe_state(spec, amp, sig))

    best_val, best_amp, best_sig = _family_search(
        spec, objective, amp_bounds, sig_bounds, grid_size, refinements)
    witness = {"amplitude": best_amp, "width": best_sig}
    if spec.model_tag in (NWE, NBE):
        bump = gaussian_profile(spec.grid, best_amp, best_sig)
        witness["pair_param"] = _optimal_pair_param(spec, bump)
    return HylomorphyReport(
        lambda0_estimate=lam0,
        best_ratio=best_val,
        witness=witness,
        verdict=bool(best_val < lam0 - margin),
        margin=margin,
    )


def witness_state(spec: ModelSpec, report: HylomorphyReport) -> FieldState:
    """Rebuild the probe state described by a hylomorphy witness."""
    return _probe_state(spec, report.witness["amplitude"], report.witness["width"])


def penalized_probe_seed(spec: ModelSpec, params: PenaltyParams,
                         grid_size: int = 40, refinements: int = 2):
    """Best Gaussian probe for the penalized objective at these params.

    Used to seed descent and to verify that the penalized infimum undercuts
    the vanishing floor at this delta; the plain ratio witness tends to sit
    at the amplitude bound where the bulk term is large, which would gate
    the usable delta range far below its true extent.
    """
    amp_bounds, sig_bounds = default_probe_bounds(spec)

    def objective(amp, sig):
        return j_delta(spec, _probe_state(spec, amp, sig), params)

    best_val, best_amp, best_sig = _family_search(
        spec, objective, amp_bounds, sig_bounds, grid_size, refinements)
    return _probe_state(spec, best_amp, best_sig), best_val
