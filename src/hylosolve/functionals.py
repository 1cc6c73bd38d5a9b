"""Derived functionals and hypothesis probes.

Houses the energy/charge ratio, the penalized objective
j_delta = ratio + delta * (E + 2 a |C|^s), its closed-form lower-bound
constant, the Gaussian-family interpolation-inequality constant, the
vanishing threshold lambda0 (a closed form read off the spectral
symbols), and the hylomorphy check, whose verdict is the only probe-family
evidence here: a Gaussian probe must undercut lambda0.

The coercivity exponent returned by choose_coercivity_params is
s = r / (2 - q) with q = N (p - 2) / 2 and r = p - q: the unique exponent
for which the Young split of the interpolation inequality closes with
matching powers of the L2 mass on both sides (it also equals the
mass-scaling law of the ground-state energy, so the bound is sharp up to
the constant, which nash_check takes from the Gaussian family).

The coefficient a of E + a|C|^s >= 0 comes from that Young split (NLS power
families) and is 0 otherwise, exact when W >= 0 (then E >= 0); where W dips
on NWE or NBE no coefficient exists.  The audit's EC-3i check tests
E + a|C|^s whatever the rule: on the still plateau at a dip of W (NWE and
NBE), a fixed-mass width sweep and a descent of the bulk over the Gaussian
family (bulk_descent), where the infimum is approached: by concentrating
bumps, the ground states.  Nothing here draws a random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import grid as gridmod
from .exceptions import Inadmissible, NearZeroCharge, NumericalFailure
from .grid import (NBE, NLS, NWE, FieldState, Grid, apply_multiplier, apply_to_spectrum,
                   integrate, k_squared, min_image_distances, require_finite, spectral_sum,
                   symbols, transform)
from .models import Evaluation, ModelSpec, charge, check_state, energy, energy_of, evaluate
from .nonlinearity import DoublePower, SinglePower, critical_exponent, power, w_value

__all__ = [
    "PenaltyParams", "HylomorphyReport", "lambda_ratio", "phi", "j_delta", "penalized_terms",
    "penalized_value",
    "bound_m", "nash_exponents", "coercivity_exponent", "nash_check",
    "choose_coercivity_params", "lambda0_estimate", "hylomorphy_check",
    "gaussian_profile", "gaussian_state", "gaussian_bulk_column", "bulk_descent",
]

CHARGE_FLOOR = 1e-12
# grid points per probe stack (one probe when the grid alone is larger):
# bounds the memory of every probe family independently of its size
PROBE_CHUNK_POINTS = 2**15
# width columns of the EC-3i bulk descent (bulk_descent), at most, and the
# amplitudes of each column
DESCENT_COLUMNS = 48
DESCENT_AMPLITUDES = 64
# factor on the empirical coercivity coefficient a
COERCIVITY_SAFETY = 2.0


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


def _require_charge(c, xnorm) -> None:
    """Raise NearZeroCharge where |C| < CHARGE_FLOOR (1 + ||u||_X), per row;
    for an amplitude x width table, from the first width that has such a
    probe."""
    low = np.abs(c) < CHARGE_FLOOR * (1.0 + xnorm)
    if low.any():
        if low.ndim == 2:
            first = int(np.argmax(low.any(axis=0)))
            c, low = c[:, first], low[:, first]
        raise NearZeroCharge(
            f"charge magnitude {float(np.min(np.abs(c)[low])):.3e} below the ratio floor")


def _floored(spec: ModelSpec, components) -> Evaluation:
    """The evaluation (models.evaluate) of a state's components or of a
    probe stack, under the ratio's charge floor per row."""
    ev = evaluate(spec, components)
    _require_charge(ev.charge, ev.x_norm)
    return ev


def _ratio(e, c):
    """E/|C| from E and signed C (scalars or arrays)."""
    return e / abs(c)


def penalized_value(e, c, params: PenaltyParams):
    """j_delta from E and C, signed or not (scalars or arrays)."""
    return _ratio(e, c) + params.delta * (e + 2.0 * params.a * abs(c) ** params.s_exp)


def lambda_ratio(spec: ModelSpec, state: FieldState) -> float:
    """Energy per unit charge magnitude, E/|C|."""
    check_state(spec, state)
    ev = _floored(spec, state.components)
    return _ratio(float(ev.energy), float(ev.charge))


def phi(spec: ModelSpec, state: FieldState, params: PenaltyParams) -> float:
    """Coercive bulk E + 2 a |C|^s."""
    return energy(spec, state) + 2.0 * params.a * abs(charge(spec, state)) ** params.s_exp


def penalized_terms(spec: ModelSpec, components,
                    params: PenaltyParams) -> tuple[float, Evaluation]:
    """(j_delta, the evaluation) of a state's component arrays from one
    evaluate call, under the ratio's charge floor; the evaluation's charge
    is signed.  A bulk term past the float range raises NumericalFailure."""
    ev = _floored(spec, components)
    try:
        return penalized_value(float(ev.energy), float(ev.charge), params), ev
    except OverflowError as err:
        raise NumericalFailure("penalized objective overflows the float range") from err


def j_delta(spec: ModelSpec, state: FieldState, params: PenaltyParams) -> float:
    """Penalized objective: ratio plus delta times the coercive bulk."""
    check_state(spec, state)
    return penalized_terms(spec, state.components, params)[0]


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


def require_subcritical(p: float, dim: int) -> None:
    """Raise Inadmissible unless p is below the charge-critical power 2 + 4/N.

    The one test of subcriticality.  It compares p, not q: at p = 2 + 4/N
    the exponent q is 2 in exact arithmetic but may round just below it
    (1.9999999999999996 in dimension 3)."""
    if p >= critical_exponent(dim):
        raise Inadmissible(f"supercritical power p = {p} in dimension {dim}")


def coercivity_exponent(p: float, dim: int) -> float:
    """Mass exponent s = r/(2-q) closing the Young split of the inequality."""
    require_subcritical(p, dim)
    q, r = nash_exponents(p, dim)
    return r / (2.0 - q)


def _nash_ratio(num, norm2_sq, grad_sq, q: float, r: float):
    """num / (norm2_sq^(r/2) grad_sq^(q/2)) from the moments of fields (arrays
    of one value per field); NaN where the gradient vanishes."""
    vanishing = (grad_sq <= 1e-20 * np.maximum(norm2_sq, 1.0)) | (norm2_sq <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / (norm2_sq ** (r / 2.0) * grad_sq ** (q / 2.0))
    return np.where(vanishing, np.nan, ratio)


def _lp_gradient_ratio(grid: Grid, f: np.ndarray, p: float, q: float, r: float):
    """||f||_p^p / (||f||_2^r ||grad f||_2^q), one per leading (batch) index
    of f; NaN where the gradient vanishes."""
    norm2_sq = integrate(grid, np.abs(f) ** 2)
    grad_sq = spectral_sum(grid, k_squared(grid), transform(grid, f))
    num = integrate(grid, power(np.abs(f), p))
    return _nash_ratio(num, norm2_sq, grad_sq, q, r)


def nash_check(grid: Grid, p: float) -> float:
    """Gaussian-family constant b of ||f||_p^p <= b ||f||_2^r ||grad f||_2^q.

    The maximum of the scale-invariant ratio over Gaussians of 30 widths: a
    lower bound of the sharp constant, whose maximizer is the smooth ground
    state (Weinstein, Comm. Math. Phys. 87 (1983) 567); random band-limited
    fields sit far below a bump, so none is sampled.  On a line the bumps
    are evaluated as stacks of at most PROBE_CHUNK_POINTS grid points; on a
    2-d or 3-d grid the three moments come from the bumps' per-axis factors
    (_gaussian_sums), with no grid-sized array, and agree with the full-grid
    moments to rounding (1e-13 relative).  A field with vanishing gradient
    is excluded; 0.0 when every width is.
    """
    require_subcritical(p, grid.dim)
    q, r = nash_exponents(p, grid.dim)
    sig_hi = min(grid.box_length) / 8.0
    sig_lo = max(4.0 * max(grid.spacing), sig_hi / 64.0)
    sigmas = np.geomspace(sig_lo, sig_hi, 30)
    # NaN (an excluded field) never wins the maximum
    if grid.dim > 1:
        sums = _gaussian_sums(NLS, grid, sigmas, (p,))
        return float(np.fmax.reduce(_nash_ratio(sums.powers[0], sums.mass, sums.kinetic, q, r),
                                    initial=0.0))
    rows = _chunk_rows(grid)
    best = 0.0
    for i in range(0, len(sigmas), rows):
        bumps = np.stack([gaussian_profile(grid, 1.0, sigma) for sigma in sigmas[i:i + rows]])
        best = np.fmax.reduce(_lp_gradient_ratio(grid, bumps, p, q, r), initial=best)
    return float(best)


def gaussian_profile(grid: Grid, amplitude: float, sigma: float,
                     center: tuple[float, ...] | None = None) -> np.ndarray:
    """Periodic Gaussian bump (min-image distance to the box center)."""
    if center is None:
        center = tuple(L / 2.0 for L in grid.box_length)
    r_sq = sum(d**2 for d in min_image_distances(grid, center))
    return amplitude * np.exp(-r_sq / (2.0 * sigma**2))


def _gaussian_components(spec: ModelSpec, bump: np.ndarray, pair_param) -> tuple:
    """The components of Gaussian probes with the given bumps (leading axes
    are a batch) and pair parameter (a scalar or one per bump)."""
    if spec.model_tag == NLS:
        return (bump.astype(np.complex128),)
    pair = np.asarray(pair_param)
    pair = pair.reshape(pair.shape + (1,) * spec.grid.dim)
    if spec.model_tag == NWE:
        return bump.astype(np.complex128), -1j * pair * bump
    ux = apply_multiplier(symbols(NBE, spec.grid).ddx, bump)
    return bump, -pair * ux


def gaussian_state(spec: ModelSpec, amplitude: float, sigma: float,
                   pair_param: float | None = None) -> FieldState:
    """Gaussian probe state; the pair parameter is the rotation rate (NWE)
    or travel speed (NBE) of the second component."""
    bump = gaussian_profile(spec.grid, amplitude, sigma)
    pair = 0.0 if pair_param is None else pair_param
    return FieldState(spec.model_tag, spec.grid, _gaussian_components(spec, bump, pair))


def _pair_param(spec: ModelSpec, rest, weight):
    """Closed-form minimizer of the ratio over the second-component scale.

    The ratio as a function of the pair parameter w is w/2 + B/(w P) with
    B = rest, the frozen-field energy, and P = weight, the relevant
    quadratic weight (scalars or arrays), so the optimum is sqrt(2 B / P);
    a small floor guards indefinite B.
    """
    floor = 1e-4 * max(1.0, np.sqrt(spec.w.m_sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        best = np.maximum(np.sqrt(2.0 * rest / weight), floor)
    return np.where((rest <= 0.0) | (weight <= 0.0), floor, best)


def _optimal_pair_param(spec: ModelSpec, bump: np.ndarray):
    """The optimal pair parameter (_pair_param) of Gaussian probes, one per
    bump (leading axes of bump are a batch)."""
    g = spec.grid
    if spec.model_tag == NWE:
        field = bump.astype(np.complex128)
        rest = energy_of(spec, (field, np.zeros_like(field)))
        weight = integrate(g, np.abs(bump) ** 2)
    else:
        ux = apply_multiplier(symbols(NBE, g).ddx, bump)
        rest = energy_of(spec, (bump, np.zeros_like(bump)))
        weight = integrate(g, ux**2)
    return _pair_param(spec, rest, weight)


def _gaussian_probe(spec: ModelSpec, amp: float, sigma: float) -> tuple:
    """(components, pair parameter) of one Gaussian probe, with the
    closed-form optimal pair parameter for the wave/beam pairs (None for
    NLS)."""
    bump = gaussian_profile(spec.grid, amp, sigma)
    pair = None if spec.model_tag == NLS else _optimal_pair_param(spec, bump)
    comps = _gaussian_components(spec, bump, pair)
    for comp in comps:
        require_finite(comp)
    return comps, pair


def _chunk_rows(grid: Grid) -> int:
    """Probes per stack: PROBE_CHUNK_POINTS grid points, at least one probe."""
    return max(1, PROBE_CHUNK_POINTS // grid.size)


class _GaussianSums(NamedTuple):
    """Sums over unit periodic Gaussians (gaussian_profile at amplitude 1),
    one value per width: the kinetic and the phase-space-norm spectral sums
    (grid.spectral_sum with the model's kinetic symbol and with 1 + kinetic),
    the mass (the integral of g^2), for NBE the integral of g_x^2 (None
    otherwise), and the integral of g^e per exponent asked for."""

    kinetic: np.ndarray
    norm: np.ndarray
    mass: np.ndarray
    slope: np.ndarray | None
    powers: tuple


def _gaussian_sums(model_tag: str, grid: Grid, sigmas: np.ndarray,
                   exponents=()) -> _GaussianSums:
    """The sums (_GaussianSums) of the unit Gaussians of these widths, from
    their per-axis factors.

    The periodic Gaussian is the product over the axes of its 1-d factors
    g_a = exp(-d_a^2 / (2 sigma^2)), d_a the min-image distance along axis
    a, and its spectrum is the product of theirs.  With S0_a = sum |F_a|^2
    and S2_a = sum k_a^2 |F_a|^2 over the spectrum F_a of g_a, the kinetic
    sum is cv/N sum_a S2_a prod_{b != a} S0_b, the norm sum takes the
    weight 1 + k_0^2 in place of k_0^2 on axis 0, and each quadrature is
    the product of the factors' 1-d quadratures.  The widths go in stacks
    of at most PROBE_CHUNK_POINTS // max(n) rows: one 1-d transform per
    axis and stack, and no array of the grid's size.  On a line the one
    factor is the profile and every sum is the full field's, operation for
    operation (the norm one reduce of (1 + k^2)|F|^2); on 2-d and 3-d grids
    the sums agree with the full-grid ones to rounding.  NBE is
    one-dimensional: its k^4 and its derivative act along its one axis.
    """
    center = tuple(L / 2.0 for L in grid.box_length)
    r_sq = [d.reshape(-1) ** 2 for d in min_image_distances(grid, center)]
    order = 4 if model_tag == NBE else 2
    rows = max(1, PROBE_CHUNK_POINTS // max(grid.n))
    stacks = []
    for start in range(0, len(sigmas), rows):
        # 2 sigma^2 per width, as gaussian_profile takes it
        spread = np.array([[2.0 * sigma**2] for sigma in sigmas[start:start + rows]])
        s0, s2, masses, powers = [], [], [], []
        for axis in range(grid.dim):
            factor = np.exp(-r_sq[axis] / spread)
            require_finite(factor)
            spectrum = gridmod.fft(factor, (-1,))
            density = np.abs(spectrum) ** 2
            k = grid.wavenumbers(axis) ** order
            if axis == 0:
                first, norm0 = spectrum, np.add.reduce((1.0 + k) * density, axis=-1)
            s0.append(np.add.reduce(density, axis=-1))
            s2.append(np.add.reduce(k * density, axis=-1))
            h = grid.spacing[axis]
            masses.append(h * np.add.reduce(factor**2, axis=-1))
            powers.append([h * np.add.reduce(power(factor, e), axis=-1) for e in exponents])
        others = [math.prod(s0[:a] + s0[a + 1:]) for a in range(grid.dim)]
        cross = [s2[a] * others[a] for a in range(grid.dim)]
        slope = None
        if model_tag == NBE:
            ux = apply_to_spectrum(symbols(NBE, grid).ddx, first, real=True)
            require_finite(ux)
            slope = integrate(grid, ux * ux)
        stacks.append((grid.cell_volume / grid.size * sum(cross),
                       grid.cell_volume / grid.size * (norm0 * others[0] + sum(cross[1:])),
                       math.prod(masses), slope) + tuple(math.prod(p) for p in zip(*powers)))
    kinetic, norm, mass, slope, *moments = (
        None if parts[0] is None else np.concatenate(parts) for parts in zip(*stacks))
    return _GaussianSums(kinetic, norm, mass, slope, tuple(moments))


def _power_terms(w) -> list[tuple[float, float]] | None:
    """The terms (e, k), k s^e, of a power-family W, its m^2 s^2 / 2 first;
    None for the saturating family."""
    fam = w.family
    if not isinstance(fam, (SinglePower, DoublePower)):
        return None
    terms = [(2.0, 0.5 * w.m_sq), (fam.p, -fam.b / fam.p)]
    if isinstance(fam, DoublePower):
        terms.append((fam.q_tilde, fam.c / fam.q_tilde))
    return terms


def _potential_integrals(spec: ModelSpec, amps: np.ndarray, sigmas: np.ndarray,
                         powers: tuple) -> np.ndarray:
    """The integral of W(A g) for each amplitude A > 0 (rows) and the unit
    Gaussian g of each width (columns).

    For the power families W(A g) is the sum of k A^e g^e, so the integral
    is a polynomial in A over powers, the integrals of g^e of the family's
    terms (_power_terms, _gaussian_sums); it agrees with the quadrature of
    W(A g) to rounding of the larger term (1e-13 relative).  The saturating
    family is not separable: it is summed over the full profile, per width
    and amplitude, on real stacks of at most PROBE_CHUNK_POINTS grid
    points."""
    g = spec.grid
    terms = _power_terms(spec.w)
    if terms is not None:
        return sum(np.multiply.outer(amps**e, k * moment)
                   for (e, k), moment in zip(terms, powers))
    rows = _chunk_rows(g)
    amps = amps.reshape(amps.shape + (1,) * g.dim)
    return np.column_stack([
        np.concatenate([integrate(g, w_value(spec.w, amps[i:i + rows] * profile))
                        for i in range(0, len(amps), rows)])
        for profile in (gaussian_profile(g, 1.0, sigma) for sigma in sigmas)])


class _GaussianColumn(NamedTuple):
    """E, signed C, the squared phase-space norm and the pair parameter of
    Gaussian probes (None for NLS, 0.0 when not paired)."""

    energy: np.ndarray
    charge: np.ndarray
    norm_sq: np.ndarray
    pair: np.ndarray | float | None


def _gaussian_column(spec: ModelSpec, amps: np.ndarray, sigma,
                     paired: bool = True) -> _GaussianColumn:
    """E, signed C, the squared phase-space norm and the pair parameter of
    the Gaussian probes of the given amplitudes and widths: tables with one
    row per amplitude and one column per width, or one value per amplitude
    for a scalar sigma.

    The probe of amplitude A is A (g, w h), with (g, h) the unit probe and
    w its optimal pair parameter, or w = 0 (a still second component) when
    not paired.  Its kinetic energy, charge and phase-space norm are A^2
    (w A^2, w^2 A^2) times the unit probe's, all taken from the sums of the
    unit Gaussian (_gaussian_sums: on a line one transform per stack of
    widths, on a 2-d or 3-d grid one 1-d transform per axis and stack);
    only the potential integral of W(A g) depends on A otherwise
    (_potential_integrals).  The values agree with evaluating each probe on
    its own to rounding (1e-13 relative); on a line each column is bitwise
    the one its width gives alone.
    """
    amps = np.asarray(amps, dtype=np.float64)
    sigmas = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    sums = _gaussian_sums(spec.model_tag, spec.grid, sigmas,
                          [e for e, _ in _power_terms(spec.w) or ()])
    scale = amps**2
    e = np.multiply.outer(scale, 0.5 * sums.kinetic) + _potential_integrals(
        spec, amps, sigmas, sums.powers)
    # the unit probe's charge and second-component mass: g^2 for NLS, -g^2
    # and g^2 for NWE's (g, -i g), g_x^2 for both of NBE's (g, -g_x)
    charge, second = {NLS: (sums.mass, None), NWE: (-sums.mass, sums.mass),
                      NBE: (sums.slope, sums.slope)}[spec.model_tag]
    c = np.multiply.outer(scale, charge)
    norm_sq = np.multiply.outer(scale, sums.norm)
    pair = None
    if spec.model_tag != NLS:
        second = np.multiply.outer(scale, second)
        # e is still the frozen-field energy
        pair = _pair_param(spec, e, second) if paired else 0.0
        require_finite(pair)
        e = e + 0.5 * pair**2 * second
        c = pair * c
        norm_sq = norm_sq + pair**2 * second
    column = _GaussianColumn(e, c, norm_sq, pair)
    if np.ndim(sigma) == 0:
        return _GaussianColumn(*(x[:, 0] if np.ndim(x) == 2 else x for x in column))
    return column


def gaussian_bulk_column(spec: ModelSpec, params: PenaltyParams, amps: np.ndarray,
                         sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E + a|C|^s, |C| and the phase-space norm of the Gaussian probes of
    these amplitudes and one width with a still second component, one value
    per amplitude (_gaussian_column, not paired)."""
    e, c, norm_sq, _ = _gaussian_column(spec, amps, sigma, paired=False)
    charge = np.abs(c)
    return e + params.a * charge ** params.s_exp, charge, np.sqrt(norm_sq)


def _gaussian_values(spec: ModelSpec, amps: np.ndarray, sigma, value) -> np.ndarray:
    """value(E, C) of the paired Gaussian probes of these amplitudes and
    widths (_gaussian_column), under the ratio's charge floor."""
    column = _gaussian_column(spec, amps, sigma)
    _require_charge(column.charge, np.sqrt(column.norm_sq))
    return value(column.energy, column.charge)


def choose_coercivity_params(spec: ModelSpec, delta: float = 0.02) -> PenaltyParams:
    """Coercivity coefficient and exponent making E + a|C|^s >= 0 hold.

    - NLS power families below the critical power: the matched-exponent
      Young split of the interpolation inequality (module docstring) with
      nash_check's Gaussian-family constant, times COERCIVITY_SAFETY, and
      coercivity_exponent's s;
    - everything else: a = 0 with s = 1, exact when W >= 0 (then E >= 0).
      Where W dips (nonlinearity.w_dip) no a exists on NWE and NBE: the
      still plateau at the dip has C = 0 and E < 0, and the audit's EC-3i
      check fails by it.
    The audit's EC-3i check tests E + a|C|^s whatever the rule.  delta is
    a placeholder the caller (continuation/minimizer) overrides per run.
    """
    fam = spec.w.family
    if spec.model_tag == NLS and isinstance(fam, (SinglePower, DoublePower)):
        s_exp = coercivity_exponent(fam.p, spec.grid.dim)
        q, r = nash_exponents(fam.p, spec.grid.dim)
        b_emp = nash_check(spec.grid, fam.p)
        c3 = fam.b / fam.p
        k_young = ((1.0 - q / 2.0) * q ** (q / (2.0 - q))
                   * (c3 * b_emp) ** (2.0 / (2.0 - q)))
        return PenaltyParams(delta=delta, a=COERCIVITY_SAFETY * k_young,
                             s_exp=s_exp, nash_q=q, nash_r=r, nash_b=b_emp)
    return PenaltyParams(delta=delta, a=0.0, s_exp=1.0)


def lambda0_estimate(spec: ModelSpec) -> float:
    """Vanishing threshold: the limit of E/|C| as the localization seminorm
    vanishes, in closed form.

    Every W is m^2 s^2/2 + o(s^2), so the threshold is the infimum over wave
    numbers k of the ratio of the quadratic parts of E and |C|, with the
    second component optimized: (|k|^2 + m^2)/2 for NLS, sqrt(|k|^2 + m^2)
    for NWE and sqrt(k^4 + m^2)/|k| for NBE, whose infima are m^2/2, m and
    sqrt(2 m) (at |k| = sqrt(m)).  The continuum infimum is never above the
    minimum over a grid's own modes, so the gates that compare against it
    stay conservative.
    """
    if spec.model_tag == NLS:
        return 0.5 * spec.w.m_sq
    m = float(np.sqrt(spec.w.m_sq))
    return m if spec.model_tag == NWE else float(np.sqrt(2.0 * m))


def require_probe_widths(grid: Grid) -> None:
    """Raise Inadmissible when the grid cannot resolve the Gaussian probe
    family: its narrowest width, four grid spacings, must stay below its
    widest, L/8."""
    if 4.0 * max(grid.spacing) >= min(grid.box_length) / 8.0:
        raise Inadmissible("grid too coarse for the probe widths (sigma > L/8 needed)")


@dataclass(frozen=True)
class HylomorphyReport:
    """Verdict on whether concentrated probes beat the vanishing-state floor."""

    lambda0_estimate: float
    best_ratio: float
    witness: dict = field(default_factory=dict)
    verdict: bool = False
    margin: float = 0.0
    note: str = "probe-family estimate (empirical, not certified)"
    # search-window bounds the witness sits on, e.g. "amplitude_upper": an
    # estimate there is a window edge, not an interior optimum
    on_window_bound: list[str] = field(default_factory=list)


def _family_search(spec: ModelSpec, value, amp_bounds: tuple[float, float],
                   sig_bounds: tuple[float, float], grid_size: int = 40,
                   refinements: int = 2):
    """Coordinate grid search of value(E, C) over Gaussian probes in
    (amplitude, width), log-spaced, refined around the incumbent; returns
    (best value, amplitude, width, the winner's components, its pair
    parameter or None for NLS).

    Each round is one amplitude x width table (_gaussian_values): on a line
    one transform per stack of widths, on a 2-d or 3-d grid one 1-d
    transform per axis.  The winner is the first strict minimum in
    amplitude-major order; NaN never wins.  Its value is taken again from
    the winner alone: on a line from evaluating its state, so it is bitwise
    the value of a one-probe-at-a-time search with the same winner; on a
    2-d or 3-d grid from its own column, which makes no grid-sized
    transform.  ValueError unless grid_size >= 2 and refinements >= 0.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    if refinements < 0:
        raise ValueError(f"refinements must be at least 0, got {refinements}")
    a_lo, a_hi = amp_bounds
    s_lo, s_hi = sig_bounds
    best = (np.inf, a_lo, s_lo)
    for _ in range(refinements + 1):
        amps = np.geomspace(a_lo, a_hi, grid_size)
        sigs = np.geomspace(s_lo, s_hi, grid_size)
        table = _gaussian_values(spec, amps, sigs, value)
        table[np.isnan(table)] = np.inf
        i, j = np.unravel_index(np.argmin(table), table.shape)
        if table[i, j] < best[0]:
            best = (float(table[i, j]), float(amps[i]), float(sigs[j]))
        # shrink the window two cells around the incumbent, inside the bounds
        ra = (a_hi / a_lo) ** (2.0 / (grid_size - 1))
        rs = (s_hi / s_lo) ** (2.0 / (grid_size - 1))
        a_lo, a_hi = max(amp_bounds[0], best[1] / ra), min(amp_bounds[1], best[1] * ra)
        s_lo, s_hi = max(sig_bounds[0], best[2] / rs), min(sig_bounds[1], best[2] * rs)
    _, amp, sigma = best
    if spec.grid.dim == 1:
        comps, pair = _gaussian_probe(spec, amp, sigma)
        ev = _floored(spec, comps)
        return float(value(ev.energy, ev.charge)), amp, sigma, comps, pair
    column = _gaussian_column(spec, [amp], sigma)
    _require_charge(column.charge, np.sqrt(column.norm_sq))
    pair = None if column.pair is None else float(column.pair[0])
    comps = _gaussian_components(spec, gaussian_profile(spec.grid, amp, sigma), pair or 0.0)
    for comp in comps:
        require_finite(comp)
    return float(value(column.energy[0], column.charge[0])), amp, sigma, comps, pair


def default_probe_bounds(spec: ModelSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    g = spec.grid
    sig_hi = min(g.box_length) / 8.0
    sig_lo = max(4.0 * max(g.spacing), sig_hi / 16.0)
    return (0.05, 2.0), (sig_lo, sig_hi)


def _window_bounds_hit(amp: float, sigma: float, amp_bounds, sig_bounds) -> list[str]:
    """Names of the search-window bounds that (amp, sigma) sits on."""
    hits = []
    for name, value, (lo, hi) in (("amplitude", amp, amp_bounds), ("width", sigma, sig_bounds)):
        if np.isclose(value, lo, rtol=1e-12, atol=0.0):
            hits.append(f"{name}_lower")
        if np.isclose(value, hi, rtol=1e-12, atol=0.0):
            hits.append(f"{name}_upper")
    return hits


def bulk_descent(spec: ModelSpec, params: PenaltyParams, sigma: float,
                 sig_bounds: tuple[float, float], amp_bounds: tuple[float, float]) -> dict:
    """Descent of the bulk E + a|C|^s over the Gaussian probes with a still
    second component (pair parameter 0, where the bulk is lowest over the
    pair on NWE and NBE), in log width from sigma and in log amplitude
    along each width's column, inside the window.

    A column is one width (gaussian_bulk_column: one transform on a line,
    one 1-d transform per axis on a 2-d or 3-d grid) at
    DESCENT_AMPLITUDES log-spaced amplitudes spanning the window.  Columns
    are compared by their lowest bulk per unit mass, the bulk over
    A^2 sigma^d.  Its sign is the bulk's, but it does not tend to 0 as the
    amplitude vanishes, where the bulk tends to 0 from above and would hold
    a descent.  The comparison takes the vertex of the parabola through the
    lowest value and its two neighbours in log amplitude, since the lowest
    value alone jumps as the width moves the optimum between amplitudes.
    The incumbent width moves to the first of its narrower and wider
    neighbours that is lower, the step doubling up to an octave; when
    neither is, the step halves.  The descent ends when the step falls
    below a 32nd of an octave or after DESCENT_COLUMNS columns.  NaN never
    wins.

    Returns where it ended, the lowest probe of its last column: its
    `bulk`, `width`, `amplitude` and `charge` magnitude, the window bounds
    it sits on (`on_window_bound`), the `columns` it took, and `non_finite`,
    the width and amplitude of the first probe whose bulk was not finite
    (None while every value was)."""
    d = spec.grid.dim
    lo, hi = np.log(sig_bounds)
    amps = np.geomspace(amp_bounds[0], amp_bounds[1], DESCENT_AMPLITUDES)
    non_finite = None
    ends = {}  # log width -> (lowest bulk per mass, log width, bulk, amplitude, charge)

    def column(x):
        nonlocal non_finite
        if x not in ends:
            bulk, charge, _ = gaussian_bulk_column(spec, params, amps, np.exp(x))
            finite = np.isfinite(bulk)
            if non_finite is None and not finite.all():
                non_finite = {"width": float(np.exp(x)),
                              "amplitude": float(amps[np.argmin(finite)])}
            per_mass = np.where(finite, bulk / (amps**2 * np.exp(d * x)), np.inf)
            k = int(np.argmin(per_mass))
            level = per_mass[k]
            if 0 < k < len(amps) - 1:
                g0, g1, g2 = per_mass[k - 1:k + 2]
                if np.isfinite(g0 + g2) and g0 + g2 > 2.0 * g1:
                    level = g1 - (g2 - g0) ** 2 / (8.0 * (g0 - 2.0 * g1 + g2))
            ends[x] = (level, x, float(bulk[k]), float(amps[k]), float(charge[k]))
        return ends[x]

    here = column(float(np.clip(np.log(sigma), lo, hi)))
    step = np.log(2.0) / 2.0
    while step >= np.log(2.0) / 32.0 and len(ends) < DESCENT_COLUMNS:
        x = here[1]
        for there in (max(lo, x - step), min(hi, x + step)):
            if len(ends) < DESCENT_COLUMNS and column(there)[0] < here[0]:
                here = ends[there]
                step = min(2.0 * step, np.log(2.0))
                break
        else:
            step /= 2.0
    _, x, bulk, amplitude, charge = here
    width = float(np.exp(x))
    return {"bulk": bulk, "width": width, "amplitude": amplitude, "charge": charge,
            "on_window_bound": _window_bounds_hit(amplitude, width, amp_bounds, sig_bounds),
            "columns": len(ends), "non_finite": non_finite}


def hylomorphy_check(spec: ModelSpec, margin: float | None = None, grid_size: int = 40,
                     refinements: int = 2) -> HylomorphyReport:
    """Search the Gaussian probe family for ratios below the vanishing floor.

    The verdict is true iff the best ratio undercuts lambda0 (closed form)
    by the margin (default one part in 10^3 of lambda0); it depends on the
    model alone, not on the penalty parameters.
    """
    require_probe_widths(spec.grid)
    lam0 = lambda0_estimate(spec)
    if margin is None:
        margin = 1e-3 * abs(lam0)
    amp_bounds, sig_bounds = default_probe_bounds(spec)
    best_val, best_amp, best_sig, _, pair = _family_search(
        spec, _ratio, amp_bounds, sig_bounds, grid_size, refinements)
    witness = {"amplitude": best_amp, "width": best_sig}
    if pair is not None:
        witness["pair_param"] = float(pair)
    return HylomorphyReport(
        lambda0_estimate=lam0,
        best_ratio=best_val,
        witness=witness,
        verdict=bool(best_val < lam0 - margin),
        margin=margin,
        on_window_bound=_window_bounds_hit(best_amp, best_sig, amp_bounds, sig_bounds),
    )


def penalized_probe_seed(spec: ModelSpec, params: PenaltyParams,
                         grid_size: int = 40, refinements: int = 2):
    """Best Gaussian probe for the penalized objective at these params.

    Used to seed descent and to verify that the penalized infimum undercuts
    the vanishing floor at this delta; the plain ratio witness tends to sit
    at the amplitude bound where the bulk term is large, which would gate
    the usable delta range far below its true extent.
    """
    amp_bounds, sig_bounds = default_probe_bounds(spec)
    best_val, _, _, comps, _ = _family_search(
        spec, lambda e, c: penalized_value(e, c, params), amp_bounds, sig_bounds,
        grid_size, refinements)
    return FieldState(spec.model_tag, spec.grid, comps), best_val
