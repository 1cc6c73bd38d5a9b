"""Parametric potentials W(s) = m^2 s^2 / 2 + N(s) and per-model condition checks.

The potential families are hard-coded closed forms (no user callbacks) so
every derivative is analytic and most condition verdicts can be decided by
exponent comparison instead of sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SinglePower", "DoublePower", "Saturating", "WSpec",
    "power", "w_value", "w_eval", "w_dip", "w_prime_over_s", "ConditionVerdict",
    "WConditionReport", "check_w_conditions", "critical_exponent", "sobolev_critical",
]


@dataclass(frozen=True)
class SinglePower:
    """N(s) = -(b/p) s^p: focusing power well (b >= 0, p > 2)."""

    b: float
    p: float

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("b must be >= 0")
        if self.p <= 2:
            raise ValueError("p must exceed 2")


@dataclass(frozen=True)
class DoublePower:
    """N(s) = -(b/p) s^p + (c/q_tilde) s^q_tilde with a stabilizing tail q_tilde > p."""

    b: float
    p: float
    c: float
    q_tilde: float

    def __post_init__(self):
        if self.b < 0 or self.c < 0:
            raise ValueError("b and c must be >= 0")
        if self.p <= 2:
            raise ValueError("p must exceed 2")
        if self.q_tilde <= self.p:
            raise ValueError("q_tilde must exceed p")


@dataclass(frozen=True)
class Saturating:
    """W(s) = M_bar (1 - exp(-m^2 s^2 / (2 M_bar))): bounded potential.

    Stays below M_bar everywhere, so it realizes a sublinear growth bound
    W(s) <= M |s|^alpha with the declared exponent alpha in [0, 2).
    """

    alpha: float
    m_bar: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 2.0:
            raise ValueError("alpha must lie in [0, 2)")
        if self.m_bar <= 0:
            raise ValueError("m_bar must be positive")


Family = SinglePower | DoublePower | Saturating


@dataclass(frozen=True)
class WSpec:
    """Potential m^2 s^2 / 2 + N(s) with one of the supported families."""

    m_sq: float
    family: Family

    def __post_init__(self):
        if self.m_sq < 0:
            raise ValueError("m_sq must be >= 0")


def _saturation(spec: WSpec, s, out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(beta, exp(-beta s^2)) of the saturating family, built in out when given."""
    m2 = spec.m_sq
    beta = m2 / (2.0 * spec.family.m_bar) if m2 > 0 else 0.0
    decay = np.multiply(-beta, np.square(s, out=out), out=out)
    return beta, np.exp(decay, out=out)


def power(s, e: float) -> np.ndarray:
    """s**e for s >= 0 and e > 0, vectorized, bitwise the plain power.

    Below 2**(-1076/e) the power is under half the smallest subnormal and
    rounds to +0, so those elements skip pow, whose underflowing results
    (the tails of narrow Gaussians) take libm's slow path.  Without such
    elements the plain power runs: the masked one is slower per element."""
    s = np.asarray(s, dtype=np.float64)
    cut = 2.0 ** (-1076.0 / e)
    if s.min(initial=np.inf) >= cut:
        return s**e
    return np.power(s, e, out=np.zeros_like(s), where=~(s < cut))


def w_value(spec: WSpec, s):
    """W at s >= 0, vectorized and unchecked: the potential formula that the
    energy and w_eval share."""
    m2 = spec.m_sq
    fam = spec.family
    if isinstance(fam, SinglePower):
        return 0.5 * m2 * s**2 - (fam.b / fam.p) * power(s, fam.p)
    if isinstance(fam, DoublePower):
        return (0.5 * m2 * s**2 - (fam.b / fam.p) * power(s, fam.p)
                + (fam.c / fam.q_tilde) * power(s, fam.q_tilde))
    return fam.m_bar * (1.0 - _saturation(spec, s)[1])


def w_eval(spec: WSpec, s):
    """(W, W', W'') at s >= 0, vectorized; all three by closed formula."""
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("w_eval expects s >= 0")
    m2 = spec.m_sq
    fam = spec.family
    w = w_value(spec, s)
    if isinstance(fam, SinglePower):
        w1 = m2 * s - fam.b * s ** (fam.p - 1)
        w2 = m2 - fam.b * (fam.p - 1) * s ** (fam.p - 2)
    elif isinstance(fam, DoublePower):
        w1 = m2 * s - fam.b * s ** (fam.p - 1) + fam.c * s ** (fam.q_tilde - 1)
        w2 = (m2 - fam.b * (fam.p - 1) * s ** (fam.p - 2)
              + fam.c * (fam.q_tilde - 1) * s ** (fam.q_tilde - 2))
    else:
        beta, decay = _saturation(spec, s)
        w1 = m2 * s * decay
        w2 = m2 * decay * (1.0 - 2.0 * beta * s**2)
    if s.ndim == 0:
        return float(w), float(w1), float(w2)
    return w, w1, w2


def w_dip(spec: WSpec) -> float | None:
    """A closed-form s0 with W(s0) < 0 finite, or None when W >= 0 on
    [0, inf) follows from the family's coefficients (a tangent minimum
    included) or no dip lies within the float range.

    A single power with b > 0 dips where (b/p) s0^(p-2) = max(m^2, 1).  A
    double power's W(s)/s^2 = m^2/2 - (b/p) s^(p-2) + (c/q~) s^(q~-2) has
    one interior critical point, its minimum, at
    s0^(q~-p) = [b (p-2)/p] / [c (q~-2)/q~], where it equals
    m^2/2 - (b/p) s0^(p-2) (q~-p)/(q~-2); W dips there when that is
    negative.  Where W at that s0 is not finite (the tail overflows) the
    single power's point stands in."""
    fam = spec.family
    if isinstance(fam, Saturating) or fam.b == 0:
        return None
    p = fam.p
    points = []
    try:
        if isinstance(fam, DoublePower) and fam.c > 0:
            q = fam.q_tilde
            s0 = ((fam.b * (p - 2) / p) / (fam.c * (q - 2) / q)) ** (1.0 / (q - p))
            if fam.b / p * s0 ** (p - 2) * (q - p) / (q - 2) <= 0.5 * spec.m_sq:
                return None
            points.append(s0)
    except (OverflowError, ZeroDivisionError):  # s0 beyond the float range
        pass
    try:
        points.append((p * max(spec.m_sq, 1.0) / fam.b) ** (1.0 / (p - 2)))
    except OverflowError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        return next((s for s in points if -np.inf < w_value(spec, s) < 0.0), None)


def w_prime_over_s(spec: WSpec, s, out: np.ndarray | None = None):
    """W'(s)/s evaluated stably (finite limit m^2 at s = 0), vectorized.

    This is the factor multiplying the field in the force W'(|f|) f / |f|,
    which removes the 0/0 at f = 0.

    With out, a float64 array shaped like s, the same operations run in
    place in out and make no temporary (for a slab task on a helper
    thread); s must then be a float64 array too, and the double power
    overwrites it.  The values are bitwise the same either way.
    """
    s = np.asarray(s, dtype=np.float64)
    m2 = spec.m_sq
    fam = spec.family
    if out is None:
        if isinstance(fam, SinglePower):
            return m2 - fam.b * s ** (fam.p - 2)
        if isinstance(fam, DoublePower):
            return m2 - fam.b * s ** (fam.p - 2) + fam.c * s ** (fam.q_tilde - 2)
        return m2 * _saturation(spec, s)[1]
    if isinstance(fam, Saturating):
        return np.multiply(m2, _saturation(spec, s, out)[1], out=out)
    np.power(s, fam.p - 2, out=out)
    np.multiply(fam.b, out, out=out)
    np.subtract(m2, out, out=out)
    if isinstance(fam, DoublePower):
        np.power(s, fam.q_tilde - 2, out=s)
        np.multiply(fam.c, s, out=s)
        np.add(out, s, out=out)
    return out


def sobolev_critical(dim: int) -> float:
    """Critical power 2N/(N-2) (infinite below dimension 3)."""
    return np.inf if dim <= 2 else 2.0 * dim / (dim - 2.0)


def critical_exponent(dim: int) -> float:
    """Charge-critical growth bound 2 + 4/N."""
    return 2.0 + 4.0 / dim


_DEFAULT_S_GRID = (1e-6, 1e3, 400)


def _sample_grid() -> np.ndarray:
    lo, hi, num = _DEFAULT_S_GRID
    return np.geomspace(lo, hi, num)


@dataclass(frozen=True)
class ConditionVerdict:
    passed: bool
    kind: str  # "analytic" | "sampled"
    detail: str
    witness: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WConditionReport:
    theorem_id: str
    conditions: dict[str, ConditionVerdict]
    s_range: tuple[float, float, int] = _DEFAULT_S_GRID

    def all_passed(self) -> bool:
        return all(v.passed for v in self.conditions.values())


def _hylomorphy_verdict(spec: WSpec) -> ConditionVerdict:
    """Does N dip negative somewhere (N(s0) < 0 for some s0 > 0)?"""
    s = _sample_grid()
    w = w_eval(spec, s)[0]
    n_vals = w - 0.5 * spec.m_sq * s**2
    idx = np.where(n_vals < 0)[0]
    if idx.size:
        i = idx[np.argmin(n_vals[idx])]
        return ConditionVerdict(True, "sampled", "N dips negative on the sample grid",
                                {"s0": float(s[i]), "N_s0": float(n_vals[i])})
    return ConditionVerdict(False, "sampled", "N >= 0 on the sample grid")


def _positivity_verdict(spec: WSpec, strict: bool) -> ConditionVerdict:
    """W >= 0, or W > 0 away from 0 when strict.  A dip of W (w_dip) fails
    it wherever the dip lies; otherwise W is sampled, which decides the
    strict zeros."""
    s0 = w_dip(spec)
    if s0 is not None:
        return ConditionVerdict(False, "analytic", "W dips below zero",
                                {"s": s0, "W": float(w_value(spec, s0))})
    s = _sample_grid()
    w = w_eval(spec, s)[0]
    bad = np.where(w < 0)[0] if not strict else np.where(w <= 0)[0]
    if bad.size:
        i = bad[np.argmin(w[bad])]
        return ConditionVerdict(False, "sampled", "W takes a nonpositive value",
                                {"s": float(s[i]), "W": float(w[i])})
    if isinstance(spec.family, Saturating):
        return ConditionVerdict(True, "analytic", "saturating family is positive for s != 0")
    return ConditionVerdict(True, "sampled", "W >= 0 on the sample grid")


def _nondegeneracy_verdict(spec: WSpec) -> ConditionVerdict:
    ok = spec.m_sq > 0
    return ConditionVerdict(ok, "analytic", f"W''(0) = {spec.m_sq}",
                            {"w2_at_zero": spec.m_sq})


def _lower_growth_verdict(spec: WSpec, gamma_bound: float) -> ConditionVerdict:
    """N(s) >= -c1 s^2 - c2 s^gamma for some gamma below the critical bound."""
    fam = spec.family
    if isinstance(fam, Saturating):
        # N >= -m^2 s^2 / 2 since W >= 0
        return ConditionVerdict(True, "analytic", "bounded family: gamma = 2 suffices",
                                {"gamma": 2.0, "gamma_bound": gamma_bound})
    if isinstance(fam, DoublePower) and fam.c > 0:
        # positive tail dominates: N is bounded below, gamma = 2 works
        s = _sample_grid()
        n_vals = -(fam.b / fam.p) * s**fam.p + (fam.c / fam.q_tilde) * s**fam.q_tilde
        return ConditionVerdict(True, "analytic",
                                "stabilizing tail bounds N below: gamma = 2",
                                {"gamma": 2.0, "gamma_bound": gamma_bound,
                                 "min_N_sampled": float(n_vals.min())})
    p = fam.p
    if fam.b == 0:
        return ConditionVerdict(True, "analytic", "N >= 0 (no negative term)",
                                {"gamma": 2.0, "gamma_bound": gamma_bound})
    if p < gamma_bound:
        return ConditionVerdict(True, "analytic", f"gamma = p = {p} below bound",
                                {"gamma": p, "gamma_bound": gamma_bound})
    return ConditionVerdict(False, "analytic",
                            f"leading negative power p = {p} is at or above the bound",
                            {"gamma": p, "gamma_bound": gamma_bound})


def _derivative_growth_verdict(spec: WSpec, dim: int) -> ConditionVerdict:
    """|N'(s)| (or its negative part) controlled by powers below the Sobolev range."""
    fam = spec.family
    two_star = sobolev_critical(dim)
    if isinstance(fam, Saturating):
        # N'(s) = m^2 s (exp(-beta s^2) - 1) >= -m^2 s
        return ConditionVerdict(True, "analytic", "N' >= -m^2 s",
                                {"growth_q": 2.0, "growth_p": 2.0})
    p = fam.p
    ok = 2.0 < p < two_star
    detail = f"power p = {p} against the admissible range (2, {two_star})"
    return ConditionVerdict(ok, "analytic", detail,
                            {"growth_q": p, "growth_p": p, "two_star": two_star})


def _alpha_growth_verdict(spec: WSpec) -> ConditionVerdict:
    """W(s) <= M |s|^alpha with alpha in [0, 2) (bounded-energy-density class)."""
    fam = spec.family
    if isinstance(fam, Saturating):
        if fam.alpha == 0.0:
            return ConditionVerdict(True, "analytic", "W <= M_bar everywhere",
                                    {"alpha": 0.0, "M": fam.m_bar})
        s = _sample_grid()
        w = w_eval(spec, s)[0]
        ratios = w / s**fam.alpha
        return ConditionVerdict(True, "sampled",
                                "bounded family under declared sublinear exponent",
                                {"alpha": fam.alpha, "M": float(ratios.max())})
    s = _sample_grid()
    w = w_eval(spec, s)[0]
    # any alpha < 2 fails if W grows at least quadratically at infinity
    tail = w[-1] / s[-1] ** 2
    if tail > 0:
        return ConditionVerdict(False, "sampled",
                                "W grows at least quadratically at infinity",
                                {"tail_ratio_at_smax": float(tail)})
    return ConditionVerdict(False, "sampled", "power families are unbounded in |s|^alpha")


def _floor_verdict(spec: WSpec) -> ConditionVerdict:
    """W(s) >= w_floor > 0 for |s| >= 1 (floor constant away from zero)."""
    s = np.geomspace(1.0, _DEFAULT_S_GRID[1], 200)
    w = w_eval(spec, s)[0]
    floor = float(w.min())
    if isinstance(spec.family, Saturating):
        # W is increasing in |s|, so the floor is W(1)
        return ConditionVerdict(floor > 0, "analytic", "monotone family: floor = W(1)",
                                {"w_floor": float(w_eval(spec, 1.0)[0])})
    return ConditionVerdict(floor > 0, "sampled", "minimum of W on |s| >= 1",
                            {"w_floor": floor})


def check_w_conditions(spec: WSpec, theorem_id: str, dim: int = 1) -> WConditionReport:
    """Condition battery for one model family (NSE, NWE or NBE).

    The growth conditions compare exponents against dimension-dependent
    bounds, hence the explicit dim argument.  Failures are verdicts with
    witnesses, never exceptions.
    """
    if theorem_id not in ("NSE", "NWE", "NBE"):
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    conds: dict[str, ConditionVerdict] = {}
    if theorem_id == "NSE":
        conds["Fp-growth"] = _derivative_growth_verdict(spec, dim)
        conds["F0-lower-bound"] = _lower_growth_verdict(spec, critical_exponent(dim))
        conds["hylomorphy"] = _hylomorphy_verdict(spec)
    elif theorem_id == "NWE":
        conds["W-i-positivity"] = _positivity_verdict(spec, strict=False)
        conds["W-ii-nondegeneracy"] = _nondegeneracy_verdict(spec)
        conds["W-iii-hylomorphy"] = _hylomorphy_verdict(spec)
        conds["W-iiii-growth"] = _derivative_growth_verdict(spec, dim)
    else:
        conds["W-i-positivity-floor"] = _merge_positivity_floor(spec)
        conds["W-ii-nondegeneracy"] = _nondegeneracy_verdict(spec)
        conds["W-iii-alpha-growth"] = _alpha_growth_verdict(spec)
    return WConditionReport(theorem_id=theorem_id, conditions=conds)


def _merge_positivity_floor(spec: WSpec) -> ConditionVerdict:
    pos = _positivity_verdict(spec, strict=True)
    floor = _floor_verdict(spec)
    passed = pos.passed and floor.passed
    witness = dict(pos.witness)
    witness.update(floor.witness)
    kind = "analytic" if pos.kind == floor.kind == "analytic" else "sampled"
    return ConditionVerdict(passed, kind,
                            f"positivity: {pos.detail}; floor: {floor.detail}", witness)
