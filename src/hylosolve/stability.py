"""Stability lab: perturb a computed minimizer, evolve, and audit the
quadratic level-set functional and the orbit distance.

All perturbed copies evolve together as one stack (one evolve call), each
row with the trace it would get alone.

Verdict thresholds are engineering constants recorded in the report; the
whole lab is sampled evidence, never a certificate, and every report says
so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import (COMPLEX_MODELS, FieldState, LatticeShift, phase_rotate, random_state,
                   translate, x_norm as state_x_norm, x_norm_of)
from .dynamics import EvolutionTrace, evolve
from .minimize import MinimizeResult
from .models import ModelSpec, charge, energy
from .rng import SplitMix64

__all__ = [
    "Perturbation", "StabilityRow", "StabilityReport",
    "apply_perturbation", "run_stability",
]

EMPIRICAL_BANNER = "empirical only: sampled perturbation shells, not a stability proof"


@dataclass(frozen=True)
class Perturbation:
    """One perturbation recipe; eps = 0 is always the identity map."""

    kind: str  # additive_noise | amplitude_scale | shift_and_phase
    eps: float = 0.0
    band_limit: int | None = None
    seed: int = 0
    z: tuple[int, ...] | None = None
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("additive_noise", "amplitude_scale", "shift_and_phase"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")

    @staticmethod
    def additive_noise(eps: float, band_limit: int = 8, seed: int = 0) -> "Perturbation":
        return Perturbation("additive_noise", eps=eps, band_limit=band_limit, seed=seed)

    @staticmethod
    def amplitude_scale(eps: float) -> "Perturbation":
        return Perturbation("amplitude_scale", eps=eps)

    @staticmethod
    def shift_and_phase(z, theta: float = 0.0) -> "Perturbation":
        return Perturbation("shift_and_phase", z=tuple(int(v) for v in z), theta=theta)

    def describe(self) -> dict:
        out = {"kind": self.kind, "eps": self.eps}
        if self.kind == "additive_noise":
            out.update(band_limit=self.band_limit, seed=self.seed)
        if self.kind == "shift_and_phase":
            out.update(z=list(self.z or ()), theta=self.theta)
        return out


def apply_perturbation(spec: ModelSpec, state: FieldState, pert: Perturbation,
                       seed_offset: int = 0) -> FieldState:
    if pert.eps == 0.0 and pert.kind in ("additive_noise", "amplitude_scale"):
        return state
    if pert.kind == "additive_noise":
        # band-limited noise (grid.random_state at unit rms) scaled to
        # eps * max(1, ||state||_X) in the phase-space norm
        rng = SplitMix64(pert.seed + seed_offset).split("stability-noise")
        noise = random_state(spec.model_tag, spec.grid, rng, band_limit=pert.band_limit)
        norm = state_x_norm(noise)
        factor = pert.eps * max(1.0, state_x_norm(state)) / norm if norm else 1.0
        return state.replace_components(tuple(
            a + factor * b for a, b in zip(state.components, noise.components)))
    if pert.kind == "amplitude_scale":
        return state.replace_components(tuple((1.0 + pert.eps) * c for c in state.components))
    shifted = translate(state, LatticeShift(pert.z or (0,) * state.grid.dim))
    if pert.theta != 0.0:
        if spec.model_tag not in COMPLEX_MODELS:
            raise ValueError("phase offset is undefined for the real beam model")
        shifted = phase_rotate(shifted, pert.theta)
    return shifted


@dataclass(frozen=True)
class StabilityRow:
    perturbation: dict
    v0: float
    max_v: float
    max_orbit_dist: float
    initial_perturbation_norm: float
    verdict: str
    blew_up: bool


@dataclass
class StabilityReport:
    rows: list[StabilityRow]
    e_ref: float
    c_ref: float
    kappa: float
    abs_tol: float
    T: float
    dt: float
    note: str = EMPIRICAL_BANNER
    traces: list[EvolutionTrace] = field(default_factory=list)


def run_stability(spec: ModelSpec, result: MinimizeResult, perturbations,
                  T: float, dt: float, record_every: int = 100,
                  kappa: float = 4.0, abs_tol: float = 1e-6,
                  seed: int = 0) -> StabilityReport:
    """Evolve every perturbed copy of the minimizer and classify.

    The copies are built first and evolved as one stack by a single evolve
    call; each row's trace equals its solo run, and a row that blows up
    stops alone.  Stable means max_t V <= kappa V(0) + abs_tol and no
    blow-up; blow-up is reported as its own verdict rather than an error.
    Per-perturbation seeds derive from seed + index, so rows are
    independent and reproducible.
    """
    if not result.converged:
        raise ValueError("stability lab needs a converged minimizer")
    reference = result.state
    e_ref = energy(spec, reference)
    c_ref = charge(spec, reference)
    perturbations = list(perturbations)
    perturbed = [apply_perturbation(spec, reference, pert, seed_offset=seed + index)
                 for index, pert in enumerate(perturbations)]
    traces: list[EvolutionTrace] = evolve(spec, perturbed, T, dt, record_every=record_every,
                                          reference=reference)
    rows: list[StabilityRow] = []
    for pert, state, trace in zip(perturbations, perturbed, traces):
        pert_norm = float(x_norm_of(spec.model_tag, spec.grid, tuple(
            a - b for a, b in zip(state.components, reference.components))))
        v0 = float(trace.v[0]) if trace.v.size else float("nan")
        max_v = float(trace.v.max()) if trace.v.size else float("inf")
        max_od = float(trace.orbit_dist.max()) if trace.orbit_dist.size else float("inf")
        if trace.blew_up:
            verdict = "unstable(blow-up)"
        elif max_v <= kappa * v0 + abs_tol:
            verdict = "stable"
        else:
            verdict = "unstable"
        rows.append(StabilityRow(pert.describe(), v0, max_v, max_od,
                                 pert_norm, verdict, trace.blew_up))
    return StabilityReport(rows=rows, e_ref=e_ref, c_ref=c_ref, kappa=kappa,
                           abs_tol=abs_tol, T=T, dt=dt, traces=traces)
