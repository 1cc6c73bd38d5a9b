"""The three concrete systems: energies, charges, gradients, and one
split-step integrator each.

Conventions fixed here and used everywhere downstream:

* Gradients are taken with respect to the real L2 pairing
  Re sum_c integral(g_c conj(d_c)) dx, so for every direction d the pairing
  of grad with d equals the one-sided derivative of the functional.  In
  particular grad of the charge integral(|psi|^2) is 2 psi.
* The quadratic m^2 part of the force is folded into the linear propagator
  for the two wave-type models, so the fourth-order beam operator imposes
  no step-size restriction (the linear flow is exact in Fourier space).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import grid as gridmod
from .exceptions import NonFinite
from .grid import (NLS, NWE, NBE, FieldState, Grid, apply_multiplier, integrate,
                   spectral_quadratic, symbols)
from .nonlinearity import WSpec, w_prime_over_s, w_value

__all__ = [
    "ModelSpec", "energy", "energy_of", "charge", "charge_of", "grad_energy", "grad_charge",
    "evolve_step", "x_norm", "time_reverse", "l2_inner", "l2_norm", "lyapunov_v",
    "lyapunov_v_of",
]


@dataclass(frozen=True)
class ModelSpec:
    """A model tag, its grid, and the potential it runs with."""

    model_tag: str
    grid: Grid
    w: WSpec

    def __post_init__(self):
        if self.model_tag not in gridmod.MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model_tag!r}")
        if self.model_tag == NBE and self.grid.dim != 1:
            raise ValueError("the beam model is one-dimensional")

    def zero_state(self) -> FieldState:
        return FieldState.zero(self.model_tag, self.grid)


def _check(spec: ModelSpec, state: FieldState):
    if state.model_tag != spec.model_tag or state.grid != spec.grid:
        raise gridmod.GridMismatch("state does not match the model spec")


def energy_of(spec: ModelSpec, components):
    """Conserved energy of the model: the kinetic part of the first
    component by Parseval with the model's symbol, plus the quadrature of
    the potential and of half the squared velocity-like component.

    The component arrays may carry leading batch axes; the result has one
    value per batch index."""
    g = spec.grid
    field = components[0]
    local = w_value(spec.w, np.abs(field))
    if len(components) == 2:
        local = 0.5 * np.abs(components[1]) ** 2 + local
    kinetic = 0.5 * spectral_quadratic(g, symbols(spec.model_tag, g).kinetic, field)
    return kinetic + integrate(g, local)


def energy(spec: ModelSpec, state: FieldState) -> float:
    """The energy of one state (see energy_of)."""
    _check(spec, state)
    return float(energy_of(spec, state.components))


def charge_of(spec: ModelSpec, components):
    """Conserved charge: L2 mass (NLS), Im of the pair product (NWE),
    or momentum (NBE).  Signed for the latter two.  One value per leading
    batch index of the component arrays."""
    g = spec.grid
    if spec.model_tag == NLS:
        return integrate(g, np.abs(components[0]) ** 2)
    if spec.model_tag == NWE:
        psi, phi = components
        # an explicit in-place product: numpy's own reuse of a large
        # temporary rounds complex products differently, which would make a
        # stack of states disagree with the same states one by one
        prod = np.conj(psi)
        np.multiply(phi, prod, out=prod)
        return integrate(g, prod.imag)
    u, v = components
    ux = apply_multiplier(symbols(NBE, g).ddx, u)
    return integrate(g, -v * ux)


def charge(spec: ModelSpec, state: FieldState) -> float:
    """The charge of one state (see charge_of)."""
    _check(spec, state)
    return float(charge_of(spec, state.components))


def grad_energy(spec: ModelSpec, state: FieldState) -> FieldState:
    """Riesz gradient of the energy under the real L2 pairing: the kinetic
    symbol applied to the first component plus the potential force; the
    velocity-like second component is its own gradient."""
    _check(spec, state)
    field = state.components[0]
    kinetic = apply_multiplier(symbols(spec.model_tag, spec.grid).kinetic, field)
    force = w_prime_over_s(spec.w, np.abs(field)) * field
    return state.replace_components((kinetic + force,) + state.components[1:])


def grad_charge(spec: ModelSpec, state: FieldState) -> FieldState:
    """Riesz gradient of the charge under the real L2 pairing."""
    _check(spec, state)
    g = spec.grid
    if spec.model_tag == NLS:
        return state.replace_components((2.0 * state.psi,))
    if spec.model_tag == NWE:
        psi, phi = state.components
        return state.replace_components((-1j * phi, 1j * psi))
    u, v = state.components
    ddx = symbols(NBE, g).ddx
    return state.replace_components((apply_multiplier(ddx, v), -apply_multiplier(ddx, u)))


def l2_inner(a: FieldState, b: FieldState) -> float:
    """Real L2 pairing of two state-shaped fields (the gradient pairing)."""
    if a.grid != b.grid or a.model_tag != b.model_tag:
        raise gridmod.GridMismatch("states do not share grid/tag")
    total = 0.0
    for ca, cb in zip(a.components, b.components):
        total += float(np.sum((ca * np.conj(cb)).real))
    return a.grid.cell_volume * total


def l2_norm(a: FieldState) -> float:
    return float(np.sqrt(max(l2_inner(a, a), 0.0)))


def lyapunov_v_of(e, c, e_ref: float, c_ref: float):
    """(E - e_ref)^2 + (C - c_ref)^2 of given energy and signed charge
    values; elementwise on arrays of them."""
    de = e - e_ref
    dc = c - c_ref
    return de * de + dc * dc


def lyapunov_v(spec: ModelSpec, state: FieldState, e_ref: float, c_ref: float) -> float:
    """(E - e_ref)^2 + (C - c_ref)^2 of one state, with the charge kept signed.

    Vanishes exactly on the (e_ref, c_ref) level set; along a flow that
    conserves E and C it is constant up to integrator drift.
    """
    return lyapunov_v_of(energy(spec, state), charge(spec, state), e_ref, c_ref)


def x_norm(spec: ModelSpec, state: FieldState) -> float:
    """Phase-space norm (see grid.x_norm); spec form kept for symmetry."""
    _check(spec, state)
    return gridmod.x_norm(state)


def time_reverse(state: FieldState) -> FieldState:
    """The involution conjugating forward and backward flow: conjugate the
    field and negate the velocity-like component."""
    if state.model_tag == NLS:
        return state.replace_components((np.conj(state.psi),))
    if state.model_tag == NWE:
        psi, phi = state.components
        return state.replace_components((np.conj(psi), -np.conj(phi)))
    u, v = state.components
    return state.replace_components((u, -v))


class _Propagator:
    """Precomputed split-step kernels for one (spec, dt).

    step advances a number of Strang steps on raw arrays whose trailing
    axes are the grid; a leading axis is a stack of independent rows, each
    transformed over the grid axes alone, so every row evolves as it would
    on its own.  Adjacent half nonlinear substeps of consecutive steps
    merge into one full substep: for NLS the half phase rotations commute
    because |psi| is invariant under them, and for NWE/NBE both half-kicks
    see the same field (the kick-drift-kick merge).  Only the first and
    the last substep stay half, so one step is exactly the unmerged Strang
    step.
    """

    def __init__(self, spec: ModelSpec, dt: float):
        self.spec = spec
        self.dt = dt
        self.axes = spec.grid.axes
        kinetic = symbols(spec.model_tag, spec.grid).kinetic
        if spec.model_tag == NLS:
            # i psi_t = -(1/2) lap psi + (1/2) W'(psi): exact kinetic phase
            self.lin = np.exp(-0.5j * dt * kinetic)
        else:
            lam = np.sqrt(kinetic + spec.w.m_sq)
            self.cos = np.cos(lam * dt)
            self.sinc = dt * np.sinc(lam * dt / np.pi)  # sin(lam dt)/lam, safe at 0
            self.neg_lam_sin = -(lam * np.sin(lam * dt))

    def step(self, comps: tuple[np.ndarray, ...], steps: int) -> tuple[np.ndarray, ...]:
        """Advance `steps` Strang steps.  Fields that overflow mid-way turn
        non-finite and stay so; the caller detects that on the result."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.spec.model_tag == NLS:
                return (self._nls(comps[0], steps),)
            return self._wave(*comps, steps)

    def _nls(self, psi: np.ndarray, steps: int) -> np.ndarray:
        dt, axes = self.dt, self.axes
        psi = self._rotate(psi, -0.25j * dt)
        for i in range(steps):
            psi = np.fft.ifftn(self.lin * np.fft.fftn(psi, axes=axes), axes=axes)
            psi = self._rotate(psi, -0.5j * dt if i < steps - 1 else -0.25j * dt)
        return psi

    def _rotate(self, psi: np.ndarray, coef: complex) -> np.ndarray:
        # exp(coef W'(|psi|)/|psi|) psi, built in one buffer
        rot = coef * w_prime_over_s(self.spec.w, np.abs(psi))
        np.exp(rot, out=rot)
        return np.multiply(rot, psi, out=rot)

    def _wave(self, a: np.ndarray, b: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
        # The block stays in Fourier space: after the first half-kick each
        # component is transformed once; a step mixes the transforms and
        # brings back only the field, whose force kicks the second transform.
        # 2 * steps + 2 FFTs per block, all into the three work arrays.
        dt, axes = self.dt, self.axes
        real = self.spec.model_tag == NBE
        fa = np.fft.fftn(a, axes=axes, out=np.empty(a.shape, np.complex128))
        fb = np.fft.fftn(self._kicked(b, a, 0.5 * dt), axes=axes,
                         out=np.empty(a.shape, np.complex128))
        field = np.empty(a.shape, np.complex128)
        for i in range(steps):
            # exact linear flow: (fa, fb) <- (cos fa + sinc fb, -lam sin fa + cos fb)
            mixed = np.multiply(self.neg_lam_sin, fa)
            np.multiply(self.sinc, fb, out=field)
            np.multiply(self.cos, fa, out=fa)
            fa += field
            np.multiply(self.cos, fb, out=fb)
            fb += mixed
            del mixed  # not alive while the force is computed: bounds peak memory
            a = np.fft.ifftn(fa, axes=axes, out=field)
            if real:
                a = a.real
            if i < steps - 1:
                # full kick on the transform: fb -= dt * fft(force(a))
                np.multiply(self._force_factor(a), a, out=field)
                np.fft.fftn(field, axes=axes, out=field)
                field *= dt
                fb -= field
        del fa  # likewise for the last half-kick
        b = np.fft.ifftn(fb, axes=axes, out=fb)
        return (a, self._kicked(b.real if real else b, a, 0.5 * dt))

    def _force_factor(self, a: np.ndarray) -> np.ndarray:
        # the force beyond the quadratic part already in the linear flow, per unit field
        w = self.spec.w
        factor = w_prime_over_s(w, np.abs(a))
        return np.subtract(factor, w.m_sq, out=factor)

    def _kicked(self, b: np.ndarray, a: np.ndarray, tau: float) -> np.ndarray:
        # b - tau * force(a)
        kick = self._force_factor(a) * a
        np.multiply(tau, kick, out=kick)
        return np.subtract(b, kick, out=kick)


@lru_cache(maxsize=16)
def _propagator(spec: ModelSpec, dt: float) -> _Propagator:
    return _Propagator(spec, dt)


def evolve_step(spec: ModelSpec, state, dt: float, steps: int = 1):
    """`steps` Strang steps of the model flow.

    NLS: half nonlinear phase rotation (exact, |psi|-preserving), exact
    Fourier kinetic step, half phase.  NWE/NBE: half force kick, exact
    trigonometric linear flow including the m^2 term, half kick.  The
    linear flow being exact removes any stiff step-size restriction; the
    splitting is accurate while dt * max|W''| stays below ~0.5.  Between
    consecutive steps the two half substeps are applied as one full one,
    which agrees with repeated single steps to roundoff.

    One FieldState gives one validated state, and a non-finite result
    raises NonFinite.  A sequence of states is stacked and advanced in one
    kernel call, each row bitwise as if alone; the result is a list with,
    per row, its validated state or the NonFinite its validation raised,
    so a row that blew up does not stop the others.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rows = [state] if isinstance(state, FieldState) else list(state)
    for row in rows:
        _check(spec, row)
    if len(rows) == 1:  # a view: one state is never copied into a stack
        stack = tuple(c[None] for c in rows[0].components)
    else:
        stack = tuple(np.stack(cs) for cs in zip(*(row.components for row in rows)))
    out = _propagator(spec, dt).step(stack, steps)
    if isinstance(state, FieldState):
        return state.replace_components(tuple(c[0] for c in out))
    results = []
    for i, row in enumerate(rows):
        try:
            results.append(row.replace_components(tuple(c[i] for c in out)))
        except NonFinite as err:
            results.append(err)
    return results
