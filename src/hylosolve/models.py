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
from typing import NamedTuple

import numpy as np

from . import grid as gridmod
from .exceptions import NonFinite
from .grid import (NLS, NWE, NBE, FieldState, Grid, apply_multiplier, apply_to_spectrum,
                   integrate, spectral_sum, symbols, transform)
from .nonlinearity import WSpec, w_prime_over_s, w_value

__all__ = [
    "ModelSpec", "Evaluation", "evaluate", "check_state", "energy", "energy_of", "charge",
    "charge_of", "grad_energy", "grad_energy_of", "grad_charge", "grad_charge_of",
    "evolve_step", "time_reverse", "l2_inner", "l2_inner_of", "l2_norm_of", "lyapunov_v",
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


def check_state(spec: ModelSpec, state: FieldState):
    """Raise GridMismatch unless the state has the spec's model and grid."""
    if state.model_tag != spec.model_tag or state.grid != spec.grid:
        raise gridmod.GridMismatch("state does not match the model spec")


class Evaluation(NamedTuple):
    """E, signed C and the phase-space norm of a state (or one value per
    leading batch index of a stack), with the spectrum of the field
    component they were computed from."""

    energy: np.ndarray
    charge: np.ndarray
    x_norm: np.ndarray
    spectrum: np.ndarray


def evaluate(spec: ModelSpec, components) -> Evaluation:
    """Energy, signed charge and phase-space norm from one forward FFT.

    The field component's spectrum gives the kinetic sum of the energy and
    the field part of the norm (and, for NBE, the u_x of the charge); the
    velocity-like component needs no transform.  Each value is bitwise the
    one energy_of, charge_of and grid.x_norm_of give, and the spectrum
    lets grad_energy_of take its kinetic term with one inverse FFT."""
    g = spec.grid
    field_spec = transform(g, components[0])
    return Evaluation(energy_of(spec, components, field_spec),
                      charge_of(spec, components, field_spec),
                      gridmod.x_norm_of(spec.model_tag, g, components, field_spec),
                      field_spec)


def energy_of(spec: ModelSpec, components, field_spec: np.ndarray | None = None):
    """Conserved energy of the model: the kinetic part of the first
    component by Parseval with the model's symbol, plus the quadrature of
    the potential and of half the squared velocity-like component.

    The component arrays may carry leading batch axes; the result has one
    value per batch index.  field_spec is the field's spectrum, if at hand;
    otherwise it is transformed after the potential's temporaries are
    freed, which keeps the peak memory of a 3-d state down."""
    g = spec.grid
    local = w_value(spec.w, np.abs(components[0]))
    if len(components) == 2:
        local = 0.5 * np.abs(components[1]) ** 2 + local
    if field_spec is None:
        field_spec = transform(g, components[0])
    kinetic = 0.5 * spectral_sum(g, symbols(spec.model_tag, g).kinetic, field_spec)
    return kinetic + integrate(g, local)


def energy(spec: ModelSpec, state: FieldState) -> float:
    """The energy of one state (see energy_of)."""
    check_state(spec, state)
    return float(energy_of(spec, state.components))


def charge_of(spec: ModelSpec, components, field_spec: np.ndarray | None = None):
    """Conserved charge: L2 mass (NLS), Im of the pair product (NWE),
    or momentum (NBE).  Signed for the latter two.  One value per leading
    batch index of the component arrays.  NBE differentiates the field
    from field_spec, its spectrum, when given."""
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
    if field_spec is None:
        field_spec = transform(g, u)
    ux = apply_to_spectrum(symbols(NBE, g).ddx, field_spec, real=True)
    return integrate(g, -v * ux)


def charge(spec: ModelSpec, state: FieldState) -> float:
    """The charge of one state (see charge_of)."""
    check_state(spec, state)
    return float(charge_of(spec, state.components))


def grad_energy_of(spec: ModelSpec, components,
                   field_spec: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Riesz gradient of the energy under the real L2 pairing: the kinetic
    symbol applied to the first component plus the potential force; the
    velocity-like second component is its own gradient.  With field_spec,
    the field's spectrum (from evaluate), the kinetic term costs one
    inverse FFT."""
    field = components[0]
    if field_spec is None:
        field_spec = transform(spec.grid, field)
    kinetic = apply_to_spectrum(symbols(spec.model_tag, spec.grid).kinetic, field_spec,
                                real=not np.iscomplexobj(field))
    force = w_prime_over_s(spec.w, np.abs(field)) * field
    return (kinetic + force,) + tuple(components[1:])


def grad_energy(spec: ModelSpec, state: FieldState) -> FieldState:
    """The energy gradient of one state (see grad_energy_of)."""
    check_state(spec, state)
    return state.replace_components(grad_energy_of(spec, state.components))


def grad_charge_of(spec: ModelSpec, components) -> tuple[np.ndarray, ...]:
    """Riesz gradient of the charge under the real L2 pairing."""
    if spec.model_tag == NLS:
        return (2.0 * components[0],)
    if spec.model_tag == NWE:
        psi, phi = components
        return (-1j * phi, 1j * psi)
    u, v = components
    ddx = symbols(NBE, spec.grid).ddx
    return (apply_multiplier(ddx, v), -apply_multiplier(ddx, u))


def grad_charge(spec: ModelSpec, state: FieldState) -> FieldState:
    """The charge gradient of one state (see grad_charge_of)."""
    check_state(spec, state)
    return state.replace_components(grad_charge_of(spec, state.components))


def l2_inner_of(grid: Grid, a, b) -> float:
    """Real L2 pairing of two component tuples (the gradient pairing)."""
    total = 0.0
    for ca, cb in zip(a, b):
        total += float(np.add.reduce((ca * np.conj(cb)).real, axis=None))
    return grid.cell_volume * total


def l2_inner(a: FieldState, b: FieldState) -> float:
    """Real L2 pairing of two state-shaped fields (see l2_inner_of)."""
    if a.grid != b.grid or a.model_tag != b.model_tag:
        raise gridmod.GridMismatch("states do not share grid/tag")
    return l2_inner_of(a.grid, a.components, b.components)


def l2_norm_of(grid: Grid, a) -> float:
    return float(np.sqrt(max(l2_inner_of(grid, a, a), 0.0)))


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
        # A block allocates three arrays: the spectrum, whose two float
        # halves hold |psi| and the phase while it is free (the wave
        # kernel's mixing trick), the phase factor, and the first rotation's
        # output, which every later step updates in place.
        dt, axes, w = self.dt, self.axes, self.spec.w
        spec = np.empty(psi.shape, np.complex128)
        modulus, theta = spec.reshape(-1).view(np.float64).reshape((2,) + psi.shape)
        rot = np.empty(psi.shape, np.complex128)

        def rotate(src, dst, c):
            # dst <- exp(i theta) src, theta = c W'(|src|)/|src|; cos theta +
            # i sin theta is bitwise the complex exp of (+-0 + i theta)
            np.abs(src, out=modulus)
            w_prime_over_s(w, modulus, out=theta)
            np.multiply(theta, c, out=theta)
            np.cos(theta, out=rot.real)
            np.sin(theta, out=rot.imag)
            np.multiply(rot, src, out=dst)

        out = np.empty(psi.shape, np.complex128)
        rotate(psi, out, -0.25 * dt)
        for i in range(steps):
            gridmod.fft(out, axes, out=spec)
            np.multiply(self.lin, spec, out=spec)
            gridmod.ifft(spec, axes, out=out)
            rotate(out, out, -0.5 * dt if i < steps - 1 else -0.25 * dt)
        return out

    def _wave(self, a: np.ndarray, b: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
        # The block stays in Fourier space: after the first half-kick each
        # component is transformed once; a step mixes the transforms and
        # brings back only the field, whose force kicks the second transform.
        # 2 * steps + 2 FFTs per block.  The block allocates its four work
        # arrays and numpy's casting buffer (at most np.getbufsize() = 8192
        # samples, 128 KB at any grid size), which each real-by-complex
        # product passes through: the symbols times the transforms and the
        # force factor times the field.  Its elementwise passes run on slabs
        # (grid.in_slabs), two at once on large fields of multi-axis grids.
        dt, axes, w = self.dt, self.axes, self.spec.w
        cos, sinc, neg_lam_sin = self.cos, self.sinc, self.neg_lam_sin
        real = self.spec.model_tag == NBE
        fa = gridmod.fft(a, axes, out=np.empty(a.shape, np.complex128))
        field = np.empty(a.shape, np.complex128)
        # the mixing temporary; as two float arrays, |a| and the force factor
        mixed = np.empty(a.shape, np.complex128)
        modulus, factor = mixed.reshape(-1).view(np.float64).reshape((2,) + a.shape)

        def run(task):
            if len(axes) == 1:
                task(...)
            else:
                gridmod.in_slabs(task, field.shape, axes[0])

        def force(src, dst):
            # dst <- the force beyond the quadratic part already in the linear flow
            def task(i):
                np.abs(src[i], out=modulus[i])
                w_prime_over_s(w, modulus[i], out=factor[i])
                np.subtract(factor[i], w.m_sq, out=factor[i])
                np.multiply(factor[i], src[i], out=dst[i])
            return task

        def kicked(src, dst, b, tau):
            # dst <- b - tau * force(src)
            push = force(src, dst)

            def task(i):
                push(i)
                np.multiply(tau, dst[i], out=dst[i])
                np.subtract(b[i], dst[i], out=dst[i])
            return task

        def mix(i):
            # exact linear flow: (fa, fb) <- (cos fa + sinc fb, -lam sin fa + cos fb)
            np.multiply(neg_lam_sin[i], fa[i], out=mixed[i])
            np.multiply(sinc[i], fb[i], out=field[i])
            np.multiply(cos[i], fa[i], out=fa[i])
            np.add(fa[i], field[i], out=fa[i])
            np.multiply(cos[i], fb[i], out=fb[i])
            np.add(fb[i], mixed[i], out=fb[i])

        def kick_and_mix(i):
            # fb -= dt * fft(force(a)), then the next step's linear flow
            np.multiply(field[i], dt, out=field[i])
            np.subtract(fb[i], field[i], out=fb[i])
            mix(i)

        a_out = field.real if real else field
        run(kicked(a, a_out, b, 0.5 * dt))
        if real:
            field.imag = 0.0
        fb = gridmod.fft(field, axes, out=np.empty(a.shape, np.complex128))
        run(mix)
        push = force(a_out, field)
        for i in range(steps):
            gridmod.ifft(fa, axes, out=field)
            if i < steps - 1:
                run(push)
                gridmod.fft(field, axes, out=field)
                run(kick_and_mix)
        gridmod.ifft(fb, axes, out=fb)
        b_out = fa.real if real else fa
        run(kicked(a_out, b_out, fb.real if real else fb, 0.5 * dt))
        return (a_out, b_out)


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
        check_state(spec, row)
    if len(rows) == 1:  # a view: one state is never copied into a stack
        stack = tuple(c[None] for c in rows[0].components)
    else:
        stack = tuple(np.stack(cs) for cs in zip(*(row.components for row in rows)))
    # the kernel's outputs are fresh: each row is stored as a view of them,
    # not copied (NBE's real parts of complex buffers are copied)
    out = _propagator(spec, dt).step(stack, steps)
    if isinstance(state, FieldState):
        return state.replace_components(tuple(c[0] for c in out), owned=True)
    results = []
    for i, row in enumerate(rows):
        try:
            results.append(row.replace_components(tuple(c[i] for c in out), owned=True))
        except NonFinite as err:
            results.append(err)
    return results
