"""Periodic grids, discrete fields, spectral calculus, and lattice shifts.

All fields live on uniform periodic boxes in 1-3 dimensions.  Derivatives
are Fourier multipliers, so band-limited fields are differentiated exactly;
lattice translations are circular index shifts and therefore exact group
operations (no interpolation).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import GridMismatch, Inadmissible, NonFinite
from .rng import SplitMix64, symmetric_from_bits

MAX_TOTAL_POINTS = 2**22

NLS = "NLS"
NWE = "NWE"
NBE = "NBE"
MODEL_TAGS = (NLS, NWE, NBE)

# component labels per model, in storage order
COMPONENT_NAMES = {NLS: ("psi",), NWE: ("psi", "phi"), NBE: ("u", "v")}
COMPLEX_MODELS = (NLS, NWE)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box; per-axis point counts and physical lengths."""

    n: tuple[int, ...]
    box_length: tuple[float, ...]

    def __post_init__(self):
        n = tuple(int(v) for v in self.n)
        box = tuple(float(v) for v in self.box_length)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "box_length", box)
        if not 1 <= len(n) <= 3:
            raise ValueError("grid dimension must be 1, 2 or 3")
        if len(box) != len(n):
            raise ValueError("box_length must match n per axis")
        for ni in n:
            if not (_is_pow2(ni) and ni >= 16):
                raise ValueError(f"points per axis must be a power of two >= 16, got {ni}")
        for li in box:
            if not li > 0:
                raise ValueError("box lengths must be positive")
        if self.size > MAX_TOTAL_POINTS:
            raise ValueError(f"total points {self.size} exceed {MAX_TOTAL_POINTS}")

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / ni for L, ni in zip(self.box_length, self.n))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def size(self) -> int:
        """Total number of grid points."""
        return int(np.prod(self.n))

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The trailing array axes a field occupies; leading axes are a batch."""
        return tuple(range(-self.dim, 0))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return _axis_coordinates(self, axis)

    def wavenumbers(self, axis: int) -> np.ndarray:
        return _axis_wavenumbers(self, axis)


@lru_cache(maxsize=64)
def _axis_coordinates(grid: Grid, axis: int) -> np.ndarray:
    x = np.arange(grid.n[axis]) * grid.spacing[axis]
    x.setflags(write=False)
    return x


@lru_cache(maxsize=64)
def _axis_wavenumbers(grid: Grid, axis: int) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n[axis], d=grid.spacing[axis])
    k.setflags(write=False)
    return k


def _axis_k_mesh(grid: Grid, axis: int) -> np.ndarray:
    k = grid.wavenumbers(axis)
    shape = [1] * grid.dim
    shape[axis] = grid.n[axis]
    return k.reshape(shape)


@lru_cache(maxsize=64)
def k_squared(grid: Grid) -> np.ndarray:
    """|k|^2 on the full spectral grid."""
    total = np.zeros(grid.n)
    for axis in range(grid.dim):
        total = total + _axis_k_mesh(grid, axis) ** 2
    total.setflags(write=False)
    return total


@lru_cache(maxsize=64)
def _first_derivative(grid: Grid, axis: int) -> np.ndarray:
    """Multiplier ik along one axis, broadcastable over the grid.  The
    Nyquist mode has no signed wavenumber and is zeroed, so real fields
    keep real derivatives."""
    mult = 1j * _axis_k_mesh(grid, axis)
    idx = [slice(None)] * grid.dim
    idx[axis] = grid.n[axis] // 2
    mult[tuple(idx)] = 0.0
    mult.setflags(write=False)
    return mult


@dataclass(frozen=True)
class SpectralSymbols:
    """The Fourier multipliers of one model on one grid.

    The energy, its gradient, the phase-space metric, the descent
    preconditioner and the split-step propagator all read these arrays, so
    the discrete energy and its gradient agree on every mode.
    """

    kinetic: np.ndarray                      # |k|^2 (NLS, NWE) or k_x^4 (NBE)
    # metric weight per component: the array 1 + kinetic for the field, then
    # the scalar 1.0 (a product with it is bitwise one with an array of ones)
    weights: tuple[np.ndarray | float, ...]
    ddx: np.ndarray                          # first derivative along axis 0


@lru_cache(maxsize=64)
def symbols(model_tag: str, grid: Grid) -> SpectralSymbols:
    """The cached symbol table of a (model, grid) pair."""
    if model_tag == NBE:
        kinetic = np.broadcast_to(_axis_k_mesh(grid, 0) ** 4, grid.n)
    else:
        kinetic = k_squared(grid)
    field_weight = 1.0 + kinetic
    field_weight.setflags(write=False)
    weights = (field_weight,) + (1.0,) * (len(COMPONENT_NAMES[model_tag]) - 1)
    return SpectralSymbols(kinetic, weights, _first_derivative(grid, 0))


def _on_grid(grid: Grid, values) -> np.ndarray:
    """values as an array whose trailing axes are the grid (leading axes are a batch)."""
    arr = np.asarray(values)
    if arr.shape[arr.ndim - grid.dim:] != grid.n:
        raise GridMismatch(f"field shape {arr.shape} != grid {grid.n}")
    return arr


def require_finite(values: np.ndarray) -> None:
    """Raise NonFinite unless every sample (both parts, if complex) is finite."""
    if not np.isfinite(values).all():
        raise NonFinite("field samples must be finite")


# Multi-axis transforms and the wave kernel's elementwise passes over fields
# of at least this many points (batch rows included) run as two slabs at
# once, one on a helper thread, when the process may use two CPUs.  Each
# handoff costs 25-40 us, so smaller fields stay on one thread: on a 2-CPU
# Xeon a transform pair took 2-4x as long in two slabs at 2^12-2^13 points,
# 0.85-1.3x at 2^14, 0.67-1.37x at 2^15 (noise), 0.57-0.97x at 2^16 and
# 0.55x at 64^3.
SLAB_FLOOR = 2**15
_CPU_COUNT = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
# numpy's casting buffer size in a slab task on the helper (elements).  At
# the default 8192 a real-by-complex product's buffer (128 KB) is the one
# allocation that stays resident in the helper thread's own malloc arena.
_HELPER_BUFSIZE = 1024


class _SlabHelper:
    """One daemon thread that works the second slab of a two-slab pass.

    run(task, first, second) calls task(second) on the helper while the
    caller works task(first), and returns when both are done.  The helper
    runs the task in a copy of the caller's context, so under the caller's
    numpy error state, and re-raises its exception in the caller.  A task
    calls numpy's 1-d transforms and ufuncs only (nothing that may be
    rebound or traced) and makes no array temporaries: memory that a helper
    thread allocates stays in that thread's malloc arena and adds to the
    peak memory of the process.
    """

    def __init__(self):
        self._busy = threading.Lock()
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = None
        self._error = None
        threading.Thread(target=self._serve, name="hylosolve-slab", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            context, task, part = self._job
            try:
                context.run(np.setbufsize, _HELPER_BUFSIZE)
                context.run(task, part)
            except BaseException as err:  # handed to the caller
                self._error = err
            # hold no reference to the task's arrays while waiting
            del context, task, part
            self._done.release()

    def run(self, task, first, second) -> None:
        if not self._busy.acquire(blocking=False):  # another thread holds the helper
            task(first)
            task(second)
            return
        try:
            self._job = (contextvars.copy_context(), task, second)
            self._go.release()
            try:
                task(first)
            finally:
                self._done.acquire()
                self._job, error, self._error = None, self._error, None
            if error is not None:
                raise error
        finally:
            self._busy.release()


_helper: _SlabHelper | None = None


def _forget_helper():
    global _helper
    _helper = None  # a forked child has no helper thread


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def in_slabs(task, shape: tuple[int, ...], axis: int) -> None:
    """Run task(index) over an array of the given shape whose trailing axes
    are a grid of two or more axes: once with index ... (the whole array),
    or, from SLAB_FLOOR points on a machine with two CPUs, once with the
    index of each half of the (negative) grid axis `axis`, both at once.
    The halves are independent when the task is elementwise, or transforms
    along other axes only, so the result is bitwise the same either way."""
    global _helper
    if _CPU_COUNT < 2 or math.prod(shape) < SLAB_FLOOR:
        task(...)
        return
    if _helper is None:
        _helper = _SlabHelper()
    half = shape[axis] // 2
    rest = (slice(None),) * (-axis - 1)
    _helper.run(task, (..., slice(None, half)) + rest, (..., slice(half, None)) + rest)


def _transform_axes(func, values, axes: tuple[int, ...], out) -> np.ndarray:
    """func (numpy's 1-d fft or ifft) along every axis in `axes`, last axis
    first, as fftn and ifftn do: the trailing axes on the two halves of the
    first, then the first on the two halves of the second.  Every line is
    transformed on its own, so the slabs give fftn's result bitwise."""
    if out is None:
        out = np.empty(np.shape(values), np.complex128)
    src = values
    if values is not out and not (isinstance(values, np.ndarray)
                                  and values.dtype == np.complex128
                                  and not np.may_share_memory(values, out)):
        np.copyto(out, values)  # cast here: a slab task makes no temporary
        src = out

    def trailing(index):
        func(src[index], axis=axes[-1], out=out[index])
        for axis in reversed(axes[1:-1]):
            func(out[index], axis=axis, out=out[index])

    def leading(index):
        func(out[index], axis=axes[0], out=out[index])

    in_slabs(trailing, out.shape, axes[0])
    in_slabs(leading, out.shape, axes[1])
    return out


def fft(values, axes: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """The discrete Fourier transform over the trailing axes `axes` (leading
    axes are a batch), into out when given.  Every transform of the package
    goes through here or ifft.  Over one axis this calls numpy's pocketfft
    gufunc, the very call np.fft.fft (and fftn, for one axis) makes, without
    their argument handling; over several, the same 1-d transforms in slabs
    (see _transform_axes)."""
    if len(axes) == 1:
        if out is None:
            out = np.empty(np.shape(values), np.complex128)
        return np.fft._pocketfft_umath.fft(values, 1, out=out)
    return _transform_axes(np.fft.fft, values, axes, out)


def ifft(values, axes: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """The inverse of fft, over the same trailing axes."""
    if len(axes) == 1:
        if out is None:
            out = np.empty(np.shape(values), np.complex128)
        return np.fft._pocketfft_umath.ifft(values, 1.0 / out.shape[-1], out=out)
    return _transform_axes(np.fft.ifft, values, axes, out)


def apply_multiplier(multiplier: np.ndarray, values: np.ndarray) -> np.ndarray:
    """ifft(multiplier * fft(values)) over the multiplier's (trailing) axes;
    real input gives real output."""
    axes = tuple(range(-multiplier.ndim, 0))
    spec = fft(values, axes)
    return apply_to_spectrum(multiplier, spec, not np.iscomplexobj(values), out=spec)


def apply_to_spectrum(multiplier: np.ndarray, spec: np.ndarray, real: bool,
                      out: np.ndarray | None = None) -> np.ndarray:
    """ifft(multiplier * spec) over the multiplier's (trailing) axes, into
    out when given (spec itself may be out); the real part when real."""
    axes = tuple(range(-multiplier.ndim, 0))
    out = np.multiply(multiplier, spec, out=out)
    ifft(out, axes, out=out)
    return out.real if real else out


def transform(grid: Grid, values) -> np.ndarray:
    """The discrete spectrum F of a field over the grid axes (leading axes
    are a batch), into a fresh array."""
    arr = _on_grid(grid, values)
    return fft(arr, grid.axes)


def spectral_sum(grid: Grid, multiplier: np.ndarray, spec: np.ndarray):
    """Parseval: the integral of conj(f) (multiplier f) from the spectrum F
    of f, as (cell volume / N) sum multiplier |F|^2; one value per leading
    (batch) index.  The one kinetic-sum expression: the energy, the
    phase-space norm and the descent evaluation all take it."""
    total = np.add.reduce(multiplier * np.abs(spec) ** 2, axis=grid.axes)
    return grid.cell_volume / grid.size * total


@lru_cache(maxsize=64)
def _max_mode(shape: tuple[int, ...]) -> np.ndarray:
    """Largest Fourier mode index magnitude over the axes, per point of a
    spectrum of this shape in transform order."""
    top = np.zeros(shape, dtype=np.int64)
    for axis, n in enumerate(shape):
        idx = np.arange(n)
        mode = np.minimum(idx, n - idx)
        reshaped = [1] * len(shape)
        reshaped[axis] = n
        top = np.maximum(top, mode.reshape(reshaped))
    top.setflags(write=False)
    return top


def low_pass(grid: Grid, values, band_limit, out: np.ndarray | None = None) -> np.ndarray:
    """Zero every Fourier mode whose index exceeds band_limit in magnitude
    along some axis; the result is complex, and is made in out when given
    (a complex array shaped like values, which may be values itself).
    Leading axes of values are a batch, and band_limit is a scalar or one
    limit per batch index."""
    arr = _on_grid(grid, values)
    spec = fft(arr, grid.axes, out=out)
    limit = np.reshape(band_limit, np.shape(band_limit) + (1,) * grid.dim)
    np.copyto(spec, 0.0, where=_max_mode(grid.n) > limit)
    return ifft(spec, grid.axes, out=spec)


def min_image_distances(grid: Grid, center) -> list[np.ndarray]:
    """Per-axis periodic distance from each grid point to the center,
    reduced to [0, L/2] and shaped to broadcast over the grid."""
    out = []
    for axis in range(grid.dim):
        d = np.abs(grid.axis_coordinates(axis) - center[axis])
        d = np.minimum(d, grid.box_length[axis] - d)
        shape = [1] * grid.dim
        shape[axis] = grid.n[axis]
        out.append(d.reshape(shape))
    return out


@dataclass(frozen=True)
class LatticeShift:
    """Translation by whole grid cells, one integer offset per axis."""

    z: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(int(v) for v in self.z))


class FieldState:
    """Immutable model-tagged state: one or two sampled fields on a Grid.

    The components are stored as read-only copies.  With owned=True the
    caller hands over fresh arrays that nothing else will write to (a
    kernel's outputs): those that are already C-contiguous and of the
    state's dtype are stored as they are, without the copy.
    """

    __slots__ = ("model_tag", "grid", "components")

    def __init__(self, model_tag: str, grid: Grid, components, *, owned: bool = False):
        if model_tag not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {model_tag!r}")
        names = COMPONENT_NAMES[model_tag]
        comps = tuple(components)
        if len(comps) != len(names):
            raise ValueError(f"{model_tag} needs {len(names)} components, got {len(comps)}")
        dtype = np.complex128 if model_tag in COMPLEX_MODELS else np.float64
        stored = []
        for c in comps:
            arr = np.asarray(c)
            if model_tag == NBE and np.iscomplexobj(arr) and np.abs(arr.imag).max() > 0:
                raise ValueError("NBE components must be real")
            if not (owned and arr.dtype == dtype and arr.flags.c_contiguous):
                arr = np.array(arr, dtype=dtype)
            if arr.shape != tuple(grid.n):
                raise ValueError(f"component shape {arr.shape} != grid {grid.n}")
            require_finite(arr)
            arr.setflags(write=False)
            stored.append(arr)
        object.__setattr__(self, "model_tag", model_tag)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "components", tuple(stored))

    def __setattr__(self, name, value):
        raise AttributeError("FieldState is immutable")

    # named accessors
    @property
    def psi(self) -> np.ndarray:
        if self.model_tag not in (NLS, NWE):
            raise AttributeError("psi is only defined for NLS/NWE states")
        return self.components[0]

    @property
    def phi(self) -> np.ndarray:
        if self.model_tag != NWE:
            raise AttributeError("phi is only defined for NWE states")
        return self.components[1]

    @property
    def u(self) -> np.ndarray:
        if self.model_tag != NBE:
            raise AttributeError("u is only defined for NBE states")
        return self.components[0]

    @property
    def v(self) -> np.ndarray:
        if self.model_tag != NBE:
            raise AttributeError("v is only defined for NBE states")
        return self.components[1]

    @staticmethod
    def nls(grid: Grid, psi) -> "FieldState":
        return FieldState(NLS, grid, (psi,))

    @staticmethod
    def nwe(grid: Grid, psi, phi) -> "FieldState":
        return FieldState(NWE, grid, (psi, phi))

    @staticmethod
    def nbe(grid: Grid, u, v) -> "FieldState":
        return FieldState(NBE, grid, (u, v))

    @staticmethod
    def zero(model_tag: str, grid: Grid) -> "FieldState":
        dtype = np.complex128 if model_tag in COMPLEX_MODELS else np.float64
        ncomp = len(COMPONENT_NAMES[model_tag])
        return FieldState(model_tag, grid, tuple(np.zeros(grid.n, dtype) for _ in range(ncomp)))

    def replace_components(self, components, *, owned: bool = False) -> "FieldState":
        return FieldState(self.model_tag, self.grid, components, owned=owned)


def integrate(grid: Grid, values: np.ndarray):
    """Discrete box integral: cell volume times the sample sum, one value
    per leading (batch) index.

    On a periodic grid this is the trapezoid rule, which is spectrally
    exact for band-limited integrands.  The sum is np.add.reduce, the loop
    np.sum runs, without np.sum's Python wrapper (about 3 us a call, paid
    several times per descent iteration); the package's reductions on the
    descent path call the ufunc methods directly for the same reason.
    """
    arr = _on_grid(grid, values)
    return grid.cell_volume * np.add.reduce(arr.real, axis=grid.axes)


def spectral_derivative(grid: Grid, values: np.ndarray, axis: int | None = None,
                        order: int = 1) -> np.ndarray:
    """Fourier-multiplier derivative (ik)^order along one axis.

    order=2 with axis=None is the Laplacian (sum over axes).  Odd orders
    zero the Nyquist mode so real input gives real output; even orders on
    real input return real arrays.
    """
    if order not in (1, 2, 4):
        raise ValueError(f"derivative order must be 1, 2 or 4, got {order}")
    arr = np.asarray(values)
    if arr.shape != tuple(grid.n):
        raise GridMismatch(f"field shape {arr.shape} != grid {grid.n}")
    if axis is None:
        if order == 2:
            return apply_multiplier(-k_squared(grid), arr)
        if grid.dim != 1:
            raise ValueError("axis is required for orders 1 and 4 in dimension > 1")
        axis = 0
    if order == 1:
        return apply_multiplier(_first_derivative(grid, axis), arr)
    k = _axis_k_mesh(grid, axis)
    return apply_multiplier(-(k**2) if order == 2 else k**4, arr)


@lru_cache(maxsize=64)
def _unit_ball_spectrum(grid: Grid) -> np.ndarray:
    """Transform of the indicator of the radius-1 ball around index 0,
    periodic metric."""
    dist_sq = sum(d**2 for d in min_image_distances(grid, (0.0,) * grid.dim))
    spec = fft((dist_sq <= 1.0).astype(np.float64), grid.axes)
    spec.setflags(write=False)
    return spec


def sharp_seminorm(state: FieldState) -> float:
    """Localization seminorm: best local L2 mass (NLS/NWE) or sup |u| (NBE).

    For NLS/NWE this is the max over grid points z of the squared-amplitude
    integral over the radius-1 periodic ball around z, square-rooted; small
    values certify that no unit ball retains mass.
    """
    if state.model_tag == NBE:
        return float(np.abs(state.u).max())
    grid = state.grid
    if min(grid.box_length) <= 2.0:
        raise Inadmissible("unit ball wraps around: every box length must exceed 2")
    density = np.abs(state.psi) ** 2
    spec = fft(density, grid.axes)
    spec *= _unit_ball_spectrum(grid)
    conv = ifft(spec, grid.axes, out=spec).real
    best = max(float(conv.max()) * grid.cell_volume, 0.0)
    return float(np.sqrt(best))


def translate(state: FieldState, shift: LatticeShift) -> FieldState:
    """Shift every component by whole grid cells (exact, periodic)."""
    z = shift.z
    if len(z) != state.grid.dim:
        raise GridMismatch(f"shift has {len(z)} entries for a {state.grid.dim}-d grid")
    axes = tuple(range(state.grid.dim))
    return state.replace_components(tuple(np.roll(c, z, axis=axes) for c in state.components))


def phase_rotate(state: FieldState, theta: float) -> FieldState:
    """Global phase rotation e^{i theta} (complex models only)."""
    if state.model_tag not in COMPLEX_MODELS:
        raise ValueError("phase rotation applies to complex models only")
    factor = np.exp(1j * theta)
    return state.replace_components(tuple(factor * c for c in state.components))


def x_norm_of(model_tag: str, grid: Grid, components, field_spec: np.ndarray | None = None):
    """Phase-space norm: L2 of the components plus their defining derivatives.

    NLS: (|grad psi|^2 + |psi|^2); NWE adds |phi|^2; NBE uses
    (v^2 + u_xx^2 + u^2).  One value per leading (batch) index of the
    component arrays.

    The field component is weighted by its metric symbol 1 + kinetic by
    Parseval, from field_spec, its spectrum, when given.  The velocity-like
    component has metric weight 1, so its square norm is the plain
    quadrature of |c|^2, with no transform; that agrees with the Parseval
    form to 1e-14 relative or better."""
    total = 0.0
    for comp in components[1:]:
        total = total + integrate(grid, np.abs(comp) ** 2)
    # a spectrum made here is freed as soon as it is summed, before any
    # other allocation: held any longer next to the quadrature's temporaries
    # it pins the heap (8 MB more peak RSS on the 64^3 NWE evolve run)
    total = spectral_sum(grid, symbols(model_tag, grid).weights[0],
                         transform(grid, components[0]) if field_spec is None
                         else field_spec) + total
    return np.sqrt(np.maximum(total, 0.0))


def x_norm(state: FieldState) -> float:
    """The phase-space norm of one state (see x_norm_of)."""
    return float(x_norm_of(state.model_tag, state.grid, state.components))


def orbit_distance(a: FieldState, b: FieldState) -> float:
    """Distance between group orbits: min over lattice shifts (and, for
    complex models, global phase) of the phase-space norm of the difference.

    The minimum over all shifts is computed exactly in one pass via FFT
    cross-correlation of the weighted components; the differences at the
    optimum are measured as component arrays, with no state built.
    """
    if a.model_tag != b.model_tag:
        raise GridMismatch("states have different model tags")
    if a.grid != b.grid:
        raise GridMismatch("states live on different grids")
    grid = a.grid
    weights = symbols(a.model_tag, grid).weights
    corr = np.zeros(grid.n, dtype=np.complex128)
    for ca, cb, w in zip(a.components, b.components, weights):
        corr += w * fft(ca, grid.axes) * np.conj(fft(cb, grid.axes))
    # corr(z) = <a, g_z b> for every lattice shift z at once
    corr_z = ifft(corr, grid.axes) * grid.cell_volume
    if a.model_tag in COMPLEX_MODELS:
        gain = np.abs(corr_z)  # optimal phase: theta = arg corr
    else:
        gain = corr_z.real
    # the norm identity ||a||^2 + ||b||^2 - 2 max gain locates the optimum,
    # but cancels catastrophically near zero; evaluate the distance directly
    # on the aligned difference, which is exact there
    shift = tuple(int(v) for v in np.unravel_index(int(np.argmax(gain)), grid.n))
    aligned = tuple(np.roll(c, shift, axis=tuple(range(grid.dim))) for c in b.components)
    candidates = [aligned]
    if a.model_tag in COMPLEX_MODELS and abs(corr_z[shift]) > 0:
        phase = corr_z[shift] / abs(corr_z[shift])
        candidates.append(tuple(phase * c for c in aligned))
    diffs = (tuple(x - y for x, y in zip(a.components, cand)) for cand in candidates)
    return min(float(x_norm_of(a.model_tag, grid, diff)) for diff in diffs)


def random_band_limited(grid: Grid, rng: SplitMix64, band_limit: int | None = None,
                        complex_valued: bool = False, rms: float = 1.0) -> np.ndarray:
    """Smooth random field: uniform white noise low-passed to |mode| <= band_limit,
    normalized to the requested root-mean-square sample value.

    Uniform (not Gaussian) raw draws keep the pre-FFT stream free of
    transcendental libm calls.
    """
    if band_limit is None:
        band_limit = min(grid.n) // 4
    bits = rng.next_block_u64(grid.size * (2 if complex_valued else 1))
    return band_limited_noise(grid, bits, band_limit, rms, complex_valued)


def band_limited_noise(grid: Grid, bits: np.ndarray, band_limit, rms,
                       complex_valued: bool) -> np.ndarray:
    """The fields random_band_limited makes from raw stream outputs.

    The last axis of bits holds one field's draws (the real parts, then the
    imaginary parts); leading axes are a batch, and band_limit and rms are
    scalars or one value per batch index.  The raw field is written into
    one complex buffer, which is low-passed and scaled in place.
    """
    batch = bits.shape[:-1]
    planes = bits.reshape(batch + (-1, grid.size))
    field = np.zeros(batch + grid.n, np.complex128)
    parts = (field.real, field.imag) if complex_valued else (field.real,)
    for i, part in enumerate(parts):
        part[...] = symmetric_from_bits(planes[..., i, :]).reshape(part.shape)
    low_pass(grid, field, band_limit, out=field)
    out = field if complex_valued else field.real
    current = np.sqrt(np.mean(np.abs(out) ** 2, axis=grid.axes))
    scale = np.divide(rms, current, out=np.ones_like(current), where=current > 0.0)
    scale = np.reshape(scale, batch + (1,) * grid.dim)
    if complex_valued:
        field *= scale
        return field
    return out * scale


def random_state(model_tag: str, grid: Grid, rng: SplitMix64,
                 amplitude: float = 1.0, band_limit: int | None = None) -> FieldState:
    """Random smooth state with each component at the given rms amplitude."""
    complex_valued = model_tag in COMPLEX_MODELS
    ncomp = len(COMPONENT_NAMES[model_tag])
    comps = [random_band_limited(grid, rng, band_limit, complex_valued, rms=amplitude)
             for _ in range(ncomp)]
    return FieldState(model_tag, grid, comps)
