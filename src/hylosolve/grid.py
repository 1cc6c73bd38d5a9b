"""Periodic grids, discrete fields, spectral calculus, and lattice shifts.

All fields live on uniform periodic boxes in 1-3 dimensions.  Derivatives
are Fourier multipliers, so band-limited fields are differentiated exactly;
lattice translations are circular index shifts and therefore exact group
operations (no interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import GridMismatch, NonFinite
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

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid (ij-indexed) coordinate arrays, one per axis."""
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        if self.dim == 1:
            return axes
        return list(np.meshgrid(*axes, indexing="ij"))

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

    kinetic: np.ndarray              # |k|^2 (NLS, NWE) or k_x^4 (NBE)
    weights: tuple[np.ndarray, ...]  # metric weight per component: 1 + kinetic, then 1
    ddx: np.ndarray                  # first derivative along axis 0


@lru_cache(maxsize=64)
def symbols(model_tag: str, grid: Grid) -> SpectralSymbols:
    """The cached symbol table of a (model, grid) pair."""
    if model_tag == NBE:
        kinetic = np.broadcast_to(_axis_k_mesh(grid, 0) ** 4, grid.n)
    else:
        kinetic = k_squared(grid)
    weights = [1.0 + kinetic] + [np.ones(grid.n)] * (len(COMPONENT_NAMES[model_tag]) - 1)
    for w in weights:
        w.setflags(write=False)
    return SpectralSymbols(kinetic, tuple(weights), _first_derivative(grid, 0))


def _on_grid(grid: Grid, values) -> np.ndarray:
    """values as an array whose trailing axes are the grid (leading axes are a batch)."""
    arr = np.asarray(values)
    if arr.shape[arr.ndim - grid.dim:] != grid.n:
        raise GridMismatch(f"field shape {arr.shape} != grid {grid.n}")
    return arr


def require_finite(values: np.ndarray) -> None:
    """Raise NonFinite unless every sample (both parts, if complex) is finite."""
    if not np.all(np.isfinite(values)):
        raise NonFinite("field samples must be finite")


def _work_array(values) -> np.ndarray:
    """An empty complex array shaped like values, for a transform's out=
    (without it numpy allocates one output per transformed axis)."""
    return np.empty(np.shape(values), np.complex128)


def apply_multiplier(multiplier: np.ndarray, values: np.ndarray) -> np.ndarray:
    """ifft(multiplier * fft(values)) over the multiplier's (trailing) axes;
    real input gives real output."""
    axes = tuple(range(-multiplier.ndim, 0))
    spec = np.fft.fftn(values, axes=axes, out=_work_array(values))
    np.multiply(multiplier, spec, out=spec)
    np.fft.ifftn(spec, axes=axes, out=spec)
    return spec if np.iscomplexobj(values) else spec.real


def spectral_quadratic(grid: Grid, multiplier: np.ndarray, values: np.ndarray):
    """Parseval: the integral of conj(f) (multiplier f), as
    (cell volume / N) sum multiplier |F|^2 over the discrete spectrum F;
    one value per leading (batch) index."""
    arr = _on_grid(grid, values)
    spec = np.fft.fftn(arr, axes=grid.axes, out=_work_array(arr))
    return grid.cell_volume / grid.size * np.sum(multiplier * np.abs(spec) ** 2, axis=grid.axes)


@lru_cache(maxsize=64)
def _max_mode(grid: Grid) -> np.ndarray:
    """Largest Fourier mode index magnitude over the axes, per spectral point."""
    top = np.zeros(grid.n, dtype=np.int64)
    for axis in range(grid.dim):
        idx = np.arange(grid.n[axis])
        mode = np.minimum(idx, grid.n[axis] - idx)
        shape = [1] * grid.dim
        shape[axis] = grid.n[axis]
        top = np.maximum(top, mode.reshape(shape))
    top.setflags(write=False)
    return top


@lru_cache(maxsize=64)
def _band_mask(grid: Grid, band_limit: int) -> np.ndarray:
    keep = _max_mode(grid) <= band_limit
    keep.setflags(write=False)
    return keep


def low_pass(grid: Grid, values: np.ndarray, band_limit: int) -> np.ndarray:
    """Zero every Fourier mode whose index exceeds band_limit in magnitude
    along some axis; the result is complex."""
    spec = np.fft.fftn(values, out=_work_array(values))
    spec[~_band_mask(grid, band_limit)] = 0.0
    return np.fft.ifftn(spec, out=spec)


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

    def reduced(self, grid: Grid) -> tuple[int, ...]:
        return tuple(zi % ni for zi, ni in zip(self.z, grid.n))


class FieldState:
    """Immutable model-tagged state: one or two sampled fields on a Grid."""

    __slots__ = ("model_tag", "grid", "components")

    def __init__(self, model_tag: str, grid: Grid, components):
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

    def replace_components(self, components) -> "FieldState":
        return FieldState(self.model_tag, self.grid, components)


def integrate(grid: Grid, values: np.ndarray):
    """Discrete box integral: cell volume times the sample sum, one value
    per leading (batch) index.

    On a periodic grid this is the trapezoid rule, which is spectrally
    exact for band-limited integrands.
    """
    arr = _on_grid(grid, values)
    return grid.cell_volume * np.sum(arr.real, axis=grid.axes)


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
    spec = np.fft.fftn((dist_sq <= 1.0).astype(np.float64))
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
        raise ValueError("unit ball wraps around: every box length must exceed 2")
    density = np.abs(state.psi) ** 2
    spec = np.fft.fftn(density, out=_work_array(density))
    spec *= _unit_ball_spectrum(grid)
    conv = np.fft.ifftn(spec, out=spec).real
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


def x_norm_of(model_tag: str, grid: Grid, components):
    """Phase-space norm: L2 of the components plus their defining derivatives.

    NLS: (|grad psi|^2 + |psi|^2); NWE adds |phi|^2; NBE uses
    (v^2 + u_xx^2 + u^2).  Computed spectrally via Parseval, one value per
    leading (batch) index of the component arrays.
    """
    total = 0.0
    for comp, w in zip(components, symbols(model_tag, grid).weights):
        total = total + spectral_quadratic(grid, w, comp)
    return np.sqrt(np.maximum(total, 0.0))


def x_norm(state: FieldState) -> float:
    """The phase-space norm of one state (see x_norm_of)."""
    return float(x_norm_of(state.model_tag, state.grid, state.components))


def orbit_distance(a: FieldState, b: FieldState) -> float:
    """Distance between group orbits: min over lattice shifts (and, for
    complex models, global phase) of the phase-space norm of the difference.

    The minimum over all shifts is computed exactly in one pass via FFT
    cross-correlation of the weighted components.
    """
    if a.model_tag != b.model_tag:
        raise GridMismatch("states have different model tags")
    if a.grid != b.grid:
        raise GridMismatch("states live on different grids")
    grid = a.grid
    weights = symbols(a.model_tag, grid).weights
    corr = np.zeros(grid.n, dtype=np.complex128)
    for ca, cb, w in zip(a.components, b.components, weights):
        corr += w * np.fft.fftn(ca) * np.conj(np.fft.fftn(cb))
    # corr(z) = <a, g_z b> for every lattice shift z at once
    corr_z = np.fft.ifftn(corr) * grid.cell_volume
    if a.model_tag in COMPLEX_MODELS:
        gain = np.abs(corr_z)  # optimal phase: theta = arg corr
    else:
        gain = corr_z.real
    # the norm identity ||a||^2 + ||b||^2 - 2 max gain locates the optimum,
    # but cancels catastrophically near zero; evaluate the distance directly
    # on the aligned difference, which is exact there
    flat = int(np.argmax(gain))
    z_best = np.unravel_index(flat, grid.n)
    aligned = translate(b, LatticeShift(tuple(int(v) for v in z_best)))
    candidates = [aligned]
    if a.model_tag in COMPLEX_MODELS and abs(corr_z[z_best]) > 0:
        phase = corr_z[z_best] / abs(corr_z[z_best])
        candidates.append(aligned.replace_components(
            tuple(phase * c for c in aligned.components)))
    best = np.inf
    for cand in candidates:
        diff = a.replace_components(tuple(
            x - y for x, y in zip(a.components, cand.components)))
        best = min(best, x_norm(diff))
    return best


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
    scalars or one value per batch index.
    """
    batch = bits.shape[:-1]
    planes = symmetric_from_bits(bits).reshape(batch + (-1, grid.size))
    raw = planes[..., 0, :]
    if complex_valued:
        raw = raw + 1j * planes[..., 1, :]
    raw = raw.reshape(batch + grid.n)
    per_field = batch + (1,) * grid.dim
    spec = np.fft.fftn(raw, axes=grid.axes, out=_work_array(raw))
    spec[~(_max_mode(grid) <= np.reshape(band_limit, per_field))] = 0.0
    out = np.fft.ifftn(spec, axes=grid.axes, out=spec)
    out = out if complex_valued else out.real
    current = np.sqrt(np.mean(np.abs(out) ** 2, axis=grid.axes))
    scale = np.divide(rms, current, out=np.ones_like(current), where=current > 0.0)
    return out * np.reshape(scale, per_field)


def random_state(model_tag: str, grid: Grid, rng: SplitMix64,
                 amplitude: float = 1.0, band_limit: int | None = None) -> FieldState:
    """Random smooth state with each component at the given rms amplitude."""
    complex_valued = model_tag in COMPLEX_MODELS
    ncomp = len(COMPONENT_NAMES[model_tag])
    comps = [random_band_limited(grid, rng, band_limit, complex_valued, rms=amplitude)
             for _ in range(ncomp)]
    return FieldState(model_tag, grid, comps)
