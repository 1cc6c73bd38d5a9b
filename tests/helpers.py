import numpy as np

from hylosolve.grid import random_state


def sech_profile(spec, mu, center):
    """Closed-form standing-wave amplitude sqrt(2 mu) sech(sqrt(mu) x),
    periodized with the min-image distance."""
    x = spec.grid.axis_coordinates(0)
    L = spec.grid.box_length[0]
    d = np.abs(x - center)
    d = np.minimum(d, L - d)
    return np.sqrt(2.0 * mu) / np.cosh(np.sqrt(mu) * d)


def aligned_l2_error(psi, oracle):
    """Relative L2 distance after optimizing shift (via cross-correlation)
    and global phase; independent of the orbit-distance implementation."""
    best = np.inf
    corr = np.fft.ifft(np.fft.fft(psi) * np.conj(np.fft.fft(oracle)))
    shift = int(np.argmax(np.abs(corr)))
    for z in (shift - 1, shift, shift + 1):
        moved = np.roll(oracle, z)
        overlap = np.vdot(moved, psi)
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        err = np.linalg.norm(psi - phase * moved) / np.linalg.norm(oracle)
        best = min(best, err)
    return best


def random_states(spec, rng, count, amp_range=(1e-2, 3.0)):
    """count random smooth states of the model (grid.random_state) from rng,
    each at an rms amplitude log-uniform in amp_range and with a band limit
    drawn from 2 to min(n) // 4."""
    lo, hi = np.log(amp_range)
    top = min(spec.grid.n) // 4
    for _ in range(count):
        amplitude = float(np.exp(lo + (hi - lo) * rng.uniform()))
        band = 2 + int(rng.integers(1, top - 1)[0])
        yield random_state(spec.model_tag, spec.grid, rng, amplitude, band)
