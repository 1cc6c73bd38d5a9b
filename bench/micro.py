"""Layer microbenchmarks at one workload's grid, next to the raw FFT floor.

Each function is warmed up first (lru_cache tables, propagators), then timed
as the best of five repeats of a batch sized to take about 20 ms, which is
what the call costs once its caches are warm.
"""

from __future__ import annotations

import timeit

import numpy as np

BATCH_SECONDS = 0.02
REPEATS = 5


def per_call_us(fn) -> float:
    for _ in range(2):
        fn()
    t = timeit.Timer(fn)
    number = 1
    while t.timeit(number) < BATCH_SECONDS and number < 1 << 16:
        number *= 2
    return 1e6 * min(t.repeat(REPEATS, number)) / number


def measure(spec) -> dict:
    """Per-call microseconds of the layer functions on a Gaussian probe of
    `spec`'s model and grid."""
    from hylosolve.functionals import gaussian_state
    from hylosolve.grid import orbit_distance, sharp_seminorm, x_norm
    from hylosolve.models import charge, energy, evolve_step, grad_energy
    a = gaussian_state(spec, 1.0, 1.5, pair_param=0.5)
    b = gaussian_state(spec, 1.1, 1.6, pair_param=0.5)
    raw = np.ascontiguousarray(a.components[0], dtype=np.complex128)
    return {
        "grid.fft_floor_us": per_call_us(lambda: np.fft.fftn(raw)),
        "models.energy_us": per_call_us(lambda: energy(spec, a)),
        "models.charge_us": per_call_us(lambda: charge(spec, a)),
        "models.grad_energy_us": per_call_us(lambda: grad_energy(spec, a)),
        "models.evolve_step_us": per_call_us(lambda: evolve_step(spec, a, 1e-3)),
        "grid.x_norm_us": per_call_us(lambda: x_norm(a)),
        "grid.sharp_seminorm_us": per_call_us(lambda: sharp_seminorm(a)),
        "grid.orbit_distance_us": per_call_us(lambda: orbit_distance(a, b)),
    }
