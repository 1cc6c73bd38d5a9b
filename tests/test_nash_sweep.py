"""The stacked interpolation-constant sweep against a one-field-at-a-time
reference, and its transform budget.

The reference draws each random field with its own `rng.symmetric` call,
low-passes it alone and takes its ratio through `_lp_gradient_ratio` on a
one-row stack, so the comparison checks the draws, the band limit and the
running maximum, not how the platform vectorizes `pow` over a stack.
"""

import numpy as np
import pytest

from hylosolve import Grid, ModelSpec, SinglePower, WSpec, audit, functionals
from hylosolve.functionals import (NASH_FIELDS, PROBE_CHUNK_POINTS, _lp_gradient_ratio,
                                   choose_coercivity_params, gaussian_profile, nash_check,
                                   nash_exponents, nash_sweep)
from hylosolve.grid import low_pass
from hylosolve.rng import SplitMix64

CASES = {
    "NLS-512": (Grid((512,), (40.0,)), 4.0),
    "2d-64x64": (Grid((64, 64), (20.0, 20.0)), 3.0),
    # one field per stack
    "3d-32^3": (Grid((32, 32, 32), (16.0, 16.0, 16.0)), 3.0),
}


@pytest.fixture(autouse=True)
def fresh_sweeps():
    """Every test here computes its sweeps: none is served by the memo of
    an earlier one, which would hide the draws and transforms it counts."""
    functionals._nash_sweeps.clear()


def _one_row_ratio(grid, f, p, q, r):
    return _lp_gradient_ratio(grid, f[None], p, q, r)[0]


def _reference_sweep(grid, p, seed, n_random):
    """The per-field loop: Gaussians of 30 widths, then one random field at
    a time, each excluded field (vanishing gradient) skipped."""
    q, r = nash_exponents(p, grid.dim)
    best = 0.0
    sig_hi = min(grid.box_length) / 8.0
    sig_lo = max(4.0 * max(grid.spacing), sig_hi / 64.0)
    for sigma in np.geomspace(sig_lo, sig_hi, 30):
        ratio = _one_row_ratio(grid, gaussian_profile(grid, 1.0, sigma), p, q, r)
        if not np.isnan(ratio):
            best = max(best, ratio)
    rng = SplitMix64(seed).split("nash-check")
    running = [best]
    for _ in range(n_random):
        f = np.asarray(rng.symmetric(grid.size)).reshape(grid.n)
        f = low_pass(grid, f, min(grid.n) // 4).real
        ratio = _one_row_ratio(grid, f, p, q, r)
        if not np.isnan(ratio):
            best = max(best, ratio)
        running.append(best)
    return np.array(running)


@pytest.mark.parametrize("n_random", [600, 250])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_sweep_is_bitwise_the_per_field_loop(name, n_random):
    grid, p = CASES[name]
    got = nash_sweep(grid, p, 6, n_random)
    want = _reference_sweep(grid, p, 6, n_random)
    assert got.shape == (n_random + 1,)
    assert got.tobytes() == want.tobytes()


def test_a_longer_sweep_extends_a_shorter_one():
    grid, p = CASES["NLS-512"]
    longer = nash_sweep(grid, p, 6, 600)
    functionals._nash_sweeps.clear()
    assert longer[:401].tobytes() == nash_sweep(grid, p, 6, 400).tobytes()


def test_a_constant_field_is_excluded_from_the_maximum(monkeypatch):
    grid, p = CASES["NLS-512"]
    q, r = nash_exponents(p, grid.dim)
    rng = SplitMix64(3)
    fields = np.stack([low_pass(grid, rng.symmetric(grid.size), 8).real,
                       np.full(grid.n, 0.5),
                       low_pass(grid, rng.symmetric(grid.size), 12).real])
    ratios = _lp_gradient_ratio(grid, fields, p, q, r)
    assert np.isnan(ratios[1])
    for i in (0, 2):
        assert ratios[i] == _one_row_ratio(grid, fields[i], p, q, r)
    # the second field of the first stack drawn constant: its entry repeats
    # the maximum before it
    symmetric_from_bits = functionals.symmetric_from_bits

    def second_field_constant(bits):
        values = symmetric_from_bits(bits).reshape(-1, grid.size)
        values[1] = 0.5
        return values

    plain = nash_sweep(grid, p, 6, 100)
    functionals._nash_sweeps.clear()
    monkeypatch.setattr(functionals, "symmetric_from_bits", second_field_constant)
    sweep = nash_sweep(grid, p, 6, 100)
    assert not np.any(np.isnan(sweep))
    assert sweep[:2].tobytes() == plain[:2].tobytes()
    assert sweep[2] == sweep[1]


def test_sweep_transform_budget(transform_sizes):
    # ten stacks of 64 fields, three transforms each, and one Gaussian stack;
    # one field at a time it took 1830
    nash_sweep(Grid((512,), (40.0,)), 4.0, 6, 600)
    assert 0 < len(transform_sizes) <= 40


def test_no_sweep_transform_exceeds_the_chunk_bound(transform_sizes):
    grid, p = CASES["3d-32^3"]
    nash_sweep(grid, p, 6, 3)
    assert transform_sizes
    assert max(transform_sizes) <= PROBE_CHUNK_POINTS


def test_one_sweep_serves_the_coercivity_params_and_the_audit(monkeypatch):
    grid, p = CASES["NLS-512"]
    spec = ModelSpec("NLS", grid, WSpec(1.0, SinglePower(1.0, p)))
    fields = []
    draw = functionals.symmetric_from_bits

    def counted(bits):
        fields.append(bits.size // grid.size)
        return draw(bits)

    monkeypatch.setattr(functionals, "symmetric_from_bits", counted)
    # the audit's coercivity parameters draw the NASH_FIELDS sweep, and its
    # Nash check reads the same one
    cert = audit(spec, budget=100, seed=6)
    assert sum(fields) == NASH_FIELDS
    sweep = nash_sweep(grid, p, 6, NASH_FIELDS)
    assert sum(fields) == NASH_FIELDS and not sweep.flags.writeable
    assert cert.results["Nash"].parameters["b_emp"] == sweep[NASH_FIELDS]
    # the kept sweep is bitwise a fresh one, and its entry 400 is the
    # constant of a 400-field sweep, which the parameters take
    functionals._nash_sweeps.clear()
    assert nash_sweep(grid, p, 6, NASH_FIELDS).tobytes() == sweep.tobytes()
    params = choose_coercivity_params(spec, seed=6, n_probes=100)
    assert params.nash_b == nash_check(grid, p, seed=6, n_random=400) == sweep[400]


def test_the_memo_keeps_the_last_sweep():
    grid, p = CASES["NLS-512"]
    first = nash_sweep(grid, p, 6, 10)
    assert nash_sweep(grid, p, 6, 10) is first
    nash_sweep(grid, p, 7, 10)
    assert list(functionals._nash_sweeps) == [(grid, p, 7, 10)]
    again = nash_sweep(grid, p, 6, 10)
    assert again is not first and again.tobytes() == first.tobytes()
