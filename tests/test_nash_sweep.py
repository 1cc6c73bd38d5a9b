"""The Gaussian-family interpolation constant against the random-field sweep
it replaced, and its transform budget.

The reference is the older per-field sweep: Gaussians of 30 widths, then
random band-limited fields, each drawn with its own `rng.symmetric` call,
low-passed alone and measured through `_lp_gradient_ratio` on a one-row
stack.  The sharp constant's maximizer is the smooth ground state, so no
random field should ever beat a Gaussian: the sample below would falsify
that, and with it the constant nash_check returns.
"""

import numpy as np
import pytest

from hylosolve import Grid, ModelSpec, SinglePower, WSpec, audit, checkers, functionals
from hylosolve.checkers import _nash_stability_check
from hylosolve.functionals import (PROBE_CHUNK_POINTS, _lp_gradient_ratio,
                                   choose_coercivity_params, nash_check, nash_exponents)
from hylosolve.grid import low_pass
from hylosolve.rng import SplitMix64

CASES = {
    "NLS-512": (Grid((512,), (40.0,)), 4.0),
    "2d-64x64": (Grid((64, 64), (20.0, 20.0)), 3.0),
    # one field per stack
    "3d-32^3": (Grid((32, 32, 32), (16.0, 16.0, 16.0)), 3.0),
}


def _one_row_ratio(grid, f, p, q, r):
    return _lp_gradient_ratio(grid, f[None], p, q, r)[0]


def _sigmas(grid):
    sig_hi = min(grid.box_length) / 8.0
    sig_lo = max(4.0 * max(grid.spacing), sig_hi / 64.0)
    return np.geomspace(sig_lo, sig_hi, 30)


def _reference_sweep(grid, p, seed, n_random):
    """The per-field loop: Gaussians of 30 widths, then one random field at
    a time, each excluded field (vanishing gradient) skipped; entry k is the
    running maximum after k random fields."""
    q, r = nash_exponents(p, grid.dim)
    best = 0.0
    for sigma in _sigmas(grid):
        ratio = _one_row_ratio(grid, functionals.gaussian_profile(grid, 1.0, sigma), p, q, r)
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


@pytest.mark.parametrize("seed", [6, 7])
@pytest.mark.parametrize("name", sorted(CASES))
def test_random_fields_never_exceed_the_gaussian_constant(name, seed):
    grid, p = CASES[name]
    b = nash_check(grid, p)
    sweep = _reference_sweep(grid, p, seed, 600)
    # no random field beats the Gaussians
    assert np.all(sweep == sweep[0])
    if grid.dim == 1:
        assert np.float64(b).tobytes() == sweep[:1].tobytes()
    else:  # from the bumps' per-axis factors, the full-grid maximum to rounding
        assert b == pytest.approx(sweep[0], rel=1e-13, abs=0.0)


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
    # the widest Gaussian made constant: the constant is the maximum of the
    # other widths
    profile = functionals.gaussian_profile
    widest = _sigmas(grid)[-1]

    def widest_constant(grid, amplitude, sigma, center=None):
        bump = profile(grid, amplitude, sigma, center)
        return np.full(grid.n, 0.5) if sigma == widest else bump

    others = max(_one_row_ratio(grid, profile(grid, 1.0, s), p, q, r)
                 for s in _sigmas(grid)[:-1])
    monkeypatch.setattr(functionals, "gaussian_profile", widest_constant)
    assert nash_check(grid, p) == others


def test_the_nash_entry_fails_when_every_width_is_excluded(monkeypatch):
    grid, p = CASES["NLS-512"]
    spec = ModelSpec("NLS", grid, WSpec(1.0, SinglePower(1.0, p)))
    monkeypatch.setattr(functionals, "gaussian_profile",
                        lambda grid, amplitude, sigma, center=None: np.full(grid.n, 0.5))
    assert nash_check(grid, p) == 0.0
    nash = _nash_stability_check(spec)
    assert (nash.verdict, nash.kind, nash.counterexample) == ("fail", "probe-family",
                                                               {"b_emp": 0.0})


def test_gaussian_constant_transform_budget(transform_sizes):
    # the 30 widths fit one stack: a single transform (the random-field
    # sweep it replaced took 31 at 600 fields)
    nash_check(*CASES["NLS-512"])
    assert len(transform_sizes) == 1


def test_no_gaussian_constant_transform_exceeds_the_chunk_bound(transform_sizes):
    # on a 3-d grid the moments come from the bumps' per-axis factors: one
    # stack of the 30 widths per axis (the full bumps took 30 grid transforms)
    nash_check(*CASES["3d-32^3"])
    assert transform_sizes == [30 * 32] * 3
    assert max(transform_sizes) <= PROBE_CHUNK_POINTS


def test_the_coercivity_params_and_the_audit_read_one_constant(monkeypatch):
    grid, p = CASES["NLS-512"]
    spec = ModelSpec("NLS", grid, WSpec(1.0, SinglePower(1.0, p)))
    b = nash_check(grid, p)
    calls = []

    def counted(*args):
        calls.append(args)
        return nash_check(*args)

    # both callers reach nash_check through their module globals
    monkeypatch.setattr(functionals, "nash_check", counted)
    monkeypatch.setattr(checkers, "nash_check", counted)
    cert = audit(spec, budget=100, seed=6)
    assert calls == [(grid, p), (grid, p)]
    nash = cert.results["Nash"]
    assert (nash.verdict, nash.kind) == ("pass", "probe-family")
    assert set(nash.parameters) == {"b_emp", "note"}
    assert nash.parameters["b_emp"] == b
    # no stream: the constant, and so a, are the same at every seed
    params = [choose_coercivity_params(spec, seed=seed, n_probes=100) for seed in (6, 7)]
    assert params[0].nash_b == params[1].nash_b == b
    assert params[0].a == params[1].a == cert.params["a"]
