"""The Gaussian column engine: widths as stacks, multi-axis grids from
per-axis factors.

On a line a column is bitwise what it was when each width took its own
transform: the references below keep that form (`_column_before`).  On 2-d
and 3-d grids the column comes from the 1-d factors of the periodic
Gaussian, so it agrees with the full-grid column to rounding.  ModelSpec
refuses NBE off the line, so there is no 2-d beam case to cover.
"""

import numpy as np
import pytest

from hylosolve import (DoublePower, Grid, ModelSpec, PenaltyParams, Saturating, SinglePower,
                       WSpec, functionals, hylomorphy_check, nash_check)
from hylosolve import grid as gridmod
from hylosolve.exceptions import NearZeroCharge
from hylosolve.functionals import (_gaussian_column, _gaussian_components, _gaussian_sums,
                                   _gaussian_values, _pair_param, bulk_descent,
                                   default_probe_bounds, gaussian_profile, penalized_probe_seed)
from hylosolve.grid import integrate, k_squared, spectral_sum, symbols, transform
from hylosolve.models import charge_of
from hylosolve.nonlinearity import power, w_value

FAMILIES = {
    "single": SinglePower(1.0, 4.0),
    "double": DoublePower(1.0, 4.0, 0.3, 6.0),
    "saturating": Saturating(0.0, 2.0),
}
LINE_GRIDS = {
    "n128": Grid((128,), (20.0,)),
    # 8 widths per stack: a 12-width table takes two stacks
    "n4096": Grid((4096,), (40.0,)),
}
PARAMS = PenaltyParams(delta=0.03, a=0.05, s_exp=2.0)


def _bitwise(x, y) -> bool:
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _column_before(spec, amps, sigma, paired=True):
    """One width's column from the full profile: its unit components, one
    transform of the field, the model's own charge and the quadrature of the
    potential per term (or per amplitude for the saturating family)."""
    g = spec.grid
    profile = gaussian_profile(g, 1.0, sigma)
    unit = _gaussian_components(spec, profile, 1.0)
    spectrum = transform(g, unit[0])
    sym = symbols(spec.model_tag, g)
    fam = spec.w.family
    if isinstance(fam, (SinglePower, DoublePower)):
        terms = [(2.0, 0.5 * spec.w.m_sq), (fam.p, -fam.b / fam.p)]
        if isinstance(fam, DoublePower):
            terms.append((fam.q_tilde, fam.c / fam.q_tilde))
        potential = sum(k * integrate(g, power(profile, e)) * amps**e for e, k in terms)
    else:
        potential = np.array([integrate(g, w_value(spec.w, a * profile)) for a in amps])
    scale = amps**2
    e = scale * (0.5 * spectral_sum(g, sym.kinetic, spectrum)) + potential
    c = scale * charge_of(spec, unit, spectrum)
    norm_sq = scale * spectral_sum(g, sym.weights[0], spectrum)
    if spec.model_tag != "NLS":
        second = scale * integrate(g, np.abs(unit[1]) ** 2)
        pair = _pair_param(spec, e, second) if paired else 0.0
        e = e + 0.5 * pair**2 * second
        c = pair * c
        norm_sq = norm_sq + pair**2 * second
    return e, c, norm_sq


@pytest.mark.parametrize("paired", [True, False], ids=["paired", "still"])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("tag", ["NLS", "NWE", "NBE"])
@pytest.mark.parametrize("where", LINE_GRIDS)
def test_line_tables_are_bitwise_the_per_width_columns(where, tag, family, paired):
    spec = ModelSpec(tag, LINE_GRIDS[where], WSpec(1.0, FAMILIES[family]))
    amp_bounds, sig_bounds = default_probe_bounds(spec)
    amps = np.geomspace(*amp_bounds, 9)
    sigmas = np.geomspace(*sig_bounds, 12)
    table = _gaussian_column(spec, amps, sigmas, paired)
    assert table.energy.shape == (len(amps), len(sigmas))
    for j, sigma in enumerate(sigmas):
        alone = _gaussian_column(spec, amps, sigma, paired)
        before = _column_before(spec, amps, sigma, paired)
        for got, one, old in zip(table[:3], alone[:3], before):
            assert _bitwise(got[:, j], one) and _bitwise(one, old)


FACTORED = {
    # n and L differ per axis
    "NLS-2d": ("NLS", Grid((64, 32), (20.0, 12.0))),
    "NWE-32^3": ("NWE", Grid((32, 32, 32), (16.0, 16.0, 16.0))),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("where", FACTORED)
def test_factored_columns_match_the_full_grid_column(where, family):
    tag, g = FACTORED[where]
    spec = ModelSpec(tag, g, WSpec(1.0, FAMILIES[family]))
    amps = np.geomspace(0.05, 2.0, 7)
    # from one cell to L/8
    sigmas = np.geomspace(max(g.spacing), min(g.box_length) / 8.0, 6)
    for paired in (True, False):
        table = _gaussian_column(spec, amps, sigmas, paired)
        for j, sigma in enumerate(sigmas):
            full = _column_before(spec, amps, sigma, paired)
            for got, want in zip(table[:3], full):
                assert np.all(np.abs(got[:, j] - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("where", FACTORED)
def test_factored_sums_match_the_full_grid_sums(where):
    tag, g = FACTORED[where]
    sigmas = np.geomspace(max(g.spacing), min(g.box_length) / 8.0, 6)
    sums = _gaussian_sums(tag, g, sigmas, (3.0, 4.0, 6.0))
    for j, sigma in enumerate(sigmas):
        profile = gaussian_profile(g, 1.0, sigma)
        spectrum = transform(g, profile)
        want = ([spectral_sum(g, k_squared(g), spectrum),
                 spectral_sum(g, 1.0 + k_squared(g), spectrum), integrate(g, profile**2)]
                + [integrate(g, power(profile, e)) for e in (3.0, 4.0, 6.0)])
        got = [sums.kinetic[j], sums.norm[j], sums.mass[j]] + [p[j] for p in sums.powers]
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert sums.slope is None


def test_factored_nash_constant_matches_the_full_grid_maximum():
    g, p = Grid((64, 32), (20.0, 12.0)), 3.0
    q, r = functionals.nash_exponents(p, g.dim)
    sig_hi = min(g.box_length) / 8.0
    sigmas = np.geomspace(max(4.0 * max(g.spacing), sig_hi / 64.0), sig_hi, 30)
    full = max(functionals._lp_gradient_ratio(g, gaussian_profile(g, 1.0, s)[None], p, q, r)[0]
               for s in sigmas)
    assert nash_check(g, p) == pytest.approx(full, rel=1e-13, abs=0.0)


def test_near_zero_charge_comes_from_the_first_offending_width(monkeypatch):
    # the unit mass of two widths shrunk: the third width's probes fall below
    # the charge floor, the sixth's vanish; the message names the third's
    spec = ModelSpec("NLS", Grid((256,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0)))
    amps = np.geomspace(0.05, 2.0, 5)
    sigmas = np.geomspace(0.7, 5.0, 8)
    shrink = {sigmas[2]: 1e-20, sigmas[5]: 0.0}
    sums = functionals._gaussian_sums

    def shrunk(tag, grid, widths, exponents=()):
        out = sums(tag, grid, widths, exponents)
        return out._replace(mass=out.mass * np.array([shrink.get(s, 1.0) for s in widths]))

    monkeypatch.setattr(functionals, "_gaussian_sums", shrunk)
    # one width at a time, the first offending width raises
    messages = []
    for sigma in sigmas:
        try:
            _gaussian_values(spec, amps, sigma, functionals._ratio)
        except NearZeroCharge as err:
            messages.append(str(err))
    assert len(messages) == 2
    with pytest.raises(NearZeroCharge) as stacked:
        _gaussian_values(spec, amps, sigmas, functionals._ratio)
    assert str(stacked.value) == messages[0]
    column = _gaussian_column(spec, amps, sigmas[2])
    assert messages[0] == (f"charge magnitude {float(np.min(np.abs(column.charge))):.3e} "
                           "below the ratio floor")


SEARCH_GRIDS = {
    "NLS-2d": ModelSpec("NLS", Grid((64, 128), (20.0, 30.0)), WSpec(1.0, SinglePower(1.0, 3.0))),
    # the evolve-nwe3d model
    "NWE-64^3": ModelSpec("NWE", Grid((64, 64, 64), (16.0, 16.0, 16.0)),
                          WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
}


@pytest.mark.parametrize("name", SEARCH_GRIDS)
def test_no_family_search_transforms_the_grid(name, monkeypatch):
    spec = SEARCH_GRIDS[name]
    shapes = []
    for fname in ("fft", "ifft"):
        original = getattr(gridmod, fname)

        def recorded(values, *args, _original=original, **kwargs):
            shapes.append(np.shape(values))
            return _original(values, *args, **kwargs)

        monkeypatch.setattr(gridmod, fname, recorded)
    report = hylomorphy_check(spec)
    state, value = penalized_probe_seed(spec, PARAMS)
    amp_bounds, sig_bounds = default_probe_bounds(spec)
    end = bulk_descent(spec, PARAMS, sig_bounds[0], sig_bounds, amp_bounds)
    if spec.model_tag == "NLS":
        nash_check(spec.grid, 3.0)
    # stacks of widths along one axis, never a field of the grid
    assert shapes and all(len(s) == 2 and s[1] in spec.grid.n for s in shapes)
    assert max(np.prod(s) for s in shapes) <= functionals.PROBE_CHUNK_POINTS
    assert report.verdict and end["columns"] >= 1
    assert state.components[0].shape == spec.grid.n and np.isfinite(value)


@pytest.mark.parametrize("name", SEARCH_GRIDS)
def test_the_search_winner_agrees_with_its_evaluated_state(name):
    # the winner's value comes from its own factored column on 2-d and 3-d
    # grids; evaluating its state gives the same value to rounding
    spec = SEARCH_GRIDS[name]
    report = hylomorphy_check(spec)
    ratio = functionals.lambda_ratio(spec, functionals.gaussian_state(
        spec, report.witness["amplitude"], report.witness["width"],
        report.witness.get("pair_param")))
    assert report.best_ratio == pytest.approx(ratio, rel=1e-13, abs=0.0)
    state, value = penalized_probe_seed(spec, PARAMS)
    assert value == pytest.approx(functionals.j_delta(spec, state, PARAMS), rel=1e-13, abs=0.0)


LINE = ModelSpec("NLS", Grid((256,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0)))


@pytest.mark.parametrize("search", ["hylomorphy_check", "penalized_probe_seed"])
@pytest.mark.parametrize("kwargs, argument", [
    ({"grid_size": 1}, "grid_size"),
    ({"grid_size": 0}, "grid_size"),
    ({"refinements": -1}, "refinements"),
], ids=["grid_size=1", "grid_size=0", "refinements=-1"])
def test_the_family_search_refuses_unusable_sizes(search, kwargs, argument):
    call = {"hylomorphy_check": lambda: hylomorphy_check(LINE, **kwargs),
            "penalized_probe_seed": lambda: penalized_probe_seed(LINE, PARAMS, **kwargs)}[search]
    with pytest.raises(ValueError, match=argument):
        call()


def test_the_smallest_family_search_still_runs():
    report = hylomorphy_check(LINE, grid_size=2, refinements=0)
    assert np.isfinite(report.best_ratio)
