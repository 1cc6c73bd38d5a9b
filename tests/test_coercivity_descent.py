"""EC-3i's descent of the bulk E + a|C|^s over the Gaussian family.

The sech ground state of the focusing cubic NLS has E = c/2 - c^3/96 at mass
c, and the Gaussian of the best width E = c/2 - c^3/(32 pi), so on the
demo grid a coefficient a = 0.9/96 leaves the floor E + a C^3 >= 0 broken by
concentrated bumps, which the fixed-mass width sweep misses; a = 1/96 and
1.1/96 keep it for every Gaussian.
"""

import numpy as np
import pytest

from hylosolve import (DoublePower, Grid, Inadmissible, ModelSpec, PenaltyParams, Saturating,
                       SinglePower, WSpec, audit, checkers, functionals)
from hylosolve.checkers import _coercivity_floor_check
from hylosolve.functionals import (DESCENT_COLUMNS, bulk_descent, choose_coercivity_params,
                                   gaussian_state)
from hylosolve.models import charge, energy

NLS_512 = ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0)))
NWE_2D = ModelSpec("NWE", Grid((32, 16), (5.0, 3.0)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
DIPPING = ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.1, 6.0)))
SUPERCRITICAL = ModelSpec("NLS", Grid((256,), (40.0,)), WSpec(1.0, SinglePower(1.0, 8.0)))


def _sech_params(fraction):
    return PenaltyParams(delta=0.02, a=fraction / 96.0, s_exp=3.0)


def _bulk_alone(spec, params, width, amplitude):
    """E + a|C|^s of one Gaussian probe with a still second component."""
    state = gaussian_state(spec, amplitude, width, pair_param=0.0)
    return energy(spec, state) + params.a * abs(charge(spec, state)) ** params.s_exp


@pytest.mark.parametrize("fraction", [0.9, 0.95])
def test_a_coefficient_below_the_sech_constant_fails_by_the_descent(fraction):
    # 0.95/96 is just below the continuum Gaussian threshold 1/(32 pi)
    params = _sech_params(fraction)
    result = audit(NLS_512, params, budget=2000).results["EC-3i"]
    assert result.verdict == "fail"
    case = result.counterexample
    assert case["source"] == "family-descent"
    assert case["bulk"] < -1.0
    assert result.parameters["min_bulk"] == case["bulk"]
    # a bump about one cell wide whose charge is well past the sweep's 35
    assert case["width"] < 2.0 * NLS_512.grid.spacing[0]
    assert case["charge"] > 40.0
    # the value is the probe's, evaluated alone
    alone = _bulk_alone(NLS_512, params, case["width"], case["amplitude"])
    assert case["bulk"] == pytest.approx(alone, rel=1e-12)
    assert case["charge"] == pytest.approx(
        charge(NLS_512, gaussian_state(NLS_512, case["amplitude"], case["width"])), rel=1e-12)


@pytest.mark.parametrize("fraction", [1.0, 1.1])
def test_a_coefficient_at_or_above_the_sech_constant_passes(fraction):
    result = audit(NLS_512, _sech_params(fraction), budget=2000).results["EC-3i"]
    assert result.verdict == "pass" and result.counterexample is None
    descent = result.parameters["family_descent"]
    assert descent["bulk"] > 0.0
    assert 0 < descent["columns"] <= DESCENT_COLUMNS


def test_the_earlier_sources_keep_their_precedence():
    # the dipping wave fails by its plateau and the supercritical power by
    # the width sweep, although the descent goes below the floor on both
    dip = audit(DIPPING, choose_coercivity_params(DIPPING)).results["EC-3i"]
    supercritical = audit(SUPERCRITICAL, budget=400).results["EC-3i"]
    assert dip.counterexample["source"] == "plateau"
    assert supercritical.counterexample["source"] == "width-sweep"
    for result in (dip, supercritical):
        assert result.parameters["family_descent"]["bulk"] < -1.0
    # the supercritical descent runs into the window's corner, and says so
    assert supercritical.parameters["family_descent"]["on_window_bound"] == [
        "amplitude_upper", "width_lower"]


def test_sweep_and_descent_narrow_where_three_cells_exceed_an_eighth_of_the_box():
    # (32, 16) x (5, 3): one cell is 0.1875 and L/8 is 0.375, three cells 0.5625
    params = PenaltyParams(delta=0.02, a=0.05, s_exp=2.0)
    result = _coercivity_floor_check(NWE_2D, params)
    widths = [sigma for sigma, _ in result.parameters["width_sweep"]]
    assert widths[0] == 0.375 and widths[-1] == pytest.approx(0.1875, rel=1e-15)
    assert all(b < a for a, b in zip(widths, widths[1:]))
    descent = result.parameters["family_descent"]
    assert 0.1875 * (1 - 1e-12) <= descent["width"] <= 0.375 * (1 + 1e-12)


def test_the_descent_moves_downhill_from_its_start(monkeypatch):
    params = _sech_params(0.9)
    window = (0.078125, 5.0), (0.125, 64.0)
    full = bulk_descent(NLS_512, params, 0.234375, *window)
    monkeypatch.setattr(functionals, "DESCENT_COLUMNS", 1)  # the start column alone
    start = bulk_descent(NLS_512, params, 0.234375, *window)
    assert start["columns"] == 1 and start["width"] == pytest.approx(0.234375, rel=1e-15)
    assert start["bulk"] > 0.0 > full["bulk"]
    assert 1 < full["columns"] <= DESCENT_COLUMNS
    for end in (start, full):
        assert end["bulk"] == pytest.approx(
            _bulk_alone(NLS_512, params, end["width"], end["amplitude"]), rel=1e-12)


@pytest.mark.parametrize("spec", [
    ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
    ModelSpec("NBE", Grid((256,), (40.0,)), WSpec(1.0, Saturating(0.0, 0.5)))], ids=["NWE", "NBE"])
def test_the_descent_holds_the_second_component_still(spec):
    # pair parameter 0: no charge, and the bulk of the field component alone
    params = PenaltyParams(delta=0.02, a=0.05, s_exp=2.0)
    end = bulk_descent(spec, params, 1.0, (0.15625, 5.0), (0.125, 45.0))
    assert end["charge"] == 0.0
    assert end["bulk"] == pytest.approx(
        _bulk_alone(spec, params, end["width"], end["amplitude"]), rel=1e-12)


def test_a_non_finite_descent_value_fails_ec3i(monkeypatch):
    column = functionals._gaussian_column

    def poisoned(spec, amps, sigma, paired=True):
        values = column(spec, amps, sigma, paired)
        return values._replace(energy=np.full_like(values.energy, np.nan))

    monkeypatch.setattr(functionals, "_gaussian_column", poisoned)
    result = _coercivity_floor_check(NLS_512, _sech_params(1.1))
    assert result.verdict == "fail"
    case = result.counterexample
    assert case["source"] == "non-finite" and set(case["descent"]) == {"width", "amplitude"}


@pytest.mark.parametrize("spec", [
    NLS_512,
    ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
    ModelSpec("NWE", Grid((32, 32, 32), (16.0, 16.0, 16.0)),
              WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
], ids=["NLS-512", "NWE-256", "NWE-32^3"])
def test_ec3i_transforms_inside_the_audit_stay_within_the_budget(transform_sizes, monkeypatch,
                                                                  spec):
    # the plateau takes no transform, the width sweep one full-grid transform
    # per width, and the descent one per column and axis, within its cap
    calls = {}

    def marked(label, function):
        def wrapper(*args, **kwargs):
            start = len(transform_sizes)
            result = function(*args, **kwargs)
            calls.setdefault(label, []).append((start, len(transform_sizes), result))
            return result
        return wrapper

    for label in ("_coercivity_floor_check", "bulk_descent"):
        monkeypatch.setattr(checkers, label, marked(label, getattr(checkers, label)))
    params = PenaltyParams(delta=0.02, a=0.05, s_exp=2.0)
    if spec.grid.dim == 3:  # too coarse for the hylomorphy search, which follows EC-3i
        with pytest.raises(Inadmissible):
            audit(spec, params, budget=2000)
    else:
        audit(spec, params, budget=2000)
    [(start, end, _)] = calls["_coercivity_floor_check"]
    [(d_start, d_end, descent)] = calls["bulk_descent"]
    assert transform_sizes[start:d_start] == [spec.grid.size] * 8
    assert transform_sizes[d_start:d_end] == list(spec.grid.n) * descent["columns"]
    assert descent["columns"] <= DESCENT_COLUMNS
    assert d_end == end
