"""EC-2, shift invariance of E and C, on two off-centre Gaussian probes.

E and C are invariant under lattice shifts, so on the grid each changes by
rounding only.  A functional that is not, E plus 1e-6 times the integral
of |field|^2 cos(2 pi x0 / L0), fails the check on every model and grid
below; a non-finite value fails it before any finite change.
"""

import numpy as np
import pytest

from hylosolve import DoublePower, Grid, ModelSpec, SinglePower, WSpec, checkers, integrate
from hylosolve.checkers import _shift_invariance_check

TAILED = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))
SPECS = {
    "NLS-512": ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
    "NWE-256": ModelSpec("NWE", Grid((256,), (40.0,)), TAILED),
    "NBE-256": ModelSpec("NBE", Grid((256,), (40.0,)), TAILED),
    "NWE-32x16": ModelSpec("NWE", Grid((32, 16), (5.0, 3.0)), TAILED),
    "NWE-64^3": ModelSpec("NWE", Grid((64, 64, 64), (16.0, 16.0, 16.0)), TAILED),
}


def _not_invariant(evaluate):
    """evaluate with 1e-6 times the integral of |field|^2 cos(2 pi x0 / L0)
    added to E: a term that a shift along the first axis changes."""
    def mutated(spec, comps):
        g = spec.grid
        ev = evaluate(spec, comps)
        x0 = g.axis_coordinates(0).reshape((-1,) + (1,) * (g.dim - 1))
        wave = np.cos(2.0 * np.pi * x0 / g.box_length[0])
        return ev._replace(energy=ev.energy + 1e-6 * integrate(g, np.abs(comps[0]) ** 2 * wave))
    return mutated


@pytest.mark.parametrize("name", SPECS)
def test_ec2_passes_by_rounding(name):
    g = SPECS[name].grid
    result = _shift_invariance_check(SPECS[name])
    assert (result.verdict, result.counterexample) == ("pass", None)
    assert result.parameters == {
        "widths": [max(g.spacing), min(g.box_length) / 8.0],
        "shift": [n // 3 + 1 for n in g.n], "worst_rel": result.parameters["worst_rel"]}
    assert result.parameters["worst_rel"] <= 1e-15


@pytest.mark.parametrize("name", SPECS)
def test_ec2_fails_a_functional_that_a_shift_changes(monkeypatch, name):
    spec = SPECS[name]
    monkeypatch.setattr(checkers, "evaluate", _not_invariant(checkers.evaluate))
    result = _shift_invariance_check(spec)
    assert result.verdict == "fail"
    case = result.counterexample
    assert set(case) == {"width", "functional", "shift", "rel"}
    assert case["functional"] == "E" and case["shift"] == [n // 3 + 1 for n in spec.grid.n]
    assert case["width"] in result.parameters["widths"]
    assert case["rel"] == result.parameters["worst_rel"] > 1e-8


def test_a_non_finite_value_fails_ec2_before_a_finite_change(monkeypatch):
    # the mutated E fails on the first state; a NaN in the second state's
    # E, as built, is reported instead
    spec = SPECS["NLS-512"]
    mutated = _not_invariant(checkers.evaluate)
    calls = []

    def poisoned(spec_, comps):
        ev = mutated(spec_, comps)
        calls.append(ev)
        return ev._replace(energy=np.float64(np.nan)) if len(calls) == 3 else ev

    monkeypatch.setattr(checkers, "evaluate", poisoned)
    result = _shift_invariance_check(spec)
    assert len(calls) == 4
    assert result.verdict == "fail"
    assert result.counterexample == {"source": "non-finite", "width": 5.0, "functional": "E",
                                     "shift": [171]}
    # the first state's finite change alone would fail the check
    assert np.isfinite(result.parameters["worst_rel"]) and result.parameters["worst_rel"] > 1e-12
