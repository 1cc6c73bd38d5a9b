"""Which rule sets the coercivity coefficient a of E + a|C|^s >= 0.

The NLS power families take the Young split of the interpolation
inequality, a W that is nonnegative by its coefficients takes a = 0, and
only the rest draws random probes.  On the workload models the rules give
bit for bit the coefficient of the older rule, 2 max(k_young, a_probe) on
NLS and 2 a_probe elsewhere, whose probe supremum never bound there.
"""

import json

import numpy as np
import pytest

from hylosolve import functionals
from hylosolve.checkers import audit, gate_passed
from hylosolve.cli import cli_main
from hylosolve.functionals import (COERCIVITY_SAFETY, _probe_supremum,
                                   choose_coercivity_params, coercivity_exponent,
                                   nash_exponents)
from hylosolve.grid import Grid
from hylosolve.models import ModelSpec, charge_of, energy_of
from hylosolve.nonlinearity import (DoublePower, Saturating, SinglePower, WSpec,
                                    _positivity_verdict, w_nonnegative, w_value)
from hylosolve.rng import SplitMix64

from helpers import sech_profile
from test_nash_sweep import _reference_sweep

NLS_GRID = Grid((512,), (40.0,))
WAVE_GRID = Grid((256,), (40.0,))
FOCUSING = WSpec(1.0, SinglePower(1.0, 4.0))
# the continuation workload's W: W(s)/s^2 = 0.5 - 0.25 s^2 + 0.05 s^4
TAILED = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))
# W(s)/s^2 = 0.5 - 0.25 s^2 + (0.1/6) s^4, minimum -0.4375 at s^2 = 7.5
DIPPING = WSpec(1.0, DoublePower(1.0, 4.0, 0.1, 6.0))
# W(s)/s^2 = 0.5 - 0.5 s^2 + (0.1/6) s^4, minimum -3.25 at s^2 = 15
DEEP_DIP = WSpec(1.0, DoublePower(2.0, 4.0, 0.1, 6.0))
# W(s)/s^2 = 0.5 - 0.25 s^2 + 0.03125 s^4, minimum exactly 0 at s^2 = 4
TANGENT = WSpec(1.0, DoublePower(1.0, 4.0, 0.1875, 6.0))

# every family the tests build, with the verdict W >= 0 on [0, inf)
FAMILIES = [
    (FOCUSING, False), (TAILED, True), (DIPPING, False), (DEEP_DIP, False),
    (WSpec(1.0, SinglePower(0.0, 4.0)), True), (WSpec(1.0, SinglePower(1.0, 8.0)), False),
    (WSpec(1.0, SinglePower(1.0, 3.0)), False), (WSpec(1.0, SinglePower(1.0, 40.0)), False),
    (WSpec(1.0, SinglePower(1.3, 4.0)), False), (WSpec(0.5, SinglePower(2.0, 3.5)), False),
    (WSpec(1.0, DoublePower(0.0, 3.0, 1.0, 4.0)), True),
    (WSpec(2.0, DoublePower(0.5, 3.0, 0.0, 5.0)), False),
    (WSpec(1.0, DoublePower(1.3, 4.0, 0.0, 6.0)), False),
    (WSpec(0.5, DoublePower(1.0, 4.0, 0.3, 6.0)), False),
    (WSpec(1.0, Saturating(0.0, 0.5)), True), (WSpec(1.0, Saturating(0.0, 2.0)), True),
    (WSpec(2.0, Saturating(0.5, 1.5)), True), (WSpec(1.5, Saturating(1.0, 2.0)), True),
    (WSpec(1.0, Saturating(0.5, 0.8)), True), (WSpec(0.0, Saturating(0.0, 1e-12)), True),
]


def _older_rule(spec, seed):
    """The coefficient before the closed forms: the probe supremum on the
    "coercivity-probes" stream, folded into the Young split on NLS, whose
    constant came from the Gaussians and 400 random fields."""
    rng = SplitMix64(seed).split("coercivity-probes")
    if spec.model_tag != "NLS":
        return COERCIVITY_SAFETY * _probe_supremum(spec, rng, 1.0, 2000)
    p = spec.w.family.p
    q, _ = nash_exponents(p, 1)
    b_emp = float(_reference_sweep(spec.grid, p, seed, 400)[-1])
    k_young = (1.0 - q / 2.0) * q ** (q / (2.0 - q)) * (spec.w.family.b / p * b_emp) ** (
        2.0 / (2.0 - q))
    a_probe = _probe_supremum(spec, rng, coercivity_exponent(p, 1), 2000)
    return COERCIVITY_SAFETY * max(k_young, a_probe)


@pytest.mark.parametrize("seed", [6, 7])
@pytest.mark.parametrize("spec", [ModelSpec("NLS", NLS_GRID, FOCUSING),
                                  ModelSpec("NWE", WAVE_GRID, TAILED)], ids=["NLS", "NWE"])
def test_a_is_the_older_rule_bit_for_bit_on_the_workload_models(spec, seed):
    assert choose_coercivity_params(spec, seed=seed).a == _older_rule(spec, seed)


@pytest.fixture
def no_probes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed-form coefficient drew a random probe")

    monkeypatch.setattr(functionals, "probe_chunks", refuse)


@pytest.mark.parametrize("w", [FOCUSING, WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))],
                         ids=["single", "double"])
def test_nls_power_families_take_the_young_split_without_probes(no_probes, w):
    params = choose_coercivity_params(ModelSpec("NLS", NLS_GRID, w), seed=6)
    assert params.a > 0 and params.s_exp == 3.0


@pytest.mark.parametrize("tag, w", [
    ("NWE", TAILED), ("NBE", TAILED), ("NWE", WSpec(1.0, Saturating(0.0, 0.5))),
    ("NBE", WSpec(1.0, Saturating(0.0, 0.5))), ("NLS", WSpec(1.0, Saturating(0.0, 0.5))),
    ("NWE", WSpec(1.0, SinglePower(0.0, 4.0))),
], ids=["NWE-tailed", "NBE-tailed", "NWE-saturating", "NBE-saturating", "NLS-saturating",
        "NWE-free"])
def test_a_nonnegative_w_gives_a_zero_without_probes(no_probes, tag, w):
    params = choose_coercivity_params(ModelSpec(tag, WAVE_GRID, w), seed=6)
    assert (params.a, params.s_exp) == (0.0, 1.0)
    assert np.copysign(1.0, params.a) == 1.0


@pytest.mark.parametrize("w", [DIPPING, DEEP_DIP, TANGENT, FOCUSING],
                         ids=["dipping", "deep-dip", "tangent", "focusing"])
def test_an_undecided_w_still_takes_the_probe_supremum(monkeypatch, w):
    drawn = []
    chunks = functionals.probe_chunks

    def counting(*args, **kwargs):
        drawn.append(1)
        return chunks(*args, **kwargs)

    monkeypatch.setattr(functionals, "probe_chunks", counting)
    spec = ModelSpec("NWE", WAVE_GRID, w)
    params = choose_coercivity_params(spec, seed=6)
    assert drawn and params.s_exp == 1.0
    monkeypatch.setattr(functionals, "probe_chunks", chunks)
    assert params.a == _older_rule(spec, 6)
    if w in (DEEP_DIP, FOCUSING):
        assert params.a > 0


def test_the_sampled_checks_catch_a_dip_the_probe_supremum_misses():
    """The random probes give the velocity-like component the field's rms,
    whose kinetic term outweighs the shallow dip, so the supremum reads 0;
    EC-3i and W-i still fail the gate."""
    spec = ModelSpec("NWE", WAVE_GRID, DIPPING)
    params = choose_coercivity_params(spec, seed=6)
    assert params.a == 0.0
    cert = audit(spec, params, seed=6)
    assert cert.results["EC-3i"].verdict == "fail"
    assert cert.results["W-conditions"].verdict == "fail"
    assert not gate_passed(cert)


def test_the_tailed_minimum_of_w_over_s_squared():
    s = np.sqrt(np.array([2.0, 2.5, 3.0]))
    ratio = w_value(TAILED, s) / s**2
    assert ratio[1] == pytest.approx(0.1875, rel=1e-14)
    assert ratio[1] < min(ratio[0], ratio[2])
    s_dip = np.sqrt(7.5)
    assert w_value(DIPPING, s_dip) / 7.5 == pytest.approx(-0.4375, rel=1e-14)


@pytest.mark.parametrize("w, nonnegative", FAMILIES)
def test_the_closed_form_agrees_with_the_sampled_w_i_verdict(w, nonnegative):
    assert w_nonnegative(w) is nonnegative
    assert _positivity_verdict(w, strict=False).passed is nonnegative


def test_a_tangent_minimum_is_left_to_sampling():
    assert not w_nonnegative(TANGENT)
    assert _positivity_verdict(TANGENT, strict=False).passed
    beyond = WSpec(1.0, DoublePower(1.0, 4.0, 1e-300, 6.0))  # s0 past the float range
    assert not w_nonnegative(beyond)


def test_the_young_split_covers_the_sharp_sech_constant(tmp_path):
    """The sech ground state of mass c has E = c/2 - c^3/96, so E + a C^3 >= 0
    at every mass needs a >= 1/96."""
    out = tmp_path / "demo"
    assert cli_main(["demo", "--out", str(out), "--seed", "6", "--quiet"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    a = cert["params"]["a"]
    assert (a, cert["params"]["s_exp"]) == (choose_coercivity_params(
        ModelSpec("NLS", NLS_GRID, FOCUSING), seed=6).a, 3.0)
    assert a >= 1.0 / 96.0
    # the random scan's size budget: 2^17 points of 512 each
    assert cert["results"]["EC-3i"]["parameters"]["probes"] == 256
    # a sech of charge 30 on the grid (E + (0.9/96) C^3 = -13.1 there)
    spec = ModelSpec("NLS", NLS_GRID, FOCUSING)
    psi = (sech_profile(spec, 56.25, 20.0) + 0j,)
    c = float(charge_of(spec, psi))
    assert c == pytest.approx(30.0, rel=1e-3)
    assert float(energy_of(spec, psi)) + a * c**3 > 0.0
