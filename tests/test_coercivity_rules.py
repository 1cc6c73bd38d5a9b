"""Which rule sets the coercivity coefficient a of E + a|C|^s >= 0.

The NLS power families take the Young split of the interpolation
inequality and every other model a = 0, which is exact when W >= 0.  Where
W dips on NWE or NBE no coefficient exists: the still plateau at the dip
has C = 0 and E < 0, and EC-3i fails by it.  On the workload models the
rules give bit for bit the coefficient of the older rule, 2 max(k_young,
a_probe) on NLS and 2 a_probe elsewhere, whose random-probe supremum
a_probe never bound there; its bits are pinned below.
"""

import json

import numpy as np
import pytest

from hylosolve.checkers import audit, gate_passed
from hylosolve.cli import cli_main
from hylosolve.fileio import wspec_to_json
from hylosolve.functionals import choose_coercivity_params
from hylosolve.grid import Grid
from hylosolve.models import ModelSpec, charge_of, energy_of
from hylosolve.nonlinearity import (DoublePower, Saturating, SinglePower, WSpec,
                                    _positivity_verdict, _sample_grid, check_w_conditions,
                                    w_dip, w_value)

from helpers import sech_profile

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


@pytest.mark.parametrize("spec, a", [
    (ModelSpec("NLS", NLS_GRID, FOCUSING), float.fromhex("0x1.45f3129dd788fp-6")),
    (ModelSpec("NWE", WAVE_GRID, TAILED), 0.0)], ids=["NLS", "NWE"])
def test_a_is_the_older_rule_bit_for_bit_on_the_workload_models(spec, a):
    # the bits of the older rule's coefficient on the workload models
    got = choose_coercivity_params(spec).a
    assert got.hex() == a.hex()


@pytest.mark.parametrize("w", [FOCUSING, WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))],
                         ids=["single", "double"])
def test_nls_power_families_take_the_young_split_without_probes(w):
    params = choose_coercivity_params(ModelSpec("NLS", NLS_GRID, w))
    assert params.a > 0 and params.s_exp == 3.0


@pytest.mark.parametrize("tag, w", [
    ("NWE", TAILED), ("NBE", TAILED), ("NWE", WSpec(1.0, Saturating(0.0, 0.5))),
    ("NBE", WSpec(1.0, Saturating(0.0, 0.5))), ("NLS", WSpec(1.0, Saturating(0.0, 0.5))),
    ("NWE", WSpec(1.0, SinglePower(0.0, 4.0))),
], ids=["NWE-tailed", "NBE-tailed", "NWE-saturating", "NBE-saturating", "NLS-saturating",
        "NWE-free"])
def test_a_nonnegative_w_gives_a_zero_without_probes(tag, w):
    params = choose_coercivity_params(ModelSpec(tag, WAVE_GRID, w))
    assert (params.a, params.s_exp) == (0.0, 1.0)
    assert np.copysign(1.0, params.a) == 1.0


# the plateau at each dip: s0^2 at the minimum of W(s)/s^2 of the double
# powers (7.5 and 15), and s0 = 2 for the single power, where
# (b/p) s0^(p-2) = max(m^2, 1); W(s0), and E = 40 W(s0) on the wave grid
DIPS = {"dipping": (DIPPING, 7.5, -3.28125, -131.25),
        "deep-dip": (DEEP_DIP, 15.0, -48.75, -1950.0),
        "focusing": (FOCUSING, 4.0, -2.0, -80.0)}


@pytest.mark.parametrize("tag", ["NWE", "NBE"])
@pytest.mark.parametrize("dip", DIPS)
def test_a_dipping_w_fails_ec3i_by_its_plateau(tag, dip):
    w, s0_sq, w_s0, e = DIPS[dip]
    spec = ModelSpec(tag, WAVE_GRID, w)
    params = choose_coercivity_params(spec)
    assert (params.a, params.s_exp) == (0.0, 1.0)
    s0 = w_dip(w)
    assert s0**2 == pytest.approx(s0_sq, rel=1e-14)
    assert w_value(w, s0) == pytest.approx(w_s0, rel=1e-14)
    cert = audit(spec, params, budget=2000)
    result = cert.results["EC-3i"]
    assert result.verdict == "fail"
    assert result.counterexample == {"source": "plateau", "s0": s0,
                                     "W": float(w_value(w, s0)),
                                     "E": 40.0 * float(w_value(w, s0)), "C": 0.0}
    assert result.counterexample["E"] == pytest.approx(e, rel=1e-14)
    assert result.parameters["min_bulk"] <= result.counterexample["E"]
    assert cert.results["W-conditions"].verdict == "fail"
    assert not gate_passed(cert)


def test_a_tangent_minimum_takes_a_zero_and_no_plateau():
    assert w_dip(TANGENT) is None
    assert _positivity_verdict(TANGENT, strict=False).passed
    for tag in ("NWE", "NBE"):
        params = choose_coercivity_params(ModelSpec(tag, WAVE_GRID, TANGENT))
        assert (params.a, params.s_exp) == (0.0, 1.0)


def test_the_3d_gate_fails_a_dipping_wave_by_its_plateau():
    """On the 64^3 evolve grid the sweep and the descent pass the dipping W
    at a = 0: the plateau fails the gate."""
    spec = ModelSpec("NWE", Grid((64, 64, 64), (16.0, 16.0, 16.0)), DIPPING)
    cert = audit(spec, budget=2000)
    result = cert.results["EC-3i"]
    assert cert.params["a"] == 0.0
    assert result.verdict == "fail" and result.counterexample["source"] == "plateau"
    assert result.counterexample["E"] == pytest.approx(16.0**3 * -3.28125, rel=1e-14)
    assert min(bulk for _, bulk in result.parameters["width_sweep"]) > 0.0
    assert result.parameters["family_descent"]["bulk"] > 0.0
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
    s0 = w_dip(w)
    assert (s0 is None) is nonnegative
    if s0 is not None:
        assert w_value(w, s0) < 0.0
    assert _positivity_verdict(w, strict=False).passed is nonnegative
    # the sample grid sees each of these dips as well
    assert bool(np.all(w_value(w, _sample_grid()) >= 0.0)) is nonnegative


@pytest.mark.parametrize("theorem, cid", [("NWE", "W-i-positivity"),
                                          ("NBE", "W-i-positivity-floor")])
def test_w_i_fails_a_dip_beyond_the_sample_grid(theorem, cid):
    # the sample grid ends at s = 1e3; W dips from s = 2e4 on, where
    # (b/p) s^2 = 1, and W(2e4) = 2e8 - 4e8
    w = WSpec(1.0, SinglePower(1e-8, 4.0))
    assert np.all(w_value(w, _sample_grid()) >= 0.0)
    verdict = check_w_conditions(w, theorem).conditions[cid]
    assert not verdict.passed
    assert (verdict.witness["s"], verdict.witness["W"]) == (2e4, -2e8)
    if theorem == "NWE":
        assert (verdict.kind, verdict.detail) == ("analytic", "W dips below zero")


def test_a_dip_beyond_the_float_range_takes_the_single_power_point():
    # the critical point 8.7e149 has a non-finite W: its tail overflows
    beyond = WSpec(1.0, DoublePower(1.0, 4.0, 1e-300, 6.0))
    assert w_dip(beyond) == 2.0
    assert w_value(beyond, 2.0) == -2.0


@pytest.mark.parametrize("fam", [SinglePower(4e-308, 4.0), SinglePower(1e-300, 2.5)],
                         ids=["w-minus-inf", "point-overflows"])
def test_no_dip_is_named_outside_the_float_range(fam):
    # the dip point 1e154 gives W = -inf (its power overflows), and
    # (2.5/1e-300)^2 is itself beyond the float range
    assert w_dip(WSpec(1.0, fam)) is None


def test_the_young_split_covers_the_sharp_sech_constant(tmp_path):
    """The sech ground state of mass c has E = c/2 - c^3/96, so E + a C^3 >= 0
    at every mass needs a >= 1/96."""
    out = tmp_path / "demo"
    assert cli_main(["demo", "--out", str(out), "--seed", "6", "--quiet"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    a = cert["params"]["a"]
    assert (a, cert["params"]["s_exp"]) == (choose_coercivity_params(
        ModelSpec("NLS", NLS_GRID, FOCUSING)).a, 3.0)
    assert a >= 1.0 / 96.0
    # the width sweep and the family descent: no random scan
    assert set(cert["results"]["EC-3i"]["parameters"]) == {
        "min_bulk", "width_sweep", "family_descent"}
    # a sech of charge 30 on the grid (E + (0.9/96) C^3 = -13.1 there)
    spec = ModelSpec("NLS", NLS_GRID, FOCUSING)
    psi = (sech_profile(spec, 56.25, 20.0) + 0j,)
    c = float(charge_of(spec, psi))
    assert c == pytest.approx(30.0, rel=1e-3)
    assert float(energy_of(spec, psi)) + a * c**3 > 0.0


def _wave_config(tag, w):
    """The config of a run of W on the wave grid at delta 0.01, seed 6."""
    return {"model": {"tag": tag, "n": [256], "box_length": [40.0], "w": wspec_to_json(w)},
            "penalty": {"delta": 0.01}, "seed": 6}


@pytest.mark.parametrize("tag", ["NWE", "NBE"])
@pytest.mark.parametrize("dip", DIPS)
def test_minimize_on_a_dipping_w_exits_by_the_gate(tmp_path, tag, dip):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_wave_config(tag, DIPS[dip][0])))
    out = tmp_path / "out"
    assert cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 4
    assert json.loads((out / "manifest.json").read_text())["status"] == "gate_failed"
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["params"]["a"] == 0.0
    ec3i = cert["results"]["EC-3i"]
    assert ec3i["verdict"] == "fail"
    assert ec3i["counterexample"]["source"] == "plateau"
    assert ec3i["counterexample"]["E"] == pytest.approx(DIPS[dip][3], rel=1e-14)


def test_a_sweep_across_the_tangent_tail_draws_no_coercivity_probe(tmp_path):
    # c = 0.1 dips, c = 0.1875 is the tangent minimum, c = 0.3 the workload's W
    cfg = _wave_config("NWE", TAILED)
    cfg["sweep"] = {"w_params": {"c": [0.1, 0.1875, 0.3]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    runs = json.loads((out / "manifest.json").read_text())["sweep_runs"]
    assert [r["status"] for r in runs.values()] == ["gate_failed", "ok", "ok"]
    for name in runs:
        cert = json.loads((out / name / "certificate.json").read_text())
        assert cert["params"]["a"] == 0.0
