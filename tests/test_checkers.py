import json

import pytest

from hylosolve import (Grid, ModelSpec, PenaltyParams, SinglePower, WSpec,
                       audit, gate_passed, nash_check)
from hylosolve.checkers import GATE_IDS
from hylosolve.fileio import certificate_to_json

GRID = Grid((256,), (40.0,))
FOCUSING = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 4.0)))


@pytest.fixture(scope="module")
def focusing_cert():
    return audit(FOCUSING, budget=400, seed=1)


def test_focusing_model_passes_gate(focusing_cert):
    for cid in GATE_IDS:
        assert focusing_cert.results[cid].verdict == "pass", cid
    assert focusing_cert.results["W-conditions"].verdict == "pass"
    assert focusing_cert.results["Nash"].verdict == "pass"
    assert gate_passed(focusing_cert)


def test_every_verdict_has_evidence(focusing_cert):
    for cid, res in focusing_cert.results.items():
        assert res.kind in ("analytic", "sampled", "probe-family")
        assert isinstance(res.parameters, dict) and res.parameters
        if res.verdict == "fail":
            assert res.counterexample


def test_supercritical_fails_coercivity_with_width_sweep():
    spec = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 8.0)))
    cert = audit(spec, budget=400, seed=1)
    ec3 = cert.results["EC-3i"]
    assert ec3.verdict == "fail"
    assert ec3.counterexample["source"] == "width-sweep"
    sweep = ec3.counterexample["sweep"]
    # narrowing widths drive the bulk below any floor: decreasing trend
    vals = [v for _, v in sweep]
    assert vals[-1] < -1.0
    assert vals[-1] < vals[0]
    assert not gate_passed(cert)
    assert cert.params["source"].startswith("fallback")


def test_quadratic_model_fails_hylomorphy_only():
    spec = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(0.0, 4.0)))
    cert = audit(spec, budget=300, seed=2)
    assert cert.results["hh"].verdict == "fail"
    assert cert.results["EC-3i"].verdict == "pass"
    assert not gate_passed(cert)


def test_zero_budget_skips_everything():
    cert = audit(FOCUSING, budget=0, seed=1)
    assert all(r.verdict == "skipped" for r in cert.results.values())
    assert not gate_passed(cert)


def test_certificate_reproducible(focusing_cert):
    again = audit(FOCUSING, budget=400, seed=1)
    a = json.dumps(certificate_to_json(focusing_cert), sort_keys=True)
    b = json.dumps(certificate_to_json(again), sort_keys=True)
    assert a == b


def test_explicit_params_recorded():
    params = PenaltyParams(delta=0.05, a=0.1, s_exp=3.0)
    cert = audit(FOCUSING, params, budget=100, seed=3)
    assert cert.params["a"] == 0.1
    assert cert.params["delta"] == 0.05


def test_nash_entry_reads_the_gaussian_constant(focusing_cert):
    nash = focusing_cert.results["Nash"]
    assert (nash.verdict, nash.kind, nash.counterexample) == ("pass", "probe-family", None)
    assert nash.parameters == {"b_emp": nash_check(GRID, 4.0),
                               "note": "Gaussian-family lower bound of the sharp constant"}


def test_hh_records_witness_and_window_bounds(focusing_cert):
    params = focusing_cert.results["hh"].parameters
    assert set(params["witness"]) == {"amplitude", "width"}
    assert set(params["on_window_bound"]) <= {"amplitude_lower", "amplitude_upper",
                                              "width_lower", "width_upper"}
