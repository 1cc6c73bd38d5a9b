import json
import os
import re
import time

import numpy as np
import pytest

from hylosolve import (DoublePower, FieldState, Grid, ModelSpec, Saturating,
                       SinglePower, WSpec, evolve)
from hylosolve.cli import DEMO_CONFIG, cli_main
from hylosolve.fileio import (ConfigError, load_config, read_field,
                              wspec_from_json, wspec_to_json, write_field,
                              write_trace_csv, TRACE_HEADER)
from hylosolve.functionals import gaussian_state
from hylosolve.grid import random_state
from hylosolve.rng import SplitMix64


def _bitwise_equal(a: FieldState, b: FieldState) -> bool:
    return (a.model_tag == b.model_tag and a.grid == b.grid
            and all(np.array_equal(x, y) for x, y in zip(a.components, b.components)))


def test_field_roundtrip_zero(tmp_path):
    g = Grid((32,), (5.0,))
    state = FieldState.zero("NLS", g)
    path = tmp_path / "zero.field"
    write_field(state, path)
    assert _bitwise_equal(read_field(path), state)


@pytest.mark.parametrize("tag", ["NLS", "NWE", "NBE"])
def test_field_roundtrip_random(tag, tmp_path):
    g = Grid((32, 16), (5.0, 3.0)) if tag != "NBE" else Grid((64,), (7.0,))
    state = random_state(tag, g, SplitMix64(8), amplitude=1.3, band_limit=5)
    path = tmp_path / f"{tag}.field"
    write_field(state, path)
    # 17 significant digits round-trip doubles exactly
    assert _bitwise_equal(read_field(path), state)


def test_field_read_rejects_mismatch(tmp_path):
    g = Grid((32,), (5.0,))
    state = random_state("NLS", g, SplitMix64(9))
    path = tmp_path / "state.field"
    write_field(state, path)
    lines = path.read_text().splitlines()
    truncated = tmp_path / "bad.field"
    truncated.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError):
        read_field(truncated)
    header = json.loads(lines[0])
    header["n"] = [64]
    wrong = tmp_path / "wrong.field"
    wrong.write_text(json.dumps(header) + "\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError):
        read_field(wrong)


def _bytes_equal(a: FieldState, b: FieldState) -> bool:
    return (a.model_tag == b.model_tag and a.grid == b.grid
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.components, b.components)))


@pytest.mark.parametrize("tag,grid", [
    ("NWE", Grid((32, 32, 32), (8.0, 8.0, 8.0))),
    ("NBE", Grid((128,), (20.0,))),
], ids=["nwe-32cubed", "nbe-1d"])
def test_field_roundtrip_bytes(tag, grid, tmp_path):
    state = random_state(tag, grid, SplitMix64(10), amplitude=0.9, band_limit=4)
    path = tmp_path / f"{tag}.field"
    write_field(state, path)
    assert _bytes_equal(read_field(path), state)


def test_field_read_rejects_bad_row_width_and_missing_row(tmp_path):
    g = Grid((16,), (5.0,))
    path = tmp_path / "state.field"
    write_field(random_state("NWE", g, SplitMix64(11)), path)
    lines = path.read_text().splitlines()
    short_row = tmp_path / "short_row.field"
    short_row.write_text("\n".join(lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:]) + "\n")
    with pytest.raises(ValueError):
        read_field(short_row)
    missing = tmp_path / "missing.field"
    missing.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        read_field(missing)


def test_trace_csv_schema(tmp_path):
    g = Grid((64,), (10.0,))
    spec = ModelSpec("NLS", g, WSpec(1.0, SinglePower(1.0, 4.0)))
    state = gaussian_state(spec, 0.5, 1.5)
    trace = evolve(spec, state, T=0.05, dt=1e-2, record_every=2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER == "t,E,C,V,sharp,xnorm,orbit_dist"
    row = lines[1].split(",")
    assert len(row) == 7
    assert row[3] == "" and row[6] == ""  # no reference attached
    assert float(row[1]) == trace.energy[0]
    with_ref = evolve(spec, state, T=0.05, dt=1e-2, record_every=2, reference=state)
    write_trace_csv(with_ref, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] != "" and row[6] != ""


@pytest.mark.parametrize("w", [
    WSpec(1.0, SinglePower(1.0, 4.0)),
    WSpec(0.5, DoublePower(1.0, 4.0, 0.3, 6.0)),
    WSpec(2.0, Saturating(0.5, 1.5)),
])
def test_wspec_json_roundtrip(w):
    assert wspec_from_json(wspec_to_json(w)) == w


def test_wspec_json_rejects_unknown():
    with pytest.raises(ConfigError):
        wspec_from_json({"m_sq": 1.0, "family": {"kind": "exotic"}})
    with pytest.raises(ConfigError):
        wspec_from_json({"m_sq": 1.0, "family": {"kind": "single_power", "b": 1.0}})


def test_load_config_validation(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(DEMO_CONFIG))
    cfg = load_config(good)
    assert cfg["model"]["tag"] == "NLS"
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad_json)
    bad_schema = tmp_path / "schema.json"
    wrong = json.loads(json.dumps(DEMO_CONFIG))
    wrong["model"]["tag"] = "QCD"
    bad_schema.write_text(json.dumps(wrong))
    with pytest.raises(ConfigError):
        load_config(bad_schema)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def _small_config(**overrides):
    cfg = {
        "model": {
            "tag": "NLS", "n": [256], "box_length": [40.0],
            "w": {"m_sq": 1.0, "family": {"kind": "single_power", "b": 1.0, "p": 4.0}},
        },
        "penalty": {"delta": 0.03, "a": "auto", "s_exp": "auto"},
        "minimize": {"max_iters": 20000, "grad_tol": 1e-7},
        "evolve": {"T": 0.5, "dt": 1e-2, "record_every": 5},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def test_cli_check_happy_path(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_config()))
    out = tmp_path / "out"
    code = cli_main(["check", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0
    assert (out / "certificate.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "certificate.json" in manifest["outputs"]
    assert manifest["tool_version"]


def _model_config(**model):
    cfg = _small_config()
    cfg["model"].update(model)
    return json.dumps(cfg)


@pytest.mark.parametrize("text", [
    pytest.param("{broken", id="broken-json"),
    # schema-valid, rejected by Grid / ModelSpec
    pytest.param(_model_config(n=[100]), id="n-not-pow2"),
    pytest.param(_model_config(n=[64, 64]), id="n-box-length-mismatch"),
    pytest.param(_model_config(tag="NBE", n=[64, 64], box_length=[20.0, 20.0]), id="nbe-2d"),
])
def test_cli_invalid_config_exits_2(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    code = cli_main(["check", "--config", str(bad), "--out", str(out), "--quiet"])
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert manifest["failure_stage"] == "config"
    # no outputs beyond the manifest
    assert set(os.listdir(out)) == {"manifest.json"}


def test_cli_gate_failure_exits_4(tmp_path):
    cfg = _small_config()
    cfg["model"]["w"]["family"]["b"] = 0.0  # pure quadratic: hylomorphy fails
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate_failed"
    assert (out / "certificate.json").exists()


def test_cli_numerical_failure_exits_3(tmp_path):
    cfg = _small_config()
    cfg["penalty"]["delta"] = 5.0  # far above the admissible range
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_failure"
    assert "failure_stage" in manifest


def test_cli_minimize_and_evolve(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_config()))
    out = tmp_path / "min"
    code = cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0
    data = json.loads((out / "minimize.json").read_text())
    assert data["results"][0]["converged"]
    assert (out / "state_00.field").exists()
    state = read_field(out / "state_00.field")
    assert state.model_tag == "NLS"
    out2 = tmp_path / "evo"
    code = cli_main(["evolve", "--config", str(cfg_path), "--out", str(out2),
                     "--state", str(out / "state_00.field"), "--quiet"])
    assert code == 0
    lines = (out2 / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) > 2


@pytest.mark.parametrize("tag,n", [("NLS", 128), ("NWE", 64)],
                         ids=["grid-mismatch", "tag-mismatch"])
def test_cli_evolve_state_mismatch_exits_2(tmp_path, tag, n):
    # the config describes NLS on 64 points
    cfg = _small_config()
    cfg["model"]["n"] = [64]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    state_path = tmp_path / "state.field"
    write_field(random_state(tag, Grid((n,), (40.0,)), SplitMix64(4)), state_path)
    out = tmp_path / "evo"
    code = cli_main(["evolve", "--config", str(cfg_path), "--out", str(out),
                     "--state", str(state_path), "--quiet"])
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert manifest["failure_stage"] == "config"
    assert not (out / "trace.csv").exists()


def test_cli_requires_config_for_non_demo(tmp_path):
    code = cli_main(["lambda0", "--out", str(tmp_path / "x"), "--quiet"])
    assert code == 2


def test_cli_stability_subcommand(tmp_path):
    cfg = _small_config()
    cfg["stability"] = {
        "T": 0.5, "dt": 1e-2, "record_every": 10,
        "perturbations": [{"kind": "additive_noise", "eps": 0.01, "band_limit": 6},
                          {"kind": "amplitude_scale", "eps": 0.02}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "stab"
    code = cli_main(["stability", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0
    data = json.loads((out / "stability.json").read_text())
    assert len(data["rows"]) == 2
    assert "empirical" in data["note"]
    assert (out / "stability_trace_00.csv").exists()
    assert (out / "stability_trace_01.csv").exists()


@pytest.mark.parametrize("delta,status", [(0.03, "ok"), (5.0, "numerical_failure")])
def test_cli_manifest_stage_seconds(tmp_path, delta, status):
    cfg = _small_config()
    cfg["penalty"]["delta"] = delta
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "min"
    t0 = time.perf_counter()
    cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    wall = time.perf_counter() - t0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == status
    stamps = manifest["stage_seconds"]
    assert len(stamps) == len(manifest["stages"]) >= 2
    assert all(re.fullmatch(r"\d\.\d{6}e[+-]\d\d", s) for s in stamps)
    seconds = [float(s) for s in stamps]
    assert all(s >= 0.0 for s in seconds)
    assert sum(seconds) <= wall


def test_cli_demo_and_out_dir_from_config(tmp_path):
    out = tmp_path / "demo-out"
    code = cli_main(["demo", "--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "demo.json").read_text())
    assert summary["profile_rel_l2_error"] <= 1e-3
    lines = (out / "soliton_profile.csv").read_text().splitlines()
    assert lines[0] == "x,psi_re,psi_im,abs_psi,profile_fit"
    assert len(lines) == 513
    # out_dir from the config is honored when --out is absent
    cfg = _small_config(out_dir=str(tmp_path / "from-config"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["lambda0", "--config", str(cfg_path), "--quiet"])
    assert code == 0
    assert (tmp_path / "from-config" / "lambda0.json").exists()


def test_cli_outputs_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_config()))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["minimize", "--config", str(cfg_path),
                         "--out", str(out), "--quiet"]) == 0
        outs.append((out / "state_00.field").read_bytes())
    assert outs[0] == outs[1]


def test_hylomorphy_report_serializes(nls_acceptance_spec, nls_params):
    from hylosolve import hylomorphy_check
    from hylosolve.fileio import hylomorphy_to_json
    report = hylomorphy_check(nls_acceptance_spec, nls_params)
    data = hylomorphy_to_json(report)
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text)["verdict"] is True


def test_cli_sweep(tmp_path):
    cfg = _small_config()
    cfg["penalty"]["delta"] = [0.03, 0.025]
    cfg["sweep"] = {"w_params": {"b": [1.0, 0.0]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    runs = manifest["sweep_runs"]
    assert len(runs) == 4
    statuses = {r["status"] for r in runs.values()}
    # focusing points complete; the quadratic points stop at the gate
    assert "ok" in statuses and "gate_failed" in statuses
