import json
import os
import re
import time

import numpy as np
import pytest

from hylosolve import (DoublePower, FieldState, Grid, ModelSpec, Saturating,
                       SinglePower, WSpec, evolve)
from hylosolve import fileio
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
    assert _bitwise_equal(read_field(path), state)


def _header_and_body(path):
    """A field file's header (parsed) and its body bytes."""
    line, body = path.read_bytes().split(b"\n", 1)
    return json.loads(line), body


def _write_raw(path, header, body: bytes):
    path.write_bytes((json.dumps(header) + "\n").encode("utf-8") + body)
    return path


def test_field_read_rejects_mismatch(tmp_path):
    g = Grid((32,), (5.0,))
    path = tmp_path / "state.field"
    write_field(random_state("NLS", g, SplitMix64(9)), path)
    header, body = _header_and_body(path)
    # one complex sample (16 bytes) short
    with pytest.raises(ValueError, match="field body"):
        read_field(_write_raw(tmp_path / "short.field", header, body[:-16]))
    # a header n that disagrees with the body
    with pytest.raises(ValueError, match="field body"):
        read_field(_write_raw(tmp_path / "wrong.field", dict(header, n=[64]), body))


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
    header, body = _header_and_body(path)
    assert len(body) == 2 * 16 * 16
    # one trailing byte
    with pytest.raises(ValueError, match="field body"):
        read_field(_write_raw(tmp_path / "trailing.field", header, body + b"\0"))
    # the last sample of the last component missing
    with pytest.raises(ValueError, match="field body"):
        read_field(_write_raw(tmp_path / "missing.field", header, body[:-16]))


def _field_header(**changes):
    header = {"box_length": [40.0], "components": ["psi"], "dim": 1,
              "encoding": "float64-le", "model_tag": "NLS", "n": [16]}
    return dict(header, **changes)


MALFORMED_HEADERS = {
    "json-list": [1, 2],
    "n-not-a-list": _field_header(n=64),
    "box-length-null": _field_header(box_length=None),
    "dim-disagrees": _field_header(dim=2),
    "unknown-tag": _field_header(model_tag="KdV"),
    "components-not-a-list": _field_header(components="psi"),
    "n-entry-null": _field_header(n=[None]),
}


def _malformed_state(tmp_path, name):
    # the header is followed by a body of the right length for n = 16
    return _write_raw(tmp_path / f"{name}.field", MALFORMED_HEADERS[name], bytes(16 * 16))


def test_field_read_accepts_the_handwritten_header(tmp_path):
    path = _write_raw(tmp_path / "zero.field", _field_header(), bytes(16 * 16))
    assert read_field(path).psi.tobytes() == bytes(16 * 16)


@pytest.mark.parametrize("name", sorted(MALFORMED_HEADERS))
def test_field_read_rejects_malformed_header(tmp_path, name):
    with pytest.raises(ValueError):
        read_field(_malformed_state(tmp_path, name))


@pytest.mark.parametrize("name", sorted(MALFORMED_HEADERS))
def test_cli_evolve_malformed_state_header_exits_2(tmp_path, name):
    cfg = _small_config()
    cfg["model"]["n"] = [16]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "evo"
    code = cli_main(["evolve", "--config", str(cfg_path), "--out", str(out),
                     "--state", str(_malformed_state(tmp_path, name)), "--quiet"])
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["failure_stage"]) == ("config_error", "config")
    assert not (out / "trace.csv").exists()


def _write_text_field(state, path):
    """The text layout field files had before the float64 body: the header
    without an encoding key, then per grid point its index and 17-digit
    re/im columns."""
    header = {"box_length": list(state.grid.box_length), "components": ["psi"],
              "dim": 1, "model_tag": "NLS", "n": list(state.grid.n)}
    rows = [f"{i},{z.real:.17g},{z.imag:.17g}" for i, z in enumerate(state.psi)]
    path.write_text(json.dumps(header, sort_keys=True) + "\n" + "\n".join(rows) + "\n")
    return path


def test_text_field_file_is_refused_by_name(tmp_path):
    state = random_state("NLS", Grid((16,), (40.0,)), SplitMix64(13))
    path = _write_text_field(state, tmp_path / "old.field")
    with pytest.raises(ValueError, match="text field file from an earlier version"):
        read_field(path)
    cfg = _small_config()
    cfg["model"]["n"] = [16]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "evo"
    assert cli_main(["evolve", "--config", str(cfg_path), "--out", str(out),
                     "--state", str(path), "--quiet"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert "text field file from an earlier version" in manifest["error"]
    # README's conversion recipe: the value columns, a state, write_field
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    psi = table[:, 1] + 1j * table[:, 2]
    converted = tmp_path / "new.field"
    write_field(FieldState("NLS", state.grid, (psi,)), converted)
    assert read_field(converted).psi.tobytes() == state.psi.tobytes()


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


def test_packaged_schema_passes_its_metaschema():
    from jsonschema.validators import validator_for
    schema = fileio._schema()
    validator_for(schema).check_schema(schema)


def _bad_configs():
    """Five configs that fail the schema in different places."""
    configs = [json.loads(json.dumps(DEMO_CONFIG)) for _ in range(5)]
    configs[0]["model"]["tag"] = "QCD"
    del configs[1]["seed"]
    configs[2]["model"]["n"] = [8]
    configs[3]["model"]["w"]["family"]["p"] = 1.5
    configs[4]["evolve"] = {"T": 1.0, "dt": -0.1, "extra": 1}
    return configs


def test_config_errors_are_the_messages_of_jsonschema_validate(tmp_path):
    import jsonschema
    schema = fileio._schema()
    for i, cfg in enumerate(_bad_configs()):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(instance=cfg, schema=schema)
        with pytest.raises(ConfigError) as got:
            load_config(path)
        assert str(got.value) == f"config failed schema validation: {want.value.message}"


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
    assert manifest["stages"] == ["audit"]
    cert = json.loads((out / "certificate.json").read_text())
    assert manifest["certificate_summary"].keys() == cert["results"].keys()


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


def test_cli_caps_an_oversized_config_error(tmp_path, capsys):
    cfg = _small_config()
    cfg["model"]["box_length"] = [40.0] * 5000
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as full:
        load_config(bad)
    message = str(full.value)
    assert len(message) > 20000 and message.endswith("is too long")
    out = tmp_path / "out"
    assert cli_main(["check", "--config", str(bad), "--out", str(out), "--quiet"]) == 2
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error == (f"{message[:250]} ... {message[-250:]} ({len(message)} characters)")
    assert capsys.readouterr().err == f"config error: {error}\n"


def _unreadable_config(tmp_path, kind):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"seed": "\xff"}')
    else:
        path.write_text("[" * 200_000 + "]" * 200_000)
    return path


@pytest.mark.parametrize("kind,error", [
    pytest.param("directory", "cannot read config file", id="directory"),
    pytest.param("not-utf8", "config is not UTF-8 text", id="not-utf8"),
    pytest.param("nested-200000-deep", "config is not valid JSON: it is nested too deeply",
                 id="nested-200000-deep"),
])
def test_cli_unreadable_config_exits_2(tmp_path, kind, error):
    out = tmp_path / "out"
    code = cli_main(["check", "--config", str(_unreadable_config(tmp_path, kind)),
                     "--out", str(out), "--quiet"])
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["failure_stage"]) == ("config_error", "config")
    assert manifest["error"].startswith(error)
    assert set(os.listdir(out)) == {"manifest.json"}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e309"])
@pytest.mark.parametrize("command", ["minimize", "stability"])
def test_cli_non_finite_number_exits_2(tmp_path, command, literal):
    # json.loads reads each literal as a float that is not finite
    if command == "minimize":
        cfg = _small_config(minimize={"max_iters": 20000, "grad_tol": 0.125})
    else:
        cfg = _small_config(stability={"T": 0.5, "dt": 1e-2, "kappa": 0.125})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg).replace("0.125", literal))
    out = tmp_path / "out"
    code = cli_main([command, "--config", str(bad), "--out", str(out), "--quiet"])
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert manifest["failure_stage"] == "config"
    assert f"{literal} is not a finite number" in manifest["error"]
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


def test_cli_rejected_delta_records_its_diagnosis(tmp_path):
    cfg = _small_config()
    cfg["penalty"]["delta"] = 5.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 3
    detail = json.loads((out / "manifest.json").read_text())["failure_detail"]
    assert set(detail) == {"link", "delta", "seed_value", "lambda0"}
    assert (detail["link"], detail["delta"]) == (0, 5.0)
    assert not detail["seed_value"] < detail["lambda0"]


def test_cli_plain_value_error_is_not_a_numerical_failure(tmp_path, monkeypatch):
    # a programming error inside a handler propagates; it is not exit 3
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a diagnosis")

    monkeypatch.setattr("hylosolve.cli.cmd_check", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_config()))
    with pytest.raises(ValueError, match="a bug"):
        cli_main(["check", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                  "--quiet"])


def _nbe_phase_offset_config():
    cfg = _small_config(stability={"perturbations": [
        {"kind": "shift_and_phase", "z": [1], "theta": 0.5}]})
    cfg["model"] = {"tag": "NBE", "n": [128], "box_length": [40.0],
                    "w": {"m_sq": 1.0, "family": {"kind": "saturating", "alpha": 0.0,
                                                  "m_bar": 2.0}}}
    return cfg


def _wrong_shift_length_config():
    cfg = _small_config(stability={"perturbations": [{"kind": "shift_and_phase", "z": [1]}]})
    cfg["model"].update(n=[32, 32], box_length=[12.0, 12.0])
    cfg["model"]["w"]["family"]["p"] = 3.0
    return cfg


def _coarse_grid_config():
    cfg = _small_config()
    cfg["model"]["n"] = [16]
    return cfg


@pytest.mark.parametrize("command,cfg,state,code,status", [
    pytest.param("check", _coarse_grid_config(), None, 3, "numerical_failure",
                 id="coarse-grid-check"),
    pytest.param("stability", _nbe_phase_offset_config(), None, 2, "config_error",
                 id="nbe-phase-offset"),
    pytest.param("stability", _wrong_shift_length_config(), None, 2, "config_error",
                 id="shift-length"),
    pytest.param("evolve", _small_config(), "missing", 2, "config_error",
                 id="state-missing"),
    pytest.param("evolve", _small_config(), '{"model_tag": "NLS"}\n1,2\n', 2, "config_error",
                 id="state-malformed"),
])
def test_cli_input_errors_keep_the_exit_contract(tmp_path, command, cfg, state, code, status):
    """Inputs that reach a ValueError under a handler exit 2 (config-shaped)
    or 3 (a typed Inadmissible diagnosis), with a manifest."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out), "--quiet"]
    if state is not None:
        state_path = tmp_path / "state.field"
        if state != "missing":
            state_path.write_text(state)
        argv += ["--state", str(state_path)]
    assert cli_main(argv) == code
    assert json.loads((out / "manifest.json").read_text())["status"] == status


@pytest.mark.parametrize("command", ["evolve", "stability"])
def test_cli_span_of_no_whole_step_count_exits_2_before_the_gate(tmp_path, monkeypatch,
                                                                command):
    # T = 0.25 with dt = 0.1 would run 2 steps, to t = 0.2
    import hylosolve.cli as climod

    def no_gate_work(*args, **kwargs):
        raise AssertionError("the span is checked before any gate work")

    for name in ("audit", "choose_coercivity_params"):
        monkeypatch.setattr(climod, name, no_gate_work)
    cfg = _small_config()
    cfg[command] = {"T": 0.25, "dt": 0.1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["failure_stage"]) == ("config_error", "config")
    assert "not a whole number of steps" in manifest["error"]
    assert manifest["stages"] == [] and manifest["outputs"] == {}


def test_cli_unconverged_link_is_diagnosed(tmp_path):
    cfg = _small_config(minimize={"max_iters": 3, "grad_tol": 1e-7})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_failure"
    assert manifest["failure_stage"] == "minimize"
    detail = manifest["failure_detail"]
    assert set(detail) == {"link", "delta", "phase", "iters", "grad_norm",
                           "last_step", "kkt_residual"}
    assert (detail["link"], detail["delta"], detail["phase"]) == (0, 0.03, "free")
    assert detail["iters"] == 3
    # the failing link's partial descent log: header, the start and 3 steps
    rows = (out / "descent_00.csv").read_text().splitlines()
    assert rows[0] == "iteration,objective,step,grad_norm"
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    assert float(rows[-1].split(",")[2]) == detail["last_step"]
    assert "descent_00.csv" in manifest["outputs"]


def test_cli_minimize_and_evolve(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_config()))
    out = tmp_path / "min"
    code = cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0
    data = json.loads((out / "minimize.json").read_text())
    assert data["results"][0]["converged"]
    assert data["results"][0]["free_iters"] > 0
    assert data["results"][0]["seed"] == "probe"
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


@pytest.mark.parametrize("command", ["check", "minimize", "stability", "demo", "evolve"])
@pytest.mark.parametrize("n", [16, 32])
def test_cli_coarse_grid_keeps_its_diagnosis(tmp_path, command, n):
    """The Gaussian probe searches need widths between four grid spacings
    and L/8; a grid that cannot hold them is diagnosed before any search
    (evolve without --state seeds from the penalized probe search)."""
    cfg = _coarse_grid_config()
    cfg["model"]["n"] = [n]
    cfg["stability"] = {"T": 0.5, "dt": 1e-2, "record_every": 10}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_failure"
    assert manifest["error"] == "grid too coarse for the probe widths (sigma > L/8 needed)"


def test_cli_nbe_saturating_gate_fails_without_a_witness_below_lambda0(tmp_path):
    # a plain Gaussian does not undercut the NBE threshold sqrt(2 m): the
    # hylomorphy gate fails instead of admitting a descent that vanishes
    cfg = _small_config()
    cfg["model"] = {"tag": "NBE", "n": [256], "box_length": [40.0],
                    "w": {"m_sq": 1.0, "family": {"kind": "saturating", "alpha": 0.0,
                                                  "m_bar": 2.0}}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["minimize", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 4
    assert json.loads((out / "manifest.json").read_text())["status"] == "gate_failed"
    hh = json.loads((out / "certificate.json").read_text())["results"]["hh"]
    assert hh["verdict"] == "fail"
    assert hh["parameters"]["lambda0_estimate"] == np.sqrt(2.0)
    assert hh["parameters"]["best_ratio"] == pytest.approx(1.717, abs=1e-3)
    assert not (out / "minimize.json").exists()


def test_cli_lambda0_needs_no_probe_widths(tmp_path):
    # the closed form reads no probe: a coarse grid still has its threshold
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_coarse_grid_config()))
    out = tmp_path / "out"
    assert cli_main(["lambda0", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "lambda0.json").read_text())["lambda0_estimate"] == 0.5


def test_cli_requires_config_for_non_demo(tmp_path):
    code = cli_main(["lambda0", "--out", str(tmp_path / "x"), "--quiet"])
    assert code == 2
    # no config was loaded, so no seed was resolved
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert "seed" not in manifest


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2^64"])
def test_cli_seed_outside_64_bits_is_a_config_error(tmp_path, seed):
    # the streams would run seed mod 2^64 under the seed the manifest names
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_config()))
    out = tmp_path / "out"
    code = cli_main(["lambda0", "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(seed), "--quiet"])
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert manifest["failure_stage"] == "config"
    assert "seed" not in manifest
    assert set(os.listdir(out)) == {"manifest.json"}


def test_cli_config_seed_of_2_to_the_64_is_a_config_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_config(seed=2**64)))
    out = tmp_path / "out"
    code = cli_main(["lambda0", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 2
    assert json.loads((out / "manifest.json").read_text())["status"] == "config_error"
    cfg = _small_config(stability={"perturbations": [
        {"kind": "additive_noise", "eps": 0.01, "seed": 2**64}]})
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError):
        load_config(cfg_path)


def test_cli_largest_64_bit_seed_runs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_config()))
    out = tmp_path / "out"
    code = cli_main(["lambda0", "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(2**64 - 1), "--quiet"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["seed"] == 2**64 - 1


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


def _stability_config():
    cfg = _small_config()
    cfg["stability"] = {
        "T": 0.5, "dt": 1e-2, "record_every": 10,
        "perturbations": [{"kind": "additive_noise", "eps": 0.01, "band_limit": 6, "seed": 3},
                          {"kind": "amplitude_scale", "eps": 0.02}],
    }
    return cfg


def _as_float(cfg, path):
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = float(block[path[-1]])
    return cfg


@pytest.mark.parametrize("command, path", [
    ("evolve", ("evolve", "record_every")),
    ("stability", ("stability", "record_every")),
    ("stability", ("stability", "perturbations", 0, "seed")),
], ids=["evolve.record_every", "stability.record_every", "perturbation.seed"])
def test_cli_integral_float_in_an_integer_slot_runs_as_the_integer(tmp_path, command, path):
    # the schema admits 5.0 where it asks for an integer
    base = _stability_config()
    outputs = []
    for name, cfg in (("int", base), ("float", _as_float(json.loads(json.dumps(base)), path))):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                        if f.name != "manifest.json"})
    assert outputs[0] == outputs[1] and outputs[0]


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


def test_cli_sweep_records_the_stage_a_point_failed_in(tmp_path):
    # 16 points on L = 40 are too coarse for the probe widths: the point
    # fails inside the gate, not in the minimization it never reaches
    cfg = _small_config()
    cfg["model"]["n"] = [16]
    cfg["sweep"] = {"w_params": {"b": [1.0]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    (run,) = json.loads((out / "manifest.json").read_text())["sweep_runs"].values()
    assert run["status"].startswith("failed: grid too coarse for the probe widths")
    point = json.loads((out / "run_000" / "manifest.json").read_text())
    assert point["stages"] == ["audit-gate"]
    assert point["failure_stage"] == "audit-gate"


def test_cli_sweep_runs_valid_points_of_a_supercritical_base(tmp_path, monkeypatch):
    # the base power p = 8 is supercritical in 1-d; every sweep point is not
    import hylosolve.cli as climod
    calls = []
    choose = climod.choose_coercivity_params

    def counting_choose(*args, **kwargs):
        calls.append(1)
        return choose(*args, **kwargs)

    monkeypatch.setattr(climod, "choose_coercivity_params", counting_choose)
    cfg = _small_config()
    cfg["model"]["w"]["family"]["p"] = 8.0
    cfg["penalty"]["delta"] = [0.03, 0.025]
    cfg["sweep"] = {"w_params": {"p": [4.0, 3.0]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    runs = json.loads((out / "manifest.json").read_text())["sweep_runs"]
    assert [r["status"] for r in runs.values()] == ["ok"] * 4
    assert len(calls) == 2  # once per W combination, not per (W, delta) point
    # each point's outputs are those of a plain minimize run at that point
    for name, run in runs.items():
        point = _small_config()
        point["model"]["w"]["family"]["p"] = run["label"]["p"]
        point["penalty"]["delta"] = run["label"]["delta"]
        point_path = tmp_path / f"{name}.json"
        point_path.write_text(json.dumps(point))
        solo = tmp_path / f"solo-{name}"
        assert cli_main(["minimize", "--config", str(point_path), "--out", str(solo),
                         "--quiet"]) == 0
        outputs = [json.loads((d / "manifest.json").read_text())["outputs"]
                   for d in (out / name, solo)]
        assert outputs[0] and outputs[0] == outputs[1]
