"""The CLI's output path: every file a run writes is registered in its
manifest, the manifest records the seed and (for a sweep point) the config
that ran, and cli.py writes nothing except through `_Run.write` and
`_Run.finish`."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from hylosolve import fileio
from hylosolve.cli import cli_main

CLI = Path(__file__).resolve().parents[1] / "src" / "hylosolve" / "cli.py"


def _config(**overrides):
    cfg = {
        "model": {
            "tag": "NLS", "n": [256], "box_length": [40.0],
            "w": {"m_sq": 1.0, "family": {"kind": "single_power", "b": 1.0, "p": 4.0}},
        },
        "penalty": {"delta": 0.03, "a": "auto", "s_exp": "auto"},
        "minimize": {"max_iters": 20000, "grad_tol": 1e-7},
        "evolve": {"T": 0.2, "dt": 1e-2, "record_every": 5},
        "stability": {"T": 0.2, "dt": 1e-2, "record_every": 10,
                      "perturbations": [{"kind": "additive_noise", "eps": 0.01},
                                        {"kind": "amplitude_scale", "eps": 0.02}]},
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


# name -> (command, config overrides, extra argv, expected exit code)
RUNS = {
    "check": ("check", {}, [], 0),
    "lambda0": ("lambda0", {}, [], 0),
    "minimize": ("minimize", {}, [], 0),
    "minimize-failing-link": ("minimize", {"minimize": {"max_iters": 3, "grad_tol": 1e-7}},
                              [], 3),
    "evolve": ("evolve", {}, [], 0),
    "evolve-seed-5": ("evolve", {}, ["--seed", "5"], 0),
    "evolve-config-seed-5": ("evolve", {"seed": 5}, [], 0),
    "stability": ("stability", {}, [], 0),
    "demo": ("demo", {}, [], 0),
    "sweep": ("sweep", {"penalty": {"delta": [0.03, 0.025], "a": "auto", "s_exp": "auto"},
                        "sweep": {"w_params": {"b": [2.0]}}}, [], 0),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> output directory of one run of each entry of RUNS."""
    root = tmp_path_factory.mktemp("cli-runs")
    out = {}
    for name, (command, overrides, extra, code) in RUNS.items():
        cfg_path = root / f"{name}.json"
        cfg_path.write_text(json.dumps(_config(**overrides)))
        out[name] = root / name
        argv = [command, "--config", str(cfg_path), "--out", str(out[name]), "--quiet"]
        assert cli_main(argv + extra) == code, name
    return out


def _registered_manifest(out: Path) -> dict:
    """The run's manifest, after checking that its outputs are exactly the
    files beside it, each with its sha256."""
    manifest = json.loads((out / "manifest.json").read_text())
    files = {p.name for p in out.iterdir() if p.is_file()} - {"manifest.json"}
    assert files == set(manifest["outputs"])
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    return manifest


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_written_file_is_registered(runs, name):
    manifest = _registered_manifest(runs[name])
    assert manifest["outputs"] or name == "sweep"
    for point in sorted(runs[name].glob("run_*")):
        assert _registered_manifest(point)["outputs"]


def test_a_failing_link_registers_its_partial_descent_log(runs):
    manifest = _registered_manifest(runs["minimize-failing-link"])
    assert manifest["status"] == "numerical_failure"
    assert set(manifest["outputs"]) == {"certificate.json", "descent_00.csv"}


def test_the_manifest_records_the_seed_that_ran(runs):
    def manifest(name):
        return json.loads((runs[name] / "manifest.json").read_text())

    assert (manifest("evolve")["seed"], manifest("evolve")["config"]["seed"]) == (11, 11)
    overridden = manifest("evolve-seed-5")
    assert (overridden["seed"], overridden["config"]["seed"]) == (5, 11)
    # --seed 5 seeds the probe the run evolves exactly as a config seed of 5
    traces = [(runs[n] / "trace.csv").read_bytes() for n in ("evolve-seed-5",
                                                              "evolve-config-seed-5")]
    assert traces[0] == traces[1]
    for name in RUNS:
        assert manifest(name)["seed"] == (5 if name.endswith("seed-5") else 11)
        # the audit certificate records the seed it drew its probes from
        cert = runs[name] / "certificate.json"
        if cert.exists():
            assert json.loads(cert.read_text())["seed"] == manifest(name)["seed"]
    for point in runs["sweep"].glob("run_*"):
        assert json.loads((point / "manifest.json").read_text())["seed"] == 11


def test_a_sweep_point_echoes_the_config_it_ran(runs):
    top = json.loads((runs["sweep"] / "manifest.json").read_text())
    assert top["config"]["model"]["w"]["family"]["b"] == 1.0
    assert [r["status"] for r in top["sweep_runs"].values()] == ["ok", "ok"]
    for name, run in top["sweep_runs"].items():
        point = json.loads((runs["sweep"] / name / "manifest.json").read_text())
        assert point["config"]["sweep_point"] == run["label"]
        assert point["config"]["model"]["w"]["family"]["b"] == run["label"]["b"] == 2.0
        assert point["config"]["penalty"] == {"delta": run["label"]["delta"], "a": "auto",
                                              "s_exp": "auto"}
        # the point's config, run on its own, gives the point's outputs
        solo = runs["sweep"].parent / f"solo-{name}"
        cfg_path = runs["sweep"].parent / f"solo-{name}.json"
        config = {k: v for k, v in point["config"].items() if k != "sweep_point"}
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["minimize", "--config", str(cfg_path), "--out", str(solo),
                         "--quiet"]) == 0
        assert json.loads((solo / "manifest.json").read_text())["outputs"] == point["outputs"]



def test_a_sweep_point_with_an_invalid_w_writes_its_own_manifest(tmp_path):
    # p = 1 is not a valid power (p must exceed 2): the first point fails
    # before its first stage, the second runs
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(_config(sweep={"w_params": {"p": [1.0, 4.0]}})))
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    top = json.loads((out / "manifest.json").read_text())["sweep_runs"]
    assert top["run_000"]["status"].startswith("invalid: ")
    assert top["run_001"]["status"] == "ok"
    invalid = _registered_manifest(out / "run_000")
    assert (invalid["status"], invalid["failure_stage"]) == ("invalid", "setup")
    assert invalid["outputs"] == {} and invalid["stages"] == []
    assert invalid["error"] in top["run_000"]["status"]
    assert invalid["config"]["sweep_point"] == top["run_000"]["label"]
    assert _registered_manifest(out / "run_001")["outputs"]

# -- cli.py writes only through the run ---------------------------------------

WRITERS = {name for name in vars(fileio) if name.startswith(("write_", "dump_"))}
OWNERS = {"_Run.write", "_Run.finish"}
# pipeline step -> the functions that may call it
PIPELINE = {"_minimize_chain": {"_gated_chain"}, "resolve_options": {"_gated_chain"},
            "_run_gate": {"_gated_chain", "cmd_check"}}


def _functions(tree):
    """(qualified name, node) of every function; methods as Class.name."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{f.name}", f) for f in node.body
                    if isinstance(f, ast.FunctionDef)]
    return out


def output_bypasses(source: str) -> list[str]:
    """Every open(), hashlib use, fileio writer call and Path write in the
    source outside `_Run.write` and `_Run.finish`, and every call of a
    pipeline step outside its caller in PIPELINE."""
    tree = ast.parse(source)
    owner = {}
    for qualname, fn in _functions(tree):
        for node in ast.walk(fn):
            owner.setdefault(id(node), qualname)
    found = []
    for node in ast.walk(tree):
        where = owner.get(id(node), "<module>")
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "hashlib" and where not in OWNERS:
            found.append(f"{where}: hashlib.{node.attr}")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if where not in OWNERS and (
                name in WRITERS or name == "open"
                or (isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"))):
            found.append(f"{where}: {name}()")
        if name in PIPELINE and where not in PIPELINE[name]:
            found.append(f"{where}: {name}()")
    return found


def test_the_guard_sees_an_output_that_bypasses_the_run():
    source = (
        "import hashlib\n"
        "class _Run:\n"
        "    def write(self, name, writer, data):\n"
        "        writer(data, self.out / name)\n"
        "        hashlib.sha256(b'')\n"
        "    def finish(self):\n"
        "        dump_json(self.manifest, self.out / 'manifest.json')\n"
        "def cmd_a(run):\n"
        "    run.write('a.csv', write_field, 1)\n"
        "    open('b.csv', 'w')\n"
        "    fileio.write_trace_csv(2, 'c.csv')\n"
        "    (run.out / 'd.json').write_text('{}')\n"
        "    return hashlib.sha256(b'').hexdigest()\n"
        "def cmd_b(run):\n"
        "    _minimize_chain(run)\n"
        "    _run_gate(run)\n"
    )
    assert sorted(output_bypasses(source)) == [
        "cmd_a: hashlib.sha256", "cmd_a: open()", "cmd_a: write_text()",
        "cmd_a: write_trace_csv()", "cmd_b: _minimize_chain()", "cmd_b: _run_gate()"]


def test_cli_writes_only_through_the_run():
    assert {"write_field", "write_profile", "dump_json"} <= WRITERS
    assert output_bypasses(CLI.read_text(encoding="utf-8")) == []
