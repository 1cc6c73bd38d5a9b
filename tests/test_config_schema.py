"""The config validator in hylosolve.fileio against jsonschema, and the
import boundary it buys.

`load_config` checks configs with the package's own validator of the 14
schema keywords the packaged schema uses.  It must accept and reject what
`jsonschema.validate` accepts and rejects, with jsonschema's best-match
message, over the configs the tests and the benchmark write, one mutation
per keyword at every place the schema uses it, and the edge cases of
JSON's number types.  jsonschema is a test dependency only: importing the
CLI loads no third-party module beyond numpy, and the CLI runs with
jsonschema unimportable.
"""

import copy
import functools
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import test_cli_outputs as cli_output_tests
import test_evolve_ownership as ownership_tests
import test_io_cli as io_tests
import test_slab_parallel as slab_tests
from hylosolve import fileio
from hylosolve.cli import DEMO_CONFIG
from hylosolve.fileio import ConfigError, load_config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the keywords fileio._schema_errors implements, and the annotations it skips
KEYWORDS = {"type", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum", "enum",
            "const", "required", "properties", "additionalProperties", "items", "minItems",
            "maxItems", "oneOf"}
ANNOTATIONS = {"$schema", "title"}


def _subschemas(schema, where="#"):
    """(location, subschema) for the schema and every schema inside it."""
    yield where, schema
    if not isinstance(schema, dict):
        return
    for name, sub in schema.get("properties", {}).items():
        yield from _subschemas(sub, f"{where}/properties/{name}")
    if isinstance(schema.get("additionalProperties"), dict):
        yield from _subschemas(schema["additionalProperties"], f"{where}/additionalProperties")
    if "items" in schema:
        yield from _subschemas(schema["items"], f"{where}/items")
    for i, sub in enumerate(schema.get("oneOf", ())):
        yield from _subschemas(sub, f"{where}/oneOf/{i}")


def _dicts(value):
    """Every JSON object in value, value included."""
    if isinstance(value, dict):
        yield value
    for child in value.values() if isinstance(value, dict) else \
            value if isinstance(value, list) else ():
        yield from _dicts(child)


def test_packaged_schema_uses_only_the_keywords_the_validator_implements():
    schema = fileio._schema()
    walked = list(_subschemas(schema))
    for where, sub in walked:
        assert isinstance(sub, dict), f"{where} is not a schema object"
        unknown = set(sub) - KEYWORDS - ANNOTATIONS
        assert not unknown, f"{where} uses {sorted(unknown)}, which load_config ignores"
        additional = sub.get("additionalProperties", False)
        assert additional is False or isinstance(additional, dict), where
    # the walk reaches every object of the schema except the name -> schema
    # maps under "properties", which hold data, not keywords
    names = {id(sub["properties"]) for _, sub in walked if "properties" in sub}
    assert {id(sub) for _, sub in walked} == {id(d) for d in _dicts(schema)} - names


def test_the_schema_is_parsed_once_per_process():
    assert fileio._schema() is fileio._schema()


# -- the corpus -------------------------------------------------------------

def _with(cfg, path, value):
    """A copy of cfg with the value at path (a tuple of keys) replaced."""
    cfg = copy.deepcopy(cfg)
    if not path:
        return value
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


def _bench_configs():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {f"bench-{name}": workloads.config(name, 7) for name in workloads.WORKLOADS}


def _test_configs():
    """The configs the CLI tests write, built by their own helpers."""
    small = io_tests._small_config()
    family = ("model", "w", "family")
    configs = {
        "demo": DEMO_CONFIG,
        "small": small,
        "coarse-grid": io_tests._coarse_grid_config(),
        "nbe-phase-offset": io_tests._nbe_phase_offset_config(),
        "shift-length": io_tests._wrong_shift_length_config(),
        "n-64": _with(small, ("model", "n"), [64]),
        "b-0": _with(small, family + ("b",), 0.0),
        "p-8": _with(small, family + ("p",), 8.0),
        "delta-5": _with(small, ("penalty", "delta"), 5.0),
        "max-iters-3": io_tests._small_config(minimize={"max_iters": 3, "grad_tol": 1e-7}),
        "evolve-span": _with(small, ("evolve",), {"T": 0.25, "dt": 0.1}),
        "stability-span": _with(small, ("stability",), {"T": 0.25, "dt": 0.1}),
        "stability-kappa": io_tests._small_config(
            stability={"T": 0.5, "dt": 1e-2, "kappa": 0.125}),
        "stability": _with(small, ("stability",), {
            "T": 0.5, "dt": 1e-2, "record_every": 10,
            "perturbations": [{"kind": "additive_noise", "eps": 0.01, "band_limit": 6},
                              {"kind": "amplitude_scale", "eps": 0.02}]}),
        "seed-2^64": io_tests._small_config(seed=2**64),
        "perturbation-seed-2^64": io_tests._small_config(stability={"perturbations": [
            {"kind": "additive_noise", "eps": 0.01, "seed": 2**64}]}),
        "out-dir": io_tests._small_config(out_dir="from-config"),
        "sweep": io_tests._small_config(penalty={"delta": [0.03, 0.025]},
                                        sweep={"w_params": {"b": [1.0, 0.0]}}),
        "nbe-saturating": _with(small, ("model",), {
            "tag": "NBE", "n": [256], "box_length": [40.0],
            "w": {"m_sq": 1.0, "family": {"kind": "saturating", "alpha": 0.0,
                                          "m_bar": 2.0}}}),
        "evolve-ownership": ownership_tests.EVOLVE_CONFIG,
        "evolve-1d-no-thread": slab_tests.EVOLVE_1D_CONFIG,
        "sweep-invalid-p": cli_output_tests._config(sweep={"w_params": {"p": [1.0, 4.0]}}),
    }
    for i, model in enumerate([{"n": [100]}, {"n": [64, 64]},
                               {"tag": "NBE", "n": [64, 64], "box_length": [20.0, 20.0]}]):
        configs[f"model-{i}"] = json.loads(io_tests._model_config(**model))
    for i, cfg in enumerate(io_tests._bad_configs()):
        configs[f"bad-{i}"] = cfg
    for name, (_, overrides, _, _) in cli_output_tests.RUNS.items():
        configs[f"outputs-{name}"] = cli_output_tests._config(**overrides)
    return configs


def _full_configs():
    """Two schema-valid configs that between them give every keyword of the
    schema a value to act on: every property present, and each branch of
    every oneOf taken by one of them."""
    full = io_tests._small_config(
        stability={"T": 0.5, "dt": 1e-2, "record_every": 10, "kappa": 0.5, "abs_tol": 0.0,
                   "perturbations": [{"kind": "shift_and_phase", "eps": 0.01,
                                      "band_limit": 6, "seed": 3, "z": [1], "theta": 0.5}]},
        sweep={"w_params": {"b": [1.0, 2.0]}}, out_dir="out")
    full["model"]["w"]["family"].update(c=0.3, q_tilde=6.0, alpha=0.5, m_bar=2.0)
    full["minimize"].update(armijo_c1=1e-4, backtrack=0.5, initial_step=1.0)
    listed = _with(full, ("penalty",), {"delta": [0.03, 0.02], "a": 0.5, "s_exp": 2.0})
    return {"full-scalar-penalty": full, "full-listed-penalty": listed}


def _wrong_types(types):
    """Values of every JSON type outside types (a bool is no number)."""
    samples = {"object": {}, "array": [], "string": "x", "boolean": True, "null": None,
               "number": 0.5, "integer": 3}
    allowed = {types} if isinstance(types, str) else set(types)
    if "number" in allowed:
        allowed.add("integer")
    return [v for t, v in samples.items() if t not in allowed]


def _mutations(schema, value, path=()):
    """(name, path, replacement) for one violation of each keyword of schema
    at this place, and the same for the schemas inside it."""
    where = "/".join(map(str, path)) or "root"
    for keyword, arg in schema.items():
        name = f"{where}:{keyword}"
        if keyword == "type":
            for i, wrong in enumerate(_wrong_types(arg)):
                yield f"{name}:{i}", path, wrong
            if arg == "integer":
                yield f"{name}:integral-float", path, float(value)
                yield f"{name}:fraction", path, value + 0.5
        elif keyword in ("minimum", "maximum"):
            yield name, path, arg - 1 if keyword == "minimum" else arg + 1
            yield f"{name}:at", path, arg
        elif keyword in ("exclusiveMinimum", "exclusiveMaximum"):
            yield name, path, arg
        elif keyword in ("enum", "const"):
            yield name, path, "not-an-option"
            yield f"{name}:number", path, 1
        elif keyword == "required":
            for prop in arg:
                yield f"{name}:{prop}", path, {k: v for k, v in value.items() if k != prop}
        elif keyword == "properties":
            for prop, sub in arg.items():
                yield from _mutations(sub, value[prop], path + (prop,))
        elif keyword == "additionalProperties":
            yield name, path, dict(value, unexpected=1, other=[1])
            if isinstance(arg, dict):
                extras = [k for k in value if k not in schema.get("properties", {})]
                for prop in extras:
                    yield from _mutations(arg, value[prop], path + (prop,))
        elif keyword == "items":
            yield from _mutations(arg, value[0], path + (0,))
            yield f"{name}:last", path, value[:-1] + [None]
        elif keyword == "minItems":
            yield name, path, value[:arg - 1]
        elif keyword == "maxItems":
            yield name, path, value + value[:1] * (arg + 1 - len(value))
        elif keyword == "oneOf":
            yield name, path, None
            for i, branch in enumerate(arg):
                if not fileio._schema_errors(value, branch):  # the branch value takes
                    yield from _mutations(branch, value, path)


def _mutated_configs():
    configs = {}
    for base_name, base in _full_configs().items():
        for name, path, replacement in _mutations(fileio._schema(), base):
            configs[f"{base_name}:{name}"] = _with(base, path, replacement)
    return configs


def _edge_configs():
    small = io_tests._small_config()
    family = ("model", "w", "family")
    configs = {
        "seed-2^64-1": _with(small, ("seed",), 2**64 - 1),
        "seed-2^64": _with(small, ("seed",), 2**64),
        "seed-integral-float": _with(small, ("seed",), 7.0),
        "n-integral-float": _with(small, ("model", "n"), [512.0]),
        "empty-delta": _with(small, ("penalty", "delta"), []),
        "delta-list-with-bool": _with(small, ("penalty", "delta"), [0.03, True]),
        "a-bool": _with(small, ("penalty", "a"), True),
        "a-negative": _with(small, ("penalty", "a"), -1.0),
        "m-sq-true": _with(small, ("model", "w", "m_sq"), True),
        "b-false": _with(small, family + ("b",), False),
        "seed-true": _with(small, ("seed",), True),
        "tag-lowercase": _with(small, ("model", "tag"), "nls"),
        "two-unexpected": dict(small, zeta=1, alpha=2),
        "missing-and-unexpected": {"model": small["model"], "zeta": 1},
        "empty-object": {},
        "sweep-value-not-a-list": _with(small, ("sweep",), {"w_params": {"b": 1.0, "p": []}}),
    }
    for i, top in enumerate([[], [small], "config", 1, 1.5, True, None]):
        configs[f"top-level-{i}"] = top
    return configs


CORPUS = {**_test_configs(), **_bench_configs(), **_full_configs(), **_mutated_configs(),
          **_edge_configs()}


@functools.cache
def _jsonschema_validator():
    from jsonschema.validators import validator_for
    schema = fileio._schema()
    return validator_for(schema)(schema)


def _jsonschema_message(instance):
    """The message of the error jsonschema.validate raises on instance
    against the packaged schema, or None if it is valid.  validate is
    best_match over iter_errors after a metaschema check of the schema,
    which test_packaged_schema_passes_its_metaschema makes once."""
    from jsonschema.exceptions import best_match
    error = best_match(_jsonschema_validator().iter_errors(instance))
    return None if error is None else error.message


def _load_config_message(tmp_path, instance):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(instance))
    try:
        load_config(path)
    except ConfigError as err:
        prefix = "config failed schema validation: "
        assert str(err).startswith(prefix), str(err)
        return str(err)[len(prefix):]
    return None


def test_the_corpus_reaches_every_keyword_and_both_verdicts():
    names = "\n".join(CORPUS)
    for keyword in KEYWORDS - {"properties"}:
        assert f":{keyword}" in names, keyword
    verdicts = {_jsonschema_message(cfg) is None for cfg in CORPUS.values()}
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_load_config_agrees_with_jsonschema_validate(tmp_path, name):
    instance = CORPUS[name]
    assert _load_config_message(tmp_path, instance) == _jsonschema_message(instance)


# keyword forms and values the packaged schema does not use (yet), each
# against jsonschema on the same small schema
SMALL_SCHEMAS = [
    ({"enum": [1, [1], {"a": 1}]}, [True, 1.0, 1, [True], [1.0], {"a": True}, {"a": 1.0}]),
    ({"const": 0}, [False, 0.0, -0.0]),
    ({"const": [0, {"b": [False]}]}, [[0.0, {"b": [0]}], [0, {"b": [False]}], [0]]),
    ({"type": ["string", "null"]}, [1, None, "x"]),
    ({"minItems": 2, "maxItems": 0}, [[], [1], [1, 2]]),
    ({"oneOf": [{"type": "array"}, {"type": "string"}], "minimum": 5}, [3, 7, "x"]),
    ({"oneOf": [{"type": "number"}, {"minimum": 0}, {"type": "integer"}]}, [1, -1.5, "x"]),
    ({"type": "object", "additionalProperties": {"type": "integer", "minimum": 0}},
     [{"a": 1, "b": -1, "c": "x"}, {"b": 1.0}]),
]


@pytest.mark.parametrize("schema,instance", [
    pytest.param(schema, instance, id=f"{i}-{j}")
    for i, (schema, instances) in enumerate(SMALL_SCHEMAS)
    for j, instance in enumerate(instances)])
def test_keyword_semantics_match_jsonschema(schema, instance):
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match
    want = best_match(Draft202012Validator(schema).iter_errors(instance))
    got = fileio._best_match(fileio._schema_errors(instance, schema))
    assert (got and got.message) == (want and want.message)


# -- import boundary ----------------------------------------------------------

IMPORTS = """
import json, sys
sys.path.insert(0, {src!r})
def third_party():
    return {{name.partition(".")[0] for name in sys.modules}} - set(sys.stdlib_module_names)
import numpy
with_numpy = third_party()
import hylosolve.cli
print(json.dumps(sorted(third_party() - with_numpy - {{"hylosolve"}})))
"""


def test_the_cli_imports_no_third_party_module_beyond_numpy():
    proc = subprocess.run([sys.executable, "-c", IMPORTS.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "jsonschema" not in added and added == [], \
        f"import hylosolve.cli loads {added} (jsonschema is a test dependency only)"


WITHOUT_JSONSCHEMA = """
import json, sys
sys.modules["jsonschema"] = None  # any import of it raises ImportError
sys.path.insert(0, {src!r})
from hylosolve.cli import cli_main
codes = [cli_main(["check", "--config", path, "--out", out, "--quiet"])
         for path, out in {runs!r}]
print(json.dumps(codes))
"""


def test_the_cli_checks_configs_without_jsonschema(tmp_path):
    good = io_tests._small_config(model=dict(io_tests._small_config()["model"], n=[128]))
    bad = _with(good, ("model", "tag"), "QCD")
    runs = []
    for name, cfg in (("good", good), ("bad", bad)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append((str(path), str(tmp_path / name)))
    script = WITHOUT_JSONSCHEMA.format(src=str(SRC), runs=runs)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, 2]
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["error"] == ("config failed schema validation: "
                                 "'QCD' is not one of ['NLS', 'NWE', 'NBE']")
