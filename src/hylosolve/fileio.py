"""Persistence: field files, trace CSV, JSON reports, and config validation.

Configs, reports, traces and profiles are diff-able text: JSON, and CSV with
17 significant digits (17 digits round-trip IEEE doubles exactly).  Field
files carry a JSON header line and then the samples as raw little-endian
float64, exact by construction.

Configs are checked against the packaged JSON Schema without a schema
library: `_schema_errors` implements the 14 draft 2020-12 keywords that
schema uses (type, minimum, maximum, exclusiveMinimum, exclusiveMaximum,
enum, const, required, properties, additionalProperties, items, minItems,
maxItems, oneOf) as jsonschema 4.26 applies them, skips the annotations, and
`_best_match` reports the error jsonschema's `best_match` would pick.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict
from functools import cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .checkers import HypothesisCertificate
from .dynamics import EvolutionTrace
from .functionals import PenaltyParams
from .grid import COMPONENT_NAMES, COMPLEX_MODELS, MODEL_TAGS, FieldState, Grid
from .minimize import MinimizeResult
from .nonlinearity import DoublePower, Saturating, SinglePower, WSpec
from .stability import StabilityReport

__all__ = [
    "write_field", "read_field", "write_trace_csv", "write_profile", "wspec_to_json",
    "wspec_from_json", "load_config", "ConfigError", "TRACE_HEADER",
]

TRACE_HEADER = "t,E,C,V,sharp,xnorm,orbit_dist"
_FMT = "%.17g"
# the field file body: every sample's float64 bytes, little-endian
FIELD_ENCODING = "float64-le"


class ConfigError(ValueError):
    """Configuration file failed validation."""


def _fmt(x: float) -> str:
    return _FMT % x


def _field_dtype(model_tag: str) -> np.dtype:
    return np.dtype("<c16" if model_tag in COMPLEX_MODELS else "<f8")


def write_field(state: FieldState, path) -> None:
    """Field file: one JSON header line, then each component in C order as
    little-endian float64 (complex samples as adjacent re/im pairs)."""
    grid = state.grid
    header = {
        "model_tag": state.model_tag,
        "dim": grid.dim,
        "n": list(grid.n),
        "box_length": list(grid.box_length),
        "components": list(COMPONENT_NAMES[state.model_tag]),
        "encoding": FIELD_ENCODING,
    }
    dtype = _field_dtype(state.model_tag)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for c in state.components:
            fh.write(np.ascontiguousarray(c, dtype=dtype))


def _field_header(header) -> tuple[str, Grid]:
    """The model tag and grid of a field header; ValueError unless it is one
    that write_field writes."""
    if not isinstance(header, dict):
        raise ValueError("the field header is not a JSON object")
    if header.get("encoding") != FIELD_ENCODING:
        raise ValueError("this is a text field file from an earlier version of hylosolve; "
                         "write it again with write_field (README: Output formats)")
    tag = header.get("model_tag")
    if tag not in MODEL_TAGS:
        raise ValueError(f"unknown model tag {tag!r}")
    n, box = header.get("n"), header.get("box_length")
    if not (isinstance(n, list) and isinstance(box, list)
            and len(n) == len(box) == header.get("dim")):
        raise ValueError("n and box_length must be lists of dim entries")
    if header.get("components") != list(COMPONENT_NAMES[tag]):
        raise ValueError("component names do not match the model tag")
    try:
        return tag, Grid(tuple(n), tuple(box))
    except TypeError as err:
        raise ValueError(f"invalid grid in the field header: {err}") from err


def read_field(path) -> FieldState:
    """Inverse of write_field; a bad header or a body of the wrong length
    raises ValueError before a state is built (no partial states).  The
    body is read into one array, whose rows the state keeps without a copy."""
    with open(path, "rb") as fh:
        tag, grid = _field_header(json.loads(fh.readline()))
        ncomp = len(COMPONENT_NAMES[tag])
        body = np.empty((ncomp,) + grid.n, dtype=_field_dtype(tag))
        size = fh.readinto(body)
        if size != body.nbytes or fh.read(1):
            raise ValueError(f"the field body is not the {body.nbytes} bytes of "
                             f"{ncomp} component(s) on a {grid.size}-point grid")
    native = body.astype(body.dtype.newbyteorder("="), copy=False)
    return FieldState(tag, grid, tuple(native), owned=True)


def write_trace_csv(trace: EvolutionTrace, path) -> None:
    """Fixed schema: t,E,C,V,sharp,xnorm,orbit_dist; V/orbit_dist cells are
    empty when the trace carries no reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for i, t in enumerate(trace.times):
            v = _fmt(trace.v[i]) if trace.v is not None else ""
            od = _fmt(trace.orbit_dist[i]) if trace.orbit_dist is not None else ""
            fh.write(",".join([
                _fmt(t), _fmt(trace.energy[i]), _fmt(trace.charge[i]),
                v, _fmt(trace.sharp[i]), _fmt(trace.xnorm[i]), od]) + "\n")


def write_profile(profile, path) -> None:
    """Demo profile CSV from profile = (x, psi, fit): per grid point x, the
    real and imaginary parts and modulus of psi, and the fitted profile."""
    x, psi, fit = profile
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,psi_re,psi_im,abs_psi,profile_fit\n")
        for xi, p, fi in zip(x, psi, fit):
            fh.write(",".join([_fmt(xi), _fmt(p.real), _fmt(p.imag), _fmt(abs(p)),
                               _fmt(fi)]) + "\n")


_FAMILY_KINDS = {"single_power": SinglePower, "double_power": DoublePower,
                 "saturating": Saturating}


def wspec_to_json(w: WSpec) -> dict:
    fam = w.family
    if isinstance(fam, SinglePower):
        family = {"kind": "single_power", "b": fam.b, "p": fam.p}
    elif isinstance(fam, DoublePower):
        family = {"kind": "double_power", "b": fam.b, "p": fam.p,
                  "c": fam.c, "q_tilde": fam.q_tilde}
    else:
        family = {"kind": "saturating", "alpha": fam.alpha, "m_bar": fam.m_bar}
    return {"m_sq": w.m_sq, "family": family}


def wspec_from_json(data: dict) -> WSpec:
    family = dict(data["family"])
    kind = family.pop("kind")
    if kind not in _FAMILY_KINDS:
        raise ConfigError(f"unknown potential family {kind!r}")
    try:
        return WSpec(m_sq=float(data["m_sq"]), family=_FAMILY_KINDS[kind](**family))
    except (TypeError, ValueError, KeyError) as err:
        raise ConfigError(f"invalid potential spec: {err}") from err


@cache
def _schema() -> dict:
    """The packaged run-config schema, parsed once per process (callers
    share the dict and must not change it)."""
    text = resources.files("hylosolve").joinpath("schema/run_config.schema.json").read_text()
    return json.loads(text)


# draft 2020-12 types as jsonschema checks them: a bool is no number, and a
# float with an integral value is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def _is_type(value, types) -> bool:
    return any(_TYPES[t](value) for t in ([types] if isinstance(types, str) else types))


def _equal(a, b) -> bool:
    """JSON equality for enum and const: 1 == 1.0, but true != 1."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


# bound keyword -> (the test a number fails it by, the words of its message)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


class _SchemaError(NamedTuple):
    path: tuple            # where in the instance, from the config's root
    keyword: str
    message: str
    off_type: bool         # the value misses its schema's "type" (or it has none)
    context: tuple = ()    # oneOf: the errors of every branch


def _schema_errors(value, schema: dict, path: tuple = ()) -> list[_SchemaError]:
    """Every error of value under schema, in the order jsonschema yields
    them (the schema's keyword order), with jsonschema's messages."""
    errors = []
    off_type = not ("type" in schema and _is_type(value, schema["type"]))
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _TYPES["number"](value)

    def fail(keyword, message, context=()):
        errors.append(_SchemaError(path, keyword, message, off_type, context))

    for keyword, arg in schema.items():
        if keyword == "type":
            if not _is_type(value, arg):
                names = ", ".join(map(repr, [arg] if isinstance(arg, str) else arg))
                fail(keyword, f"{value!r} is not of type {names}")
        elif keyword in _BOUNDS:
            out_of_bounds, words = _BOUNDS[keyword]
            if is_number and out_of_bounds(value, arg):
                fail(keyword, f"{value!r} {words} {arg!r}")
        elif keyword == "enum":
            if not any(_equal(option, value) for option in arg):
                fail(keyword, f"{value!r} is not one of {arg!r}")
        elif keyword == "const":
            if not _equal(value, arg):
                fail(keyword, f"{arg!r} was expected")
        elif keyword == "required":
            for name in arg if is_object else ():
                if name not in value:
                    fail(keyword, f"{name!r} is a required property")
        elif keyword == "properties":
            for name, sub in arg.items() if is_object else ():
                if name in value:
                    errors += _schema_errors(value[name], sub, path + (name,))
        elif keyword == "additionalProperties":
            known = schema.get("properties", {})
            extras = [name for name in value if name not in known] if is_object else []
            if isinstance(arg, dict):
                for name in extras:
                    errors += _schema_errors(value[name], arg, path + (name,))
            elif not arg and extras:
                names = ", ".join(map(repr, sorted(extras)))
                verb = "was" if len(extras) == 1 else "were"
                fail(keyword, f"Additional properties are not allowed "
                              f"({names} {verb} unexpected)")
        elif keyword == "items":
            for i, item in enumerate(value if is_array else ()):
                errors += _schema_errors(item, arg, path + (i,))
        elif keyword == "minItems":
            if is_array and len(value) < arg:
                words = "should be non-empty" if arg == 1 else "is too short"
                fail(keyword, f"{value!r} {words}")
        elif keyword == "maxItems":
            if is_array and len(value) > arg:
                words = "is expected to be empty" if arg == 0 else "is too long"
                fail(keyword, f"{value!r} {words}")
        elif keyword == "oneOf":
            branches = [_schema_errors(value, sub, path) for sub in arg]
            valid = [sub for sub, errs in zip(arg, branches) if not errs]
            if not valid:
                fail(keyword, f"{value!r} is not valid under any of the given schemas",
                     tuple(e for errs in branches for e in errs))
            elif len(valid) > 1:
                names = ", ".join(map(repr, valid[1:] + valid[:1]))
                fail(keyword, f"{value!r} is valid under each of {names}")
    return errors


def _relevance(error: _SchemaError) -> tuple:
    # jsonschema.exceptions.relevance: the shallower error, then the later
    # sibling, then a keyword other than oneOf, then one whose value misses
    # its schema's type is the better match
    return (-len(error.path), error.path, error.keyword != "oneOf", error.off_type)


def _best_match(errors: list[_SchemaError]) -> _SchemaError | None:
    """The error jsonschema.exceptions.best_match picks: the most relevant,
    then down a failed oneOf to its branches' least relevant error (the
    deepest), unless two of them tie."""
    best = max(errors, key=_relevance, default=None)
    while best is not None and best.context:
        smallest = sorted(best.context, key=_relevance)[:2]
        if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
            break
        best = smallest[0]
    return best


def _finite_number(literal: str) -> float:
    # json.loads takes NaN, +-Infinity and literals beyond the float range
    # (1e309 reads as inf), which no schema bound rejects
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"config is not valid JSON: {literal} is not a finite number")
    return value


def load_config(path) -> dict:
    """Parse and schema-validate a run config; raises ConfigError on any
    problem so the CLI can map it to the config exit code."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config is not UTF-8 text: {err}") from err
    try:
        data = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ConfigError("config is not valid JSON: it is nested too deeply") from err
    # the package's own validator, so that no CLI call imports a schema
    # library; its message is the one jsonschema.validate gives against the
    # packaged schema (tests/test_config_schema.py holds the two to one corpus)
    error = _best_match(_schema_errors(data, _schema()))
    if error is not None:
        raise ConfigError(f"config failed schema validation: {error.message}")
    return data


# -- report serialization ---------------------------------------------------

def penalty_to_json(params: PenaltyParams) -> dict:
    return {k: v for k, v in asdict(params).items() if v is not None}


def minimize_result_to_json(result: MinimizeResult) -> dict:
    return {
        "e_delta": result.e_delta,
        "c_delta": result.c_delta,
        "j_value": None if np.isnan(result.j_value) else result.j_value,
        "lambda_mult": result.lambda_mult,
        "kkt_residual": result.kkt_residual,
        "iters": result.iters,
        "converged": result.converged,
    }


def write_descent_log(result: MinimizeResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,objective,step,grad_norm\n")
        for it, val, step, gn in result.log:
            fh.write(f"{it},{_fmt(val)},{_fmt(step)},{_fmt(gn)}\n")


def certificate_to_json(cert: HypothesisCertificate) -> dict:
    return {
        "model_tag": cert.model_tag,
        "budget": cert.budget,
        "seed": cert.seed,
        "params": cert.params,
        "results": {k: asdict(v) for k, v in cert.results.items()},
    }


def stability_to_json(report: StabilityReport) -> dict:
    return {
        "note": report.note,
        "e_ref": report.e_ref,
        "c_ref": report.c_ref,
        "kappa": report.kappa,
        "abs_tol": report.abs_tol,
        "T": report.T,
        "dt": report.dt,
        "rows": [asdict(r) for r in report.rows],
    }


def dump_json(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
