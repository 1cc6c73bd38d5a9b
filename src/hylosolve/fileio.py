"""Persistence: field files, trace CSV, JSON reports, and config validation.

Configs, reports, traces and profiles are diff-able text: JSON, and CSV with
17 significant digits (17 digits round-trip IEEE doubles exactly).  Field
files carry a JSON header line and then the samples as raw little-endian
float64, exact by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

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


def _schema() -> dict:
    text = resources.files("hylosolve").joinpath("schema/run_config.schema.json").read_text()
    return json.loads(text)


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
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"), parse_float=_finite_number,
                          parse_constant=_finite_number)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    # jsonschema.validate without its check of the packaged schema against
    # the metaschema (23 ms per run); the same best-match error message
    schema = _schema()
    error = best_match(validator_for(schema)(schema).iter_errors(data))
    if error is not None:
        raise ConfigError(f"config failed schema validation: {error.message}") from error
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
