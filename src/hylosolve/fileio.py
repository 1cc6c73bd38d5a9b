"""Persistence: field files, trace CSV, JSON reports, and config validation.

Formats are diff-able text: JSON for configs and reports, CSV with 17
significant digits for traces and field samples (17 digits round-trips
IEEE doubles exactly).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import validate as _validate_schema
from jsonschema.exceptions import ValidationError as SchemaError

from .checkers import HypothesisCertificate
from .dynamics import EvolutionTrace
from .functionals import HylomorphyReport, PenaltyParams
from .grid import COMPONENT_NAMES, COMPLEX_MODELS, FieldState, Grid
from .minimize import MinimizeResult
from .nonlinearity import DoublePower, Saturating, SinglePower, WSpec
from .stability import StabilityReport

__all__ = [
    "write_field", "read_field", "write_trace_csv", "wspec_to_json",
    "wspec_from_json", "load_config", "ConfigError", "TRACE_HEADER",
]

TRACE_HEADER = "t,E,C,V,sharp,xnorm,orbit_dist"
_FMT = "%.17g"


class ConfigError(ValueError):
    """Configuration file failed validation."""


def _fmt(x: float) -> str:
    return _FMT % x


def write_field(state: FieldState, path) -> None:
    """Field file: one JSON header line, then one CSV row per grid point
    (index tuple, then re/im columns per component)."""
    grid = state.grid
    header = {
        "model_tag": state.model_tag,
        "dim": grid.dim,
        "n": list(grid.n),
        "box_length": list(grid.box_length),
        "components": list(COMPONENT_NAMES[state.model_tag]),
    }
    complex_valued = state.model_tag in COMPLEX_MODELS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        flat = [c.reshape(-1) for c in state.components]
        for lin, idx in enumerate(np.ndindex(*grid.n)):
            cells = [str(i) for i in idx]
            for comp in flat:
                val = comp[lin]
                if complex_valued:
                    cells.append(_fmt(val.real))
                    cells.append(_fmt(val.imag))
                else:
                    cells.append(_fmt(val))
            fh.write(",".join(cells) + "\n")


def read_field(path) -> FieldState:
    """Inverse of write_field; any header/row inconsistency raises before
    a state is built (no partial states)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        tag = header["model_tag"]
        grid = Grid(tuple(header["n"]), tuple(header["box_length"]))
        names = COMPONENT_NAMES[tag]
        if list(header["components"]) != list(names):
            raise ValueError("component names do not match the model tag")
        complex_valued = tag in COMPLEX_MODELS
        total = int(np.prod(grid.n))
        width = grid.dim + len(names) * (2 if complex_valued else 1)
        # a row whose width differs from the first row's raises ValueError here
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if table.shape[0] != total:
        raise ValueError(f"file has {table.shape[0]} rows for a {total}-point grid")
    if table.shape[1] != width:
        raise ValueError(f"row width {table.shape[1]} != expected {width}")
    values = table[:, grid.dim:]
    if complex_valued:
        # adjacent (re, im) columns are the bits of one complex sample
        comps = [np.ascontiguousarray(values[:, 2 * ci:2 * ci + 2]).view(np.complex128)
                 for ci in range(len(names))]
    else:
        comps = [values[:, ci] for ci in range(len(names))]
    return FieldState(tag, grid, tuple(c.reshape(grid.n) for c in comps))


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


def load_config(path) -> dict:
    """Parse and schema-validate a run config; raises ConfigError on any
    problem so the CLI can map it to the config exit code."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    try:
        _validate_schema(instance=data, schema=_schema())
    except SchemaError as err:
        raise ConfigError(f"config failed schema validation: {err.message}") from err
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


def hylomorphy_to_json(report: HylomorphyReport) -> dict:
    return asdict(report)


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
