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
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .checkers import HypothesisCertificate
from .dynamics import EvolutionTrace
from .functionals import PenaltyParams
from .grid import COMPONENT_NAMES, COMPLEX_MODELS, FieldState, Grid
from .minimize import MinimizeResult
from .nonlinearity import DoublePower, Saturating, SinglePower, WSpec
from .stability import StabilityReport

__all__ = [
    "write_field", "read_field", "write_trace_csv", "write_profile", "wspec_to_json",
    "wspec_from_json", "load_config", "ConfigError", "TRACE_HEADER",
]

TRACE_HEADER = "t,E,C,V,sharp,xnorm,orbit_dist"
_FMT = "%.17g"
# rows of a field file formatted by one % operation (bounds the writer's memory)
_ROW_BLOCK = 2**15


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
    # per component one float column per real number (re, im adjacent)
    columns = [c.reshape(grid.size, -1).view(np.float64) for c in state.components]
    width = sum(col.shape[1] for col in columns)
    row = ",".join(["%d"] * grid.dim + [_FMT] * width) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, grid.size, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, grid.size)
            index = np.unravel_index(np.arange(start, stop), grid.n)
            block = np.column_stack(index + tuple(col[start:stop] for col in columns))
            fh.write((row * (stop - start)) % tuple(block.ravel().tolist()))


def read_field(path) -> FieldState:
    """Inverse of write_field; any header/row inconsistency raises before
    a state is built (no partial states).  The complex components are the
    contiguous arrays made from the file's columns, handed to the state
    without a second copy."""
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
    _check_index_columns(grid, table[:, :grid.dim])
    values = table[:, grid.dim:]
    if complex_valued:
        # adjacent (re, im) columns are the bits of one complex sample
        comps = [np.ascontiguousarray(values[:, 2 * ci:2 * ci + 2]).view(np.complex128)
                 for ci in range(len(names))]
    else:
        comps = [values[:, ci] for ci in range(len(names))]
    # the strided NBE columns are not contiguous, so the state copies them
    return FieldState(tag, grid, tuple(c.reshape(grid.n) for c in comps), owned=True)


def _check_index_columns(grid: Grid, index: np.ndarray) -> None:
    """Raise ValueError unless row r of the index columns is the C-order
    grid index of sample r, as write_field writes it."""
    index = index.reshape(grid.n + (grid.dim,))
    in_place = np.ones(grid.n, dtype=bool)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.n[axis]
        in_place &= index[..., axis] == np.arange(grid.n[axis]).reshape(shape)
    if not in_place.all():
        row = int(np.argmin(in_place))
        found = tuple(index.reshape(-1, grid.dim)[row].tolist())
        expected = tuple(int(i) for i in np.unravel_index(row, grid.n))
        raise ValueError(f"row {row} has grid index {found}; C order puts {expected} there")


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
