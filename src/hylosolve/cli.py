"""Command-line surface.

Subcommands: check, lambda0, minimize, evolve, stability, sweep, demo.
Exit codes: 0 success, 2 invalid config, 3 numerical failure, 4 hypothesis
gate failed.  Every run writes a manifest (config echo, the seed that ran,
version, start and end times, wall seconds per stage, sha256 of each
output, certificate summary), also on failure with the failing stage
recorded.  Every output goes through `_Run.write`, the one path that
writes a file and records its digest; a sweep point's manifest echoes its
own `W` and single `delta`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .checkers import audit, gate_passed
from .dynamics import evolve, step_count
from .exceptions import NearZeroCharge, NumericalFailure
from .fileio import (ConfigError, certificate_to_json, dump_json, load_config,
                     minimize_result_to_json, penalty_to_json, read_field,
                     stability_to_json, write_descent_log, write_field,
                     write_profile, write_trace_csv, wspec_from_json)
from .functionals import (PenaltyParams, choose_coercivity_params,
                          lambda0_estimate, penalized_probe_seed, require_probe_widths)
from .grid import NBE, Grid, min_image_distances
from .minimize import MinimizeOptions, delta_continuation
from .models import ModelSpec
from .stability import Perturbation, run_stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4
# characters of a config error kept on stderr and in the manifest; a schema
# message quotes the whole offending value, which may be any size
CONFIG_ERROR_CHARS = 500

DEMO_CONFIG = {
    "model": {
        "tag": "NLS",
        "n": [512],
        "box_length": [40.0],
        "w": {"m_sq": 1.0, "family": {"kind": "single_power", "b": 1.0, "p": 4.0}},
    },
    "penalty": {"delta": 0.03, "a": "auto", "s_exp": "auto"},
    "minimize": {"max_iters": 40000, "grad_tol": 1e-8},
    "evolve": {"T": 10.0, "dt": 1e-3, "record_every": 100},
    "stability": {
        "T": 10.0, "dt": 1e-3, "record_every": 100,
        "perturbations": [{"kind": "additive_noise", "eps": 0.01, "band_limit": 8}],
    },
    "seed": 20260810,
}


class _Run:
    """Output directory, manifest bookkeeping, and chatter control; seed is
    the one the run uses (None when no config was loaded)."""

    def __init__(self, out_dir: Path, config: dict, seed: int | None, quiet: bool):
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.quiet = quiet
        self.manifest = {
            "tool_version": __version__,
            "config": config,
            "started": _now(),
            "outputs": {},
            "stages": [],
            "stage_seconds": [],
            "status": "running",
        }
        if seed is not None:
            self.manifest["seed"] = seed
        self._stage_start = None

    def say(self, msg: str):
        if not self.quiet:
            print(msg)

    def stage(self, name: str):
        self._close_stage()
        self.manifest["stages"].append(name)
        self._stage_start = time.perf_counter()

    def last_stage(self) -> str:
        """The stage entered last, "setup" before the first."""
        return self.manifest["stages"][-1] if self.manifest["stages"] else "setup"

    def _close_stage(self):
        # Fixed-width strings ('%.6e'), so the manifest's byte length does
        # not depend on the measured times.
        if self._stage_start is not None:
            seconds = time.perf_counter() - self._stage_start
            self.manifest["stage_seconds"].append(f"{seconds:.6e}")
            self._stage_start = None

    def write(self, name: str, writer, data):
        """writer(data, path) to the named file of the run directory, whose
        sha256 the manifest records; every output of a run goes through here."""
        path = self.out / name
        writer(data, path)
        self.manifest["outputs"][name] = hashlib.sha256(path.read_bytes()).hexdigest()

    def finish(self, status: str, failure_stage: str | None = None,
               error: Exception | str | None = None):
        """Write the manifest; an error's diagnosis, if it carries one
        (NumericalFailure.detail), is recorded as failure_detail."""
        self._close_stage()
        self.manifest["status"] = status
        self.manifest["ended"] = _now()
        if failure_stage:
            self.manifest["failure_stage"] = failure_stage
        if error:
            self.manifest["error"] = str(error)
            detail = getattr(error, "detail", None)
            if detail:
                self.manifest["failure_detail"] = detail
        dump_json(self.manifest, self.out / "manifest.json")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def _capped(message: str) -> str:
    """message, or its head and tail with its full length when it is longer
    than CONFIG_ERROR_CHARS."""
    if len(message) <= CONFIG_ERROR_CHARS:
        return message
    half = CONFIG_ERROR_CHARS // 2
    return f"{message[:half]} ... {message[-half:]} ({len(message)} characters)"


def build_spec(config: dict) -> ModelSpec:
    """The model a config describes; a grid or model the schema admits but
    the constructors reject is a config error."""
    m = config["model"]
    w = wspec_from_json(m["w"])
    try:
        return ModelSpec(m["tag"], Grid(tuple(m["n"]), tuple(m["box_length"])), w)
    except ValueError as err:
        raise ConfigError(f"invalid model: {err}") from err


def resolve_deltas(config: dict) -> list[float]:
    """The configured penalty weights, distinct and largest first."""
    delta = config.get("penalty", {}).get("delta", 0.03)
    return sorted({float(d) for d in (delta if isinstance(delta, list) else [delta])},
                  reverse=True)


def resolve_penalty(config: dict, spec: ModelSpec) -> tuple[PenaltyParams, list[float]]:
    """The penalty parameters at the largest configured weight, and all the
    weights (resolve_deltas); a and s do not depend on the weight."""
    block = config.get("penalty", {})
    deltas = resolve_deltas(config)
    a = block.get("a", "auto")
    s_exp = block.get("s_exp", "auto")
    if a == "auto" or s_exp == "auto":
        params = choose_coercivity_params(spec, delta=deltas[0])
        if a != "auto":
            params = replace(params, a=float(a))
        if s_exp != "auto":
            params = replace(params, s_exp=float(s_exp))
    else:
        params = PenaltyParams(delta=deltas[0], a=float(a), s_exp=float(s_exp))
    return params, deltas


def resolve_options(config: dict) -> MinimizeOptions:
    return MinimizeOptions(**config.get("minimize", {}))


def _perturbations(config: dict, spec: ModelSpec) -> list[Perturbation]:
    """The configured perturbations; a shift of the wrong length, or a
    phase offset on the real beam model, is a config error.  Integer slots
    are read through int(): the schema admits integral floats such as 3.0."""
    block = config.get("stability", {})
    out = []
    for p in block.get("perturbations", [{"kind": "additive_noise", "eps": 0.01}]):
        kind = p["kind"]
        if kind == "additive_noise":
            out.append(Perturbation.additive_noise(p.get("eps", 0.01),
                                                   int(p.get("band_limit", 8)),
                                                   int(p.get("seed", 0))))
        elif kind == "amplitude_scale":
            out.append(Perturbation.amplitude_scale(p.get("eps", 0.01)))
        else:
            z = p.get("z", [0] * spec.grid.dim)
            if len(z) != spec.grid.dim:
                raise ConfigError(f"shift z has {len(z)} entries for a {spec.grid.dim}-d grid")
            if p.get("theta", 0.0) != 0.0 and spec.model_tag == NBE:
                raise ConfigError("phase offset is undefined for the real beam model")
            out.append(Perturbation.shift_and_phase(z, p.get("theta", 0.0)))
    return out


def _require_span(T, dt) -> None:
    """A config error unless evolve takes the span T in whole steps dt."""
    try:
        step_count(T, dt)
    except ValueError as err:
        raise ConfigError(f"invalid evolution span: {err}") from err


def _run_gate(run: _Run, spec: ModelSpec, params: PenaltyParams | None, stage: str):
    """Audit in the named stage and write certificate.json; True iff the gate passed."""
    run.stage(stage)
    cert = audit(spec, params, budget=2000)
    run.write("certificate.json", dump_json, certificate_to_json(cert))
    ok = gate_passed(cert)
    summary = {k: v.verdict for k, v in cert.results.items()}
    run.manifest["certificate_summary"] = summary
    run.say(f"hypothesis gate: {'PASS' if ok else 'FAIL'} ({summary})")
    return ok


def _minimize_chain(run: _Run, spec: ModelSpec, params: PenaltyParams,
                    deltas: list[float], opts: MinimizeOptions):
    run.stage("minimize")
    try:
        family = delta_continuation(spec, deltas, opts=opts, params=params)
    except NumericalFailure as err:
        if err.partial is not None:  # keep the failing link's descent log
            run.write(f"descent_{err.detail['link']:02d}.csv", write_descent_log,
                      err.partial)
        raise
    rows = []
    for i, (d, res, free_iters, seed) in enumerate(zip(family.deltas, family.results,
                                                       family.free_iters, family.seeds)):
        run.write(f"state_{i:02d}.field", write_field, res.state)
        run.write(f"descent_{i:02d}.csv", write_descent_log, res)
        rows.append({"delta": d, **minimize_result_to_json(res), "free_iters": free_iters,
                     "seed": seed})
        run.say(f"delta={d:g}: e={res.e_delta:.6g} c={res.c_delta:.6g} "
                f"kkt={res.kkt_residual:.2e} iters={res.iters} free_iters={free_iters}")
    run.write("minimize.json", dump_json, {
        "penalty": penalty_to_json(params),
        "lambda0": family.lambda0,
        "results": rows,
        "orbit_distances": family.orbit_distances.tolist(),
    })
    return family


def _gated_chain(run: _Run, config: dict, spec: ModelSpec, params: PenaltyParams,
                 deltas: list[float]):
    """The audit gate, then the minimizer chain over deltas; None when the
    gate fails."""
    if not _run_gate(run, spec, params, "audit-gate"):
        return None
    return _minimize_chain(run, spec, params, deltas, resolve_options(config))


def cmd_check(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    _run_gate(run, spec, None, "audit")
    return EXIT_OK


def cmd_lambda0(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    run.stage("lambda0")
    est = lambda0_estimate(spec)
    run.write("lambda0.json", dump_json,
              {"lambda0_estimate": est, "note": "closed form: infimum over wave numbers"})
    run.say(f"lambda0 (closed form): {est:.6g}")
    return EXIT_OK


def cmd_minimize(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    params, deltas = resolve_penalty(config, spec)
    family = _gated_chain(run, config, spec, params, deltas)
    return EXIT_GATE if family is None else EXIT_OK


def cmd_evolve(run: _Run, config: dict, spec: ModelSpec, seed: int,
               state_path: str | None) -> int:
    block = config.get("evolve")
    if block is None:
        raise ConfigError("evolve subcommand needs an 'evolve' config block")
    _require_span(block["T"], block["dt"])
    start = [_start_state(run, config, spec, state_path)]
    run.stage("evolve")
    # pop leaves no name here bound to the start state, so evolve holds the
    # only reference and frees it when the first record block replaces it
    trace = evolve(spec, start.pop(), block["T"], block["dt"],
                   record_every=int(block.get("record_every", 1)))
    run.write("trace.csv", write_trace_csv, trace)
    if trace.blew_up:
        raise NumericalFailure("evolution aborted on blow-up (partial trace written)")
    run.say(f"trace written: {trace.times.size} samples")
    return EXIT_OK


def _start_state(run: _Run, config: dict, spec: ModelSpec, state_path: str | None):
    """The state evolve starts from: the --state field file, else the best
    penalized Gaussian probe."""
    if not state_path:
        require_probe_widths(spec.grid)
        params, _ = resolve_penalty(config, spec)
        state, _ = penalized_probe_seed(spec, params)
        run.say("no --state given: evolving the best penalized Gaussian probe")
        return state
    try:
        state = read_field(state_path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"--state {state_path} is not a readable field file: "
                          f"{err!r}") from err
    if state.model_tag != spec.model_tag or state.grid != spec.grid:
        raise ConfigError(
            f"--state holds a {state.model_tag} field on grid n={list(state.grid.n)}, "
            f"L={list(state.grid.box_length)}; the config describes a "
            f"{spec.model_tag} model on n={list(spec.grid.n)}, "
            f"L={list(spec.grid.box_length)}")
    return state


def cmd_stability(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    block = config.get("stability", {})
    T, dt = block.get("T", 10.0), block.get("dt", 1e-3)
    _require_span(T, dt)
    perturbations = _perturbations(config, spec)
    params, deltas = resolve_penalty(config, spec)
    family = _gated_chain(run, config, spec, params, deltas[:1])
    if family is None:
        return EXIT_GATE
    result = family.results[0]
    run.stage("stability")
    report = run_stability(spec, result, perturbations, T=T, dt=dt,
                           record_every=int(block.get("record_every", 100)),
                           kappa=block.get("kappa", 4.0),
                           abs_tol=block.get("abs_tol", 1e-6), seed=seed)
    for i, trace in enumerate(report.traces):
        run.write(f"stability_trace_{i:02d}.csv", write_trace_csv, trace)
    run.write("stability.json", dump_json, stability_to_json(report))
    verdicts = [r.verdict for r in report.rows]
    run.say(f"stability verdicts: {verdicts}")
    return EXIT_OK


def cmd_sweep(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    sweep = config.get("sweep", {})
    w_params = sweep.get("w_params", {})
    deltas = resolve_deltas(config)
    names = sorted(w_params)
    grids = [w_params[n] for n in names]
    combos = list(itertools.product(*grids)) if names else [()]
    run.stage("sweep")
    statuses = {}
    # per W combination, resolved at its first point: a and s do not depend on delta
    combo_params = {}
    for idx, (values, delta) in enumerate(itertools.product(combos, deltas)):
        label = {"delta": delta, **{n: v for n, v in zip(names, values)}}
        # the config this point runs: its own W and its single delta
        sub = json.loads(json.dumps(config))
        sub["model"]["w"]["family"].update(zip(names, values))
        sub["penalty"] = {**config.get("penalty", {}), "delta": delta}
        name = f"run_{idx:03d}"
        sub_run = _Run(run.out / name, {**sub, "sweep_point": label}, seed, run.quiet)
        try:
            sub_spec = ModelSpec(spec.model_tag, spec.grid, wspec_from_json(sub["model"]["w"]))
        except ConfigError as err:
            statuses[name] = {"label": label, "status": f"invalid: {err}"}
            sub_run.finish("invalid", failure_stage="setup", error=err)
            continue
        try:
            combo = idx // len(deltas)
            if combo not in combo_params:
                combo_params[combo] = resolve_penalty(config, sub_spec)[0]
            params = replace(combo_params[combo], delta=delta)
            if _gated_chain(sub_run, sub, sub_spec, params, [delta]) is None:
                statuses[name] = {"label": label, "status": "gate_failed"}
                sub_run.finish("gate_failed", failure_stage="audit-gate")
                continue
            statuses[name] = {"label": label, "status": "ok"}
            sub_run.finish("ok")
        except Exception as err:  # per-run isolation: record and continue
            statuses[name] = {"label": label, "status": f"failed: {err}"}
            sub_run.finish("failed", failure_stage=sub_run.last_stage(), error=err)
    run.manifest["sweep_runs"] = statuses
    run.say(f"sweep complete: {len(statuses)} runs")
    return EXIT_OK


def cmd_demo(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    params, deltas = resolve_penalty(config, spec)
    family = _gated_chain(run, config, spec, params, deltas[:1])
    if family is None:
        return EXIT_GATE
    result = family.results[0]
    run.stage("profile")
    mu = spec.w.m_sq - 2.0 * result.lambda_mult
    x = spec.grid.axis_coordinates(0)
    psi = result.state.psi
    peak = int(np.argmax(np.abs(psi)))
    (d,) = min_image_distances(spec.grid, (x[peak],))
    oracle = np.sqrt(2.0 * mu) / np.cosh(np.sqrt(mu) * d) if mu > 0 else np.zeros_like(d)
    err = (np.sqrt(np.sum((np.abs(psi) - oracle) ** 2))
           / max(np.sqrt(np.sum(oracle**2)), 1e-300))
    run.write("soliton_profile.csv", write_profile, (x, psi, oracle))
    run.write("demo.json", dump_json,
              {"lambda0": family.lambda0, "mu": mu, "profile_rel_l2_error": float(err),
               "result": minimize_result_to_json(result)})
    run.say(f"demo: mu={mu:.6g}, profile error={err:.3e}")
    if not result.converged or err > 1e-3:
        raise NumericalFailure(f"demo pipeline out of tolerance (err={err:.3e})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hylosolve",
        description="Constrained-minimizer solitary waves: hypothesis audits, "
                    "penalized minimization, evolution, and stability experiments.")
    parser.add_argument("command",
                        choices=["check", "lambda0", "minimize", "evolve",
                                 "stability", "sweep", "demo"])
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config out_dir, else ./hylosolve-out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (unsigned 64-bit), which drives the "
                             "stability lab's random perturbations")
    parser.add_argument("--state", default=None,
                        help="field file with the initial state (evolve)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"check": cmd_check, "lambda0": cmd_lambda0, "minimize": cmd_minimize,
                "evolve": partial(cmd_evolve, state_path=args.state),
                "stability": cmd_stability, "sweep": cmd_sweep, "demo": cmd_demo}
    run = None
    try:
        if args.config:
            config = load_config(args.config)
        elif args.command == "demo":
            config = json.loads(json.dumps(DEMO_CONFIG))
        else:
            raise ConfigError("--config is required (only demo runs without one)")
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        # the streams take seeds modulo 2^64, so any other seed would run as
        # one the manifest does not record
        in_range = 0 <= seed < 2**64
        run = _Run(Path(args.out or config.get("out_dir", "hylosolve-out")), config,
                   seed if in_range else None, args.quiet)
        if not in_range:
            raise ConfigError(f"seed {seed} is outside the unsigned 64-bit range [0, 2^64)")
        code = handlers[args.command](run, config, build_spec(config), seed)
    except ConfigError as err:
        message = _capped(str(err))
        print(f"config error: {message}", file=sys.stderr)
        if run is None:  # no config loaded: the manifest goes to --out
            run = _Run(Path(args.out or "hylosolve-out"), {"config_path": args.config},
                       None, args.quiet)
        run.finish("config_error", failure_stage="config", error=message)
        return EXIT_CONFIG
    except (NumericalFailure, NearZeroCharge) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        run.finish("numerical_failure", failure_stage=run.last_stage(), error=err)
        return EXIT_NUMERICAL
    if code == EXIT_GATE:
        run.finish("gate_failed", failure_stage="audit-gate")
        print("hypothesis gate failed: see certificate.json", file=sys.stderr)
        return EXIT_GATE
    run.finish("ok")
    return code


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
