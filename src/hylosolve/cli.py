"""Command-line surface.

Subcommands: check, lambda0, minimize, evolve, stability, sweep, demo.
Exit codes: 0 success, 2 invalid config, 3 numerical failure, 4 hypothesis
gate failed.  Every run writes a manifest (config echo, version, start
and end times, wall seconds per stage, sha256 of each output, certificate
summary), also on failure with the failing stage recorded.
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
from pathlib import Path

import numpy as np

from . import __version__
from .checkers import audit, gate_passed
from .dynamics import evolve
from .exceptions import NearZeroCharge, NumericalFailure
from .fileio import (ConfigError, certificate_to_json, dump_json, load_config,
                     minimize_result_to_json, penalty_to_json, read_field,
                     stability_to_json, write_descent_log, write_field,
                     write_trace_csv, wspec_from_json)
from .functionals import (PenaltyParams, choose_coercivity_params,
                          lambda0_estimate, penalized_probe_seed)
from .grid import Grid, min_image_distances
from .minimize import MinimizeOptions, delta_continuation
from .models import ModelSpec
from .stability import Perturbation, run_stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GATE = 4

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
    """Output directory, manifest bookkeeping, and chatter control."""

    def __init__(self, out_dir: Path, config: dict, quiet: bool):
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
        self._stage_start = None

    def say(self, msg: str):
        if not self.quiet:
            print(msg)

    def stage(self, name: str):
        self._close_stage()
        self.manifest["stages"].append(name)
        self._stage_start = time.perf_counter()

    def _close_stage(self):
        # Fixed-width strings ('%.6e'), so the manifest's byte length does
        # not depend on the measured times.
        if self._stage_start is not None:
            seconds = time.perf_counter() - self._stage_start
            self.manifest["stage_seconds"].append(f"{seconds:.6e}")
            self._stage_start = None

    def register(self, path: Path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.manifest["outputs"][path.name] = digest

    def finish(self, status: str, failure_stage: str | None = None,
               error: str | None = None):
        self._close_stage()
        self.manifest["status"] = status
        self.manifest["ended"] = _now()
        if failure_stage:
            self.manifest["failure_stage"] = failure_stage
        if error:
            self.manifest["error"] = error
        dump_json(self.manifest, self.out / "manifest.json")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def build_spec(config: dict) -> ModelSpec:
    """The model a config describes; a grid or model the schema admits but
    the constructors reject is a config error."""
    m = config["model"]
    w = wspec_from_json(m["w"])
    try:
        return ModelSpec(m["tag"], Grid(tuple(m["n"]), tuple(m["box_length"])), w)
    except ValueError as err:
        raise ConfigError(f"invalid model: {err}") from err


def resolve_penalty(config: dict, spec: ModelSpec, seed: int) -> tuple[PenaltyParams, list[float]]:
    block = config.get("penalty", {})
    delta = block.get("delta", 0.03)
    deltas = [float(d) for d in (delta if isinstance(delta, list) else [delta])]
    deltas = sorted(set(deltas), reverse=True)
    a = block.get("a", "auto")
    s_exp = block.get("s_exp", "auto")
    if a == "auto" or s_exp == "auto":
        params = choose_coercivity_params(spec, delta=deltas[0], seed=seed)
        if a != "auto":
            params = replace(params, a=float(a))
        if s_exp != "auto":
            params = replace(params, s_exp=float(s_exp))
    else:
        params = PenaltyParams(delta=deltas[0], a=float(a), s_exp=float(s_exp))
    return params, deltas


def resolve_options(config: dict) -> MinimizeOptions:
    return MinimizeOptions(**config.get("minimize", {}))


def _perturbations(config: dict) -> list[Perturbation]:
    block = config.get("stability", {})
    out = []
    for p in block.get("perturbations", [{"kind": "additive_noise", "eps": 0.01}]):
        kind = p["kind"]
        if kind == "additive_noise":
            out.append(Perturbation.additive_noise(p.get("eps", 0.01),
                                                   p.get("band_limit", 8),
                                                   p.get("seed", 0)))
        elif kind == "amplitude_scale":
            out.append(Perturbation.amplitude_scale(p.get("eps", 0.01)))
        else:
            out.append(Perturbation.shift_and_phase(p.get("z", [0]), p.get("theta", 0.0)))
    return out


def _run_gate(run: _Run, spec: ModelSpec, params: PenaltyParams, seed: int,
              budget: int = 2000):
    run.stage("audit-gate")
    cert = audit(spec, params, budget=budget, seed=seed)
    path = run.out / "certificate.json"
    dump_json(certificate_to_json(cert), path)
    run.register(path)
    ok = gate_passed(cert)
    summary = {k: v.verdict for k, v in cert.results.items()}
    run.manifest["certificate_summary"] = summary
    run.say(f"hypothesis gate: {'PASS' if ok else 'FAIL'} ({summary})")
    return ok


def _minimize_chain(run: _Run, spec: ModelSpec, params: PenaltyParams,
                    deltas: list[float], opts: MinimizeOptions):
    run.stage("minimize")
    family = delta_continuation(spec, deltas, opts=opts, params=params)
    rows = []
    for i, (d, res) in enumerate(zip(family.deltas, family.results)):
        tag = f"{i:02d}"
        state_path = run.out / f"state_{tag}.field"
        write_field(res.state, state_path)
        run.register(state_path)
        log_path = run.out / f"descent_{tag}.csv"
        write_descent_log(res, log_path)
        run.register(log_path)
        rows.append({"delta": d, **minimize_result_to_json(res)})
        run.say(f"delta={d:g}: e={res.e_delta:.6g} c={res.c_delta:.6g} "
                f"kkt={res.kkt_residual:.2e} iters={res.iters}")
    out = {
        "penalty": penalty_to_json(params),
        "lambda0": family.lambda0,
        "results": rows,
        "orbit_distances": family.orbit_distances.tolist(),
    }
    path = run.out / "minimize.json"
    dump_json(out, path)
    run.register(path)
    return family


def cmd_check(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    run.stage("audit")
    cert = audit(spec, None, budget=2000, seed=seed)
    path = run.out / "certificate.json"
    dump_json(certificate_to_json(cert), path)
    run.register(path)
    run.manifest["certificate_summary"] = {k: v.verdict for k, v in cert.results.items()}
    run.say(f"certificate written ({'gate PASS' if gate_passed(cert) else 'gate FAIL'})")
    return EXIT_OK


def cmd_lambda0(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    run.stage("lambda0")
    est = lambda0_estimate(spec)
    path = run.out / "lambda0.json"
    dump_json({"lambda0_estimate": est,
               "note": "probe-family estimate (vanishing and spreading bumps)"}, path)
    run.register(path)
    run.say(f"lambda0 estimate: {est:.6g}")
    return EXIT_OK


def cmd_minimize(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    params, deltas = resolve_penalty(config, spec, seed)
    if not _run_gate(run, spec, params, seed):
        return EXIT_GATE
    opts = resolve_options(config)
    _minimize_chain(run, spec, params, deltas, opts)
    return EXIT_OK


def cmd_evolve(run: _Run, config: dict, spec: ModelSpec, seed: int,
               state_path: str | None) -> int:
    block = config.get("evolve")
    if block is None:
        raise ConfigError("evolve subcommand needs an 'evolve' config block")
    if state_path:
        state0 = read_field(state_path)
        if state0.model_tag != spec.model_tag or state0.grid != spec.grid:
            raise ConfigError(
                f"--state holds a {state0.model_tag} field on grid n={list(state0.grid.n)}, "
                f"L={list(state0.grid.box_length)}; the config describes a "
                f"{spec.model_tag} model on n={list(spec.grid.n)}, "
                f"L={list(spec.grid.box_length)}")
    else:
        params, _ = resolve_penalty(config, spec, seed)
        state0, _ = penalized_probe_seed(spec, params)
        run.say("no --state given: evolving the best penalized Gaussian probe")
    run.stage("evolve")
    trace = evolve(spec, state0, block["T"], block["dt"],
                   record_every=block.get("record_every", 1))
    path = run.out / "trace.csv"
    write_trace_csv(trace, path)
    run.register(path)
    if trace.blew_up:
        raise NumericalFailure("evolution aborted on blow-up (partial trace written)")
    run.say(f"trace written: {trace.times.size} samples")
    return EXIT_OK


def cmd_stability(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    params, deltas = resolve_penalty(config, spec, seed)
    if not _run_gate(run, spec, params, seed):
        return EXIT_GATE
    opts = resolve_options(config)
    family = _minimize_chain(run, spec, params, deltas[:1], opts)
    result = family.results[0]
    block = config.get("stability", {})
    run.stage("stability")
    report = run_stability(spec, result, _perturbations(config),
                           T=block.get("T", 10.0), dt=block.get("dt", 1e-3),
                           record_every=block.get("record_every", 100),
                           kappa=block.get("kappa", 4.0),
                           abs_tol=block.get("abs_tol", 1e-6), seed=seed)
    for i, trace in enumerate(report.traces):
        tpath = run.out / f"stability_trace_{i:02d}.csv"
        write_trace_csv(trace, tpath)
        run.register(tpath)
    path = run.out / "stability.json"
    dump_json(stability_to_json(report), path)
    run.register(path)
    verdicts = [r.verdict for r in report.rows]
    run.say(f"stability verdicts: {verdicts}")
    return EXIT_OK


def cmd_sweep(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    sweep = config.get("sweep", {})
    w_params = sweep.get("w_params", {})
    _, deltas = resolve_penalty(config, spec, seed)
    names = sorted(w_params)
    grids = [w_params[n] for n in names]
    combos = list(itertools.product(*grids)) if names else [()]
    run.stage("sweep")
    statuses = {}
    for idx, combo in enumerate(itertools.product(combos, deltas)):
        values, delta = combo
        sub = dict(config)
        w = json.loads(json.dumps(config["model"]["w"]))
        for n, v in zip(names, values):
            w["family"][n] = v
        sub_dir = run.out / f"run_{idx:03d}"
        label = {"delta": delta, **{n: v for n, v in zip(names, values)}}
        try:
            sub_spec = ModelSpec(spec.model_tag, spec.grid, wspec_from_json(w))
            sub_run = _Run(sub_dir, {**sub, "sweep_point": label}, run.quiet)
            try:
                params, _ = resolve_penalty({**config, "penalty":
                                             {**config.get("penalty", {}), "delta": delta}},
                                            sub_spec, seed)
                if not _run_gate(sub_run, sub_spec, params, seed):
                    statuses[sub_dir.name] = {"label": label, "status": "gate_failed"}
                    sub_run.finish("gate_failed", failure_stage="audit-gate")
                    continue
                opts = resolve_options(config)
                _minimize_chain(sub_run, sub_spec, params, [delta], opts)
                statuses[sub_dir.name] = {"label": label, "status": "ok"}
                sub_run.finish("ok")
            except Exception as err:  # per-run isolation: record and continue
                statuses[sub_dir.name] = {"label": label, "status": f"failed: {err}"}
                sub_run.finish("failed", failure_stage="minimize", error=str(err))
        except ConfigError as err:
            statuses[sub_dir.name] = {"label": label, "status": f"invalid: {err}"}
    run.manifest["sweep_runs"] = statuses
    run.say(f"sweep complete: {len(statuses)} runs")
    return EXIT_OK


def cmd_demo(run: _Run, config: dict, spec: ModelSpec, seed: int) -> int:
    params, deltas = resolve_penalty(config, spec, seed)
    if not _run_gate(run, spec, params, seed):
        return EXIT_GATE
    run.stage("lambda0")
    lam0 = lambda0_estimate(spec)
    opts = resolve_options(config)
    family = _minimize_chain(run, spec, params, deltas[:1], opts)
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
    path = run.out / "soliton_profile.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,psi_re,psi_im,abs_psi,profile_fit\n")
        for i in range(x.size):
            fh.write(f"{x[i]:.17g},{psi[i].real:.17g},{psi[i].imag:.17g},"
                     f"{abs(psi[i]):.17g},{oracle[i]:.17g}\n")
    run.register(path)
    summary_path = run.out / "demo.json"
    dump_json({"lambda0": lam0, "mu": mu, "profile_rel_l2_error": float(err),
               "result": minimize_result_to_json(result)}, summary_path)
    run.register(summary_path)
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
                        help="override the config seed (unsigned 64-bit)")
    parser.add_argument("--state", default=None,
                        help="field file with the initial state (evolve)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config(args.config)
        elif args.command == "demo":
            config = json.loads(json.dumps(DEMO_CONFIG))
        else:
            raise ConfigError("--config is required (only demo runs without one)")
        spec = build_spec(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        run = _Run(Path(args.out or "hylosolve-out"), {"config_path": args.config},
                   args.quiet)
        run.finish("config_error", failure_stage="config", error=str(err))
        return EXIT_CONFIG
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out_dir = Path(args.out or config.get("out_dir", "hylosolve-out"))
    run = _Run(out_dir, config, args.quiet)
    handlers = {
        "check": lambda: cmd_check(run, config, spec, seed),
        "lambda0": lambda: cmd_lambda0(run, config, spec, seed),
        "minimize": lambda: cmd_minimize(run, config, spec, seed),
        "evolve": lambda: cmd_evolve(run, config, spec, seed, args.state),
        "stability": lambda: cmd_stability(run, config, spec, seed),
        "sweep": lambda: cmd_sweep(run, config, spec, seed),
        "demo": lambda: cmd_demo(run, config, spec, seed),
    }
    try:
        code = handlers[args.command]()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        run.finish("config_error", failure_stage="config", error=str(err))
        return EXIT_CONFIG
    except (NumericalFailure, NearZeroCharge, ValueError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        stage = run.manifest["stages"][-1] if run.manifest["stages"] else "setup"
        run.finish("numerical_failure", failure_stage=stage, error=str(err))
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
