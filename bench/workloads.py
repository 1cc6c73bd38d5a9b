"""The four pinned workloads: their configs, CLI arguments and output checks.

Every workload runs one `hylosolve` subcommand through `cli_main`.  The
benchmark seed reaches the program only as the CLI `--seed`; everything else
in the configs is pinned, so one seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

NLS_1D = {
    "tag": "NLS", "n": [512], "box_length": [40.0],
    "w": {"m_sq": 1.0, "family": {"kind": "single_power", "b": 1.0, "p": 4.0}},
}
NWE_W = {"m_sq": 1.0, "family": {"kind": "double_power", "b": 1.0, "p": 4.0,
                                  "c": 0.3, "q_tilde": 6.0}}
NWE_1D = {"tag": "NWE", "n": [256], "box_length": [40.0], "w": NWE_W}
NWE_3D = {"tag": "NWE", "n": [64, 64, 64], "box_length": [16.0, 16.0, 16.0], "w": NWE_W}

MINIMIZE = {"max_iters": 40000, "grad_tol": 1e-8}
# eight penalty weights, geometric from 0.03 down to 5e-4
CONTINUATION_DELTAS = [0.03 * (5e-4 / 0.03) ** (i / 7) for i in range(8)]

# rotating Gaussian evolved by evolve-nwe3d: psi = A g, phi = -i omega A g
EVOLVE_SEED_STATE = {"amplitude": 1.0, "sigma": 1.5, "omega": 0.8}
EVOLVE_BLOCK = {"T": 1.0, "dt": 0.01, "record_every": 10}
EVOLVE_SAMPLES = 11  # t = 0, 0.1, ..., 1.0
# split-step drift on the pinned state is 3.6e-6 in energy and 2.4e-14 in
# charge; the bounds leave over an order of magnitude of room
EVOLVE_MAX_ENERGY_DRIFT = 1e-4
EVOLVE_MAX_CHARGE_DRIFT = 1e-12

DEMO_MAX_PROFILE_ERROR = 1e-3

SEEDS_NOTE = "Built on seeds 1-5; 6 and up held out."

WORKLOADS = {
    "demo-nls1d": {
        "command": "demo", "model": NLS_1D,
        "why": "Built-in NLS demo: ~90% probe families (audit, Gaussian searches, "
               "coercivity scan, lambda0), little descent, no evolution. " + SEEDS_NOTE,
    },
    "stability-nls1d": {
        "command": "stability", "model": NLS_1D,
        "why": "Stability lab: 40k overhead-bound split steps on 512-point arrays with "
               "V and orbit-distance records, after gate and minimize. " + SEEDS_NOTE,
    },
    "continuation-nwe1d": {
        "command": "minimize", "model": NWE_1D,
        "why": "8-link delta continuation of two-component NWE: descent-heavy, writes "
               "8 state files; the control for dynamics work. " + SEEDS_NOTE,
    },
    "evolve-nwe3d": {
        "command": "evolve", "model": NWE_3D,
        "why": "100 FFT-bound steps on 64^3 NWE read from a 15 MB field file; the "
               "control for gate and probe-family work. " + SEEDS_NOTE,
    },
}


class CheckFailed(Exception):
    """A run's outputs do not meet the workload's pinned expectations."""


def config(name: str, seed: int) -> dict:
    """The run configuration of one workload (seed only echoed; the CLI
    receives it as --seed)."""
    w = WORKLOADS[name]
    cfg = {"model": w["model"], "seed": seed}
    if name == "stability-nls1d":
        cfg.update(penalty={"delta": 0.03}, minimize=MINIMIZE, stability={
            "T": 20.0, "dt": 1e-3, "record_every": 100,
            "perturbations": [
                {"kind": "additive_noise", "eps": 0.01, "band_limit": 8, "seed": 3},
                {"kind": "amplitude_scale", "eps": 0.01},
            ]})
    elif name == "continuation-nwe1d":
        cfg.update(penalty={"delta": CONTINUATION_DELTAS}, minimize=MINIMIZE)
    elif name == "evolve-nwe3d":
        cfg.update(evolve=EVOLVE_BLOCK)
    return cfg


def prepare(name: str, seed: int, run_dir: Path, shared_dir: Path) -> list[str]:
    """Write the run's config and return the argv for `cli_main`.

    Input files shared by all runs of one benchmark invocation (the initial
    field of evolve-nwe3d) are expected in shared_dir, written once by
    `write_shared_inputs`."""
    run_dir.mkdir(parents=True, exist_ok=True)
    out = run_dir / "out"
    argv = [WORKLOADS[name]["command"], "--out", str(out), "--seed", str(seed), "--quiet"]
    if name == "demo-nls1d":
        return argv
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(config(name, seed), indent=2), encoding="utf-8")
    argv += ["--config", str(cfg_path)]
    if name == "evolve-nwe3d":
        argv += ["--state", str(shared_dir / "initial.field")]
    return argv


def has_shared_inputs(name: str) -> bool:
    return name == "evolve-nwe3d"


def write_shared_inputs(name: str, shared_dir: Path) -> None:
    """Write the pinned rotating Gaussian that evolve-nwe3d starts from.
    Needs `hylosolve` importable."""
    from hylosolve.fileio import write_field
    from hylosolve.functionals import gaussian_state
    s = EVOLVE_SEED_STATE
    state = gaussian_state(model_spec(name), s["amplitude"], s["sigma"], pair_param=s["omega"])
    write_field(state, shared_dir / "initial.field")


def model_spec(name: str):
    from hylosolve.cli import build_spec
    return build_spec({"model": WORKLOADS[name]["model"]})


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise CheckFailed(f"cannot read {path.name}: {err}") from err


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def check(name: str, out: Path) -> dict:
    """Check one run's outputs; return the physics outputs to record.

    Raises CheckFailed when an output is missing or out of its bound."""
    manifest = _load(out / "manifest.json")
    _require(manifest.get("status") == "ok", f"manifest status {manifest.get('status')!r}")
    return _CHECKS[name](out)


def _check_demo(out: Path) -> dict:
    d = _load(out / "demo.json")
    err, res = d["profile_rel_l2_error"], d["result"]
    _require(res["converged"], "demo minimizer did not converge")
    _require(err <= DEMO_MAX_PROFILE_ERROR, f"profile error {err:.3e} > {DEMO_MAX_PROFILE_ERROR}")
    return {"lambda0": d["lambda0"], "mu": d["mu"], "profile_error": err,
            "e_delta": res["e_delta"], "c_delta": res["c_delta"],
            "lambda": res["lambda_mult"], "kkt": res["kkt_residual"]}


def _check_stability(out: Path) -> dict:
    rows = _load(out / "stability.json")["rows"]
    _require(len(rows) == 2, f"{len(rows)} stability rows, expected 2")
    for r in rows:
        _require(not r["blew_up"], f"{r['perturbation']['kind']} blew up")
        _require(r["verdict"] == "stable", f"{r['perturbation']['kind']}: {r['verdict']}")
    res = _load(out / "minimize.json")["results"][0]
    return {"e_delta": res["e_delta"], "c_delta": res["c_delta"],
            "lambda": res["lambda_mult"],
            "max_v_over_v0": [r["max_v"] / r["v0"] for r in rows],
            "max_orbit_dist": [r["max_orbit_dist"] for r in rows]}


def _check_continuation(out: Path) -> dict:
    from hylosolve.fileio import read_field
    from hylosolve.grid import x_norm
    m = _load(out / "minimize.json")
    links = m["results"]
    _require(len(links) == len(CONTINUATION_DELTAS), f"{len(links)} links, expected 8")
    for i, link in enumerate(links):
        _require(link["converged"], f"link {i} did not converge")
        # README result contract: kkt <= 10 grad_tol (1 + ||u||_X)
        u_norm = x_norm(read_field(out / f"state_{i:02d}.field"))
        limit = 10.0 * MINIMIZE["grad_tol"] * (1.0 + u_norm)
        _require(link["kkt_residual"] <= limit,
                 f"link {i}: kkt {link['kkt_residual']:.3e} > {limit:.3e}")
    cs = [link["c_delta"] for link in links]
    _require(all(b > a for a, b in zip(cs, cs[1:])), f"c_delta not increasing: {cs}")
    return {"e_delta": [link["e_delta"] for link in links], "c_delta": cs,
            "lambda": [link["lambda_mult"] for link in links],
            "kkt": [link["kkt_residual"] for link in links]}


def _check_evolve(out: Path) -> dict:
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == EVOLVE_SAMPLES, f"{len(rows)} trace samples, expected {EVOLVE_SAMPLES}")
    e = [float(r["E"]) for r in rows]
    c = [float(r["C"]) for r in rows]
    _require(all(math.isfinite(x) for x in e + c), "non-finite trace value")
    e_drift = max(abs(x - e[0]) for x in e) / max(1.0, abs(e[0]))
    c_drift = max(abs(x - c[0]) for x in c) / max(1.0, abs(c[0]))
    _require(e_drift <= EVOLVE_MAX_ENERGY_DRIFT, f"energy drift {e_drift:.3e}")
    _require(c_drift <= EVOLVE_MAX_CHARGE_DRIFT, f"charge drift {c_drift:.3e}")
    return {"e0": e[0], "c0": c[0], "energy_drift": e_drift, "charge_drift": c_drift}


_CHECKS = {"demo-nls1d": _check_demo, "stability-nls1d": _check_stability,
           "continuation-nwe1d": _check_continuation, "evolve-nwe3d": _check_evolve}
