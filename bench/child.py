"""One benchmark run in a fresh process: `python3 bench/child.py '<request json>'`.

The request names the mode (`inputs`, `run` or `micro`), the workload, the
seed, the run and shared-input directories and the parent's CLOCK_MONOTONIC
reading at spawn.  `inputs` writes the input files shared by all runs of an
invocation.  A `run` writes its config, calls `cli_main` once (traced or
not) and checks the outputs.  Each writes `result.json` into its run
directory.  Users
pay cold caches on every CLI invocation, so nothing is warmed up first.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run(req: dict) -> dict:
    from hylosolve.cli import cli_main

    import tracer
    import workloads

    name, run_dir = req["workload"], Path(req["run_dir"])
    argv = workloads.prepare(name, req["seed"], run_dir, Path(req["shared_dir"]))
    setup_s = time.monotonic() - req["spawned"]

    before = tracer.bindings()
    tr = tracer.Tracer() if req["trace"] else None
    code, error = None, None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        if tr is None:
            code = cli_main(argv)
        else:
            tr.install()
            code = tr.run(cli_main, argv)
    except (Exception, SystemExit):  # a failed operation: record it and go on
        error = traceback.format_exc(limit=-3)
    finally:
        if tr is not None:
            tr.restore()
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    bindings_unchanged = tracer.bindings() == before and not tracer.wrapped_bindings()

    out = run_dir / "out"
    try:
        manifest_status = json.loads((out / "manifest.json").read_text())["status"]
    except (OSError, ValueError, KeyError):
        manifest_status = None
    physics, check_error = None, None
    if code == 0:
        try:
            physics = workloads.check(name, out)
        except workloads.CheckFailed as err:
            check_error = str(err)
    elif error is None:
        error = f"cli_main returned exit code {code}"
    result = {
        "ok": code == 0 and check_error is None,
        "exit_code": code, "error": error, "check_error": check_error,
        "manifest_status": manifest_status, "physics": physics,
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bindings_unchanged": bindings_unchanged,
    }
    if tr is not None:
        result["trace"] = tr.metrics()
        result["self_sum_s"] = tr.self_sum()
    return result


def inputs(req: dict) -> dict:
    import workloads
    workloads.write_shared_inputs(req["workload"], Path(req["shared_dir"]))
    return {"ok": True, "setup_s": time.monotonic() - req["spawned"]}


def micro(req: dict) -> dict:
    import micro as micro_bench
    import workloads
    return {"ok": True, "micro": micro_bench.measure(workloads.model_spec(req["workload"]))}


def main() -> int:
    req = json.loads(sys.argv[1])
    result = {"inputs": inputs, "run": run, "micro": micro}[req["mode"]](req)
    Path(req["run_dir"], "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
