"""hylosolve benchmark: four CLI pipelines timed end to end, and a traced pass.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Load is a closed loop: one
`cli_main` call at a time, each in a fresh child process (so every run pays
the cold caches a CLI user pays) started from this single driver process,
with OMP/OPENBLAS/MKL_NUM_THREADS=1.  The seed reaches the program only as
the CLI `--seed`.  Every run's outputs are checked; a non-zero exit, an
exception escaping `cli_main`, a timeout or a failed check is a failed run.

--trace 0 repeats the workload for about S seconds (at least twice) and
reports medians over runs: `wall_s` (the `cli_main` call), `setup_s` (child
start -> `import hylosolve` -> config and input files written, plus the time
of the one child per invocation that writes evolve-nwe3d's shared 64^3 field
file) and `peak_rss_mb` (ru_maxrss of the run's process).  The failure count
is printed as `fail_ratio` and reported as `failed` / `attempted`.

--trace 1 makes one untraced run, two traced runs and a microbenchmark
pass, and reports the per-layer metrics of the first traced run.  It fails
its self-test unless the counts repeat exactly across the two traced runs,
the untraced run leaves every binding untouched, the traced runs restore
every wrapped binding, and the self times of a trace add up to `cli.run_s`.

Seeds 1-5 were used while the benchmark was built; 6 and above were held out.
CPU frequency and pinning are not controlled.  Per-run records, with the
physics outputs of each run, go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS, has_shared_inputs  # noqa: E402

HARD_LIMIT_S = 165.0  # every child is stopped before the invocation reaches this
MIN_RUNS = 2
SELF_SUM_RTOL = 1e-9  # self times tile the root span; only rounding separates them

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


class Driver:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.shared = self.work / "shared"
        self.records = []
        self.shared_setup_s = 0.0
        self.shared_error = None

    def write_shared_inputs(self) -> None:
        """Write the invocation's shared input files in a child of their own;
        its time counts toward every run's setup_s."""
        if not has_shared_inputs(self.workload):
            return
        self.shared.mkdir(parents=True)
        rec = self.child("inputs", record=False)
        if rec["ok"]:
            self.shared_setup_s = rec["setup_s"]
        else:
            self.shared_error = rec["error"]

    def remaining(self) -> float:
        return self.start + HARD_LIMIT_S - time.monotonic()

    def child(self, mode: str, trace: bool = False, record: bool = True) -> dict:
        run_dir = self.work / (f"run{len(self.records):02d}" if record else mode)
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        req = {"mode": mode, "workload": self.workload, "seed": self.seed,
               "run_dir": str(run_dir), "shared_dir": str(self.shared), "trace": trace,
               "spawned": time.monotonic()}
        timeout = max(1.0, self.remaining())
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(req)],
                                  cwd=ROOT, env=_child_env(), capture_output=True,
                                  text=True, timeout=timeout)
            result_path = run_dir / "result.json"
            if proc.returncode == 0 and result_path.is_file():
                rec = json.loads(result_path.read_text(encoding="utf-8"))
            else:
                rec = {"ok": False, "error": f"child exited {proc.returncode}: "
                                             f"{proc.stderr.strip()[-2000:]}"}
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            rec = {"ok": False, "error": f"timeout after {timeout:.0f} s"}
        rec.update(mode=mode, traced=trace, span_s=time.monotonic() - req["spawned"])
        shutil.rmtree(run_dir, ignore_errors=True)
        if record:
            self.records.append(rec)
        if not rec["ok"]:
            reason = rec.get("check_error") or rec["error"].strip().splitlines()[-1]
            print(f"  {mode} FAILED: {reason} (manifest status {rec.get('manifest_status')})",
                  flush=True)
        return rec

    def save(self, mode: str, stamp: dict, summary: dict) -> None:
        path = WORK / "results" / f"{self.workload}-seed{self.seed}-{mode}-{os.getpid()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"stamp": stamp, "summary": summary,
                                    "shared_setup_s": self.shared_setup_s,
                                    "shared_error": self.shared_error,
                                    "runs": self.records}, indent=1), encoding="utf-8")
        shutil.rmtree(self.work, ignore_errors=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def timed_pass(drv: Driver, seconds: float) -> dict:
    while True:
        drv.child("run")
        spent = time.monotonic() - drv.start
        per_run = statistics.mean(r["span_s"] for r in drv.records)
        if len(drv.records) >= MIN_RUNS and spent + per_run > seconds:
            break
        if per_run > drv.remaining():
            break
    runs = drv.records
    ok = [r for r in runs if r["ok"]]
    failed = len(runs) - len(ok)
    measured = ok or [r for r in runs if "wall_s" in r]
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = [r[name] for r in measured]
        if name == "setup_s":
            values = [drv.shared_setup_s + v for v in values]
        value = statistics.median(values) if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
        if values:
            q1, q3 = _quartiles(values)
            print(f"  {name:<12} median {value:.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}, "
                  f"n={len(values)})")
    print(f"  {'fail_ratio':<12} {failed / len(runs):.3f}  ({failed} of {len(runs)} runs failed)")
    return {"correct": bool(ok) and failed == 0, "attempted": len(runs),
            "failed": failed, "metrics": metrics}


def traced_pass(drv: Driver) -> dict:
    untraced = drv.child("run")
    traced = [drv.child("run", trace=True) for _ in range(2)]
    micro = drv.child("micro")
    runs = [untraced] + traced
    failed = sum(not r["ok"] for r in runs) + (not micro["ok"])
    problems = []
    if untraced["ok"] and not untraced["bindings_unchanged"]:
        problems.append("untraced run changed a binding")
    for r in traced:
        if r["ok"] and not r["bindings_unchanged"]:
            problems.append("traced run left a binding wrapped")
        if r["ok"]:
            run_s = r["trace"]["cli.run_s"]
            if abs(r["self_sum_s"] - run_s) > SELF_SUM_RTOL * run_s:
                problems.append(f"self times sum to {r['self_sum_s']!r}, cli.run_s {run_s!r}")
    if all(r["ok"] for r in traced):
        a, b = (r["trace"] for r in traced)
        problems += [f"{k} differs: {a[k]} vs {b[k]}" for k in COUNT_METRICS if a[k] != b[k]]
    for p in problems:
        print(f"  SELF-TEST FAILED: {p}")

    metrics = {}
    if failed == 0:
        values = dict(traced[0]["trace"])
        values.update(micro["micro"])
        values["cli.tracing_overhead_ratio"] = values["cli.run_s"] / untraced["wall_s"]
        values["cli.cpu_s"] = untraced["cpu_s"]
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": _layer_unit(name)}
            print(f"  {name:<42} {value:.6g} {_layer_unit(name)}")
    print(f"  {'fail_ratio':<42} {failed / (len(runs) + 1):.3f}  "
          f"({failed} of {len(runs) + 1} runs failed)")
    return {"correct": failed == 0 and not problems, "attempted": len(runs) + 1,
            "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("fileio.bytes"):
        return "bytes"
    return "count"


def stamp(seed: int) -> dict:
    import numpy as np
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft)",
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit or "unknown (not a git checkout)", "seed": seed,
        "cpu_frequency_and_pinning": "not controlled",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hylosolve" / "cli.py").is_file():
        print(f"no hylosolve sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    env = stamp(args.seed)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {json.dumps(env)}", flush=True)
    drv = Driver(args.workload, args.seed)
    drv.write_shared_inputs()
    mode = "traced" if args.trace else "timed"
    summary = traced_pass(drv) if args.trace else timed_pass(drv, args.seconds)
    drv.save(mode, env, summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
