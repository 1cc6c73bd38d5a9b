"""Per-layer tracing of one `cli_main` call, from outside the program.

`Tracer.install` replaces each traced public function by a wrapper in every
`hylosolve` module that has it bound (so `from .models import energy` call
sites are seen too), and `Tracer.restore` puts every original back.  Spans
nest through a stack: a span's self time is its duration minus the time of
the spans it opened, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

WRAPPED = "__bench_wrapped__"

# (module, attribute, span label); a label ending in "#" is counted, not timed
SPANS = [
    ("hylosolve.checkers", "audit", "checkers.audit"),
    ("hylosolve.functionals", "choose_coercivity_params", "functionals.choose_coercivity_params"),
    ("hylosolve.functionals", "hylomorphy_check", "functionals.hylomorphy_check"),
    ("hylosolve.functionals", "penalized_probe_seed", "functionals.penalized_probe_seed"),
    ("hylosolve.functionals", "lambda0_estimate", "functionals.lambda0_estimate"),
    ("hylosolve.functionals", "nash_check", "functionals.nash_check"),
    ("hylosolve.functionals", "lambda_ratio", "functionals.lambda_ratio"),
    ("hylosolve.functionals", "j_delta", "functionals.j_delta"),
    ("hylosolve.minimize", "delta_continuation", "minimize.delta_continuation"),
    ("hylosolve.minimize", "minimize_jdelta", "minimize.minimize_jdelta"),
    ("hylosolve.minimize", "refine_constrained", "minimize.refine_constrained"),
    ("hylosolve.models", "energy", "models.energy"),
    ("hylosolve.models", "grad_energy", "models.grad_energy"),
    ("hylosolve.models", "charge", "models.charge"),
    ("hylosolve.models", "evolve_step", "models.evolve_step"),
    ("hylosolve.nonlinearity", "w_eval", "nonlinearity.w_eval"),
    ("hylosolve.grid", "orbit_distance", "grid.orbit_distance"),
    ("hylosolve.grid", "random_band_limited", "grid.random_band_limited"),
    ("hylosolve.dynamics", "evolve", "dynamics.evolve"),
    ("hylosolve.stability", "run_stability", "stability.run_stability"),
    ("hylosolve.fileio", "read_field", "fileio.read_field"),
    ("hylosolve.fileio", "write_field", "fileio.write_field"),
    ("hylosolve.fileio", "write_trace_csv", "fileio.write_trace_csv"),
    ("hylosolve.fileio", "write_descent_log", "fileio.write_descent_log"),
    ("hylosolve.fileio", "dump_json", "fileio.dump_json"),
]
COUNTS = [
    ("numpy.fft", "fftn", "grid.fft#"),
    ("numpy.fft", "ifftn", "grid.fft#"),
]
# names bound in hylosolve.dynamics that evolve calls at each record point
RECORD_NAMES = ["energy", "charge", "sharp_seminorm", "state_x_norm", "lyapunov_v",
                "orbit_distance"]
DESCENT = ("minimize.minimize_jdelta", "minimize.refine_constrained")
FILE_READERS = {"fileio.read_field"}
FILE_WRITERS = {"fileio.write_field", "fileio.write_trace_csv",
                "fileio.write_descent_log", "fileio.dump_json"}


def _hylosolve_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hylosolve" or name.startswith("hylosolve."))]


def bindings() -> dict:
    """Identity of every function and class attribute the tracer may replace.

    Taken before and after a run, it shows whether wrappers were installed
    or left behind."""
    from hylosolve.grid import FieldState
    out = {("FieldState", "__init__"): id(FieldState.__dict__["__init__"])}
    for mod in _hylosolve_modules() + [np.fft]:
        for attr, val in vars(mod).items():
            if callable(val):
                out[(mod.__name__, attr)] = id(val)
    return out


def wrapped_bindings() -> list:
    """Names currently bound to a tracer wrapper."""
    from hylosolve.grid import FieldState
    found = [("FieldState", "__init__")] if hasattr(FieldState.__init__, WRAPPED) else []
    for mod in _hylosolve_modules() + [np.fft]:
        found += [(mod.__name__, a) for a, v in vars(mod).items() if hasattr(v, WRAPPED)]
    return found


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.active = defaultdict(int)
        self.stack = []  # [label, time spent in child spans]
        self.energy_in_descent = 0
        self.steps_in_evolve = 0
        self.iters = defaultdict(int)
        self.bytes_read = 0
        self.bytes_written = 0
        self._saved = []  # (owner, attribute, original), in install order

    # -- spans ---------------------------------------------------------------
    def _enter(self, label):
        self.calls[label] += 1
        self.active[label] += 1
        self.stack.append([label, 0.0])
        return time.perf_counter()

    def _exit(self, label, t0):
        dur = time.perf_counter() - t0
        _, child = self.stack.pop()
        self.active[label] -= 1
        if not self.active[label]:  # outermost span of this label owns the total
            self.total[label] += dur
        self.self_time[label] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def span(self, label, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._note_call(label, args)
            t0 = tracer._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(label, t0)
            tracer._note_result(label, args, result)
            return result

        setattr(wrapper, WRAPPED, label)
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, label, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED, label)
        wrapper.__wrapped__ = fn
        return wrapper

    def _note_call(self, label, args):
        if label == "models.energy" and any(self.active[d] for d in DESCENT):
            self.energy_in_descent += 1
        elif label == "models.evolve_step" and self.active["dynamics.evolve"]:
            self.steps_in_evolve += 1

    def _note_result(self, label, args, result):
        if label in DESCENT:
            self.iters[label] += result.iters
        elif label in FILE_READERS:
            self.bytes_read += os.path.getsize(args[0])
        elif label in FILE_WRITERS:
            self.bytes_written += os.path.getsize(args[1])

    def run(self, fn, *args):
        """Call fn under the root span `cli.run`."""
        t0 = self._enter("cli.run")
        try:
            return fn(*args)
        finally:
            self._exit("cli.run", t0)

    # -- install / restore ---------------------------------------------------
    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, original, wrapper, owners):
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is original:
                    self._replace(owner, attr, wrapper)

    def install(self):
        from hylosolve.grid import FieldState
        mods = _hylosolve_modules()
        for modname, attr, label in SPANS:
            original = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(original, self.span(label, original), mods)
        for modname, attr, label in COUNTS:
            mod = sys.modules[modname]
            self._replace(mod, attr, self.counter(label, getattr(mod, attr)))
        self._replace(FieldState, "__init__",
                      self.counter("grid.fieldstate#", FieldState.__dict__["__init__"]))
        dyn = sys.modules["hylosolve.dynamics"]
        for attr in RECORD_NAMES:
            self._replace(dyn, attr, self.span("dynamics.record", getattr(dyn, attr)))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def self_sum(self) -> float:
        return sum(self.self_time.values())

    def metrics(self) -> dict:
        c, tot, st = self.calls, self.total, self.self_time
        free, refine = self.iters[DESCENT[0]], self.iters[DESCENT[1]]
        evolve_s, record_s = tot["dynamics.evolve"], tot["dynamics.record"]
        steps = self.steps_in_evolve
        return {
            "checkers.audit_s": tot["checkers.audit"],
            "checkers.audit_self_s": st["checkers.audit"],
            "checkers.audit_calls": c["checkers.audit"],
            "functionals.choose_coercivity_params_s": tot["functionals.choose_coercivity_params"],
            "functionals.hylomorphy_check_s": tot["functionals.hylomorphy_check"],
            "functionals.penalized_probe_seed_s": tot["functionals.penalized_probe_seed"],
            "functionals.lambda0_estimate_s": tot["functionals.lambda0_estimate"],
            "functionals.nash_check_s": tot["functionals.nash_check"],
            "functionals.lambda0_estimate_calls": c["functionals.lambda0_estimate"],
            "functionals.nash_check_calls": c["functionals.nash_check"],
            "functionals.penalized_probe_seed_calls": c["functionals.penalized_probe_seed"],
            "functionals.probe_evals": c["functionals.lambda_ratio"] + c["functionals.j_delta"],
            "minimize.delta_continuation_s": tot["minimize.delta_continuation"],
            "minimize.minimize_jdelta_s": tot["minimize.minimize_jdelta"],
            "minimize.refine_constrained_s": tot["minimize.refine_constrained"],
            "minimize.free_iters": free,
            "minimize.refine_iters": refine,
            "minimize.armijo_accept_ratio":
                (free + refine) / self.energy_in_descent if self.energy_in_descent else 0.0,
            "models.energy_calls": c["models.energy"],
            "models.grad_energy_calls": c["models.grad_energy"],
            "models.charge_calls": c["models.charge"],
            "models.evolve_step_calls": c["models.evolve_step"],
            "models.energy_s": st["models.energy"],
            "models.grad_energy_s": st["models.grad_energy"],
            "models.evolve_step_s": st["models.evolve_step"],
            "nonlinearity.w_eval_calls": c["nonlinearity.w_eval"],
            "nonlinearity.w_eval_s": tot["nonlinearity.w_eval"],
            "grid.fft_calls": c["grid.fft#"],
            "grid.fieldstate_builds": c["grid.fieldstate#"],
            "grid.orbit_distance_calls": c["grid.orbit_distance"],
            "grid.orbit_distance_s": tot["grid.orbit_distance"],
            "grid.random_band_limited_s": tot["grid.random_band_limited"],
            "dynamics.evolve_s": evolve_s,
            "dynamics.steps": steps,
            "dynamics.record_s": record_s,
            "dynamics.step_us": 1e6 * (evolve_s - record_s) / steps if steps else 0.0,
            "stability.run_stability_s": tot["stability.run_stability"],
            "fileio.read_field_s": tot["fileio.read_field"],
            "fileio.write_field_s": tot["fileio.write_field"],
            "fileio.write_trace_csv_s": tot["fileio.write_trace_csv"],
            "fileio.bytes_read": self.bytes_read,
            "fileio.bytes_written": self.bytes_written,
            "cli.run_s": tot["cli.run"],
        }


# counts that must repeat exactly across two traced runs of one seed
COUNT_METRICS = [
    "checkers.audit_calls", "functionals.lambda0_estimate_calls",
    "functionals.nash_check_calls", "functionals.penalized_probe_seed_calls",
    "functionals.probe_evals", "minimize.free_iters", "minimize.refine_iters",
    "models.energy_calls", "models.grad_energy_calls", "models.charge_calls",
    "models.evolve_step_calls", "nonlinearity.w_eval_calls", "grid.fft_calls",
    "grid.fieldstate_builds", "grid.orbit_distance_calls", "dynamics.steps",
    "fileio.bytes_read", "fileio.bytes_written",
]
