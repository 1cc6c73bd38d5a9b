"""The traced benchmark pass rebinds functions by module and name; every
name it lists must still resolve, or the traced pass breaks silently."""

import importlib
import importlib.util
from pathlib import Path

import hylosolve  # noqa: F401  (imports every hylosolve module the tracer names)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = _load_tracer()
    for modname, attr, _ in tracer.SPANS + tracer.COUNTS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    dynamics = importlib.import_module("hylosolve.dynamics")
    for attr in tracer.RECORD_NAMES:
        assert callable(getattr(dynamics, attr)), attr


def test_continuation_calls_descent_through_module_globals(monkeypatch):
    """The tracer's minimize.free_iters, refine_iters and armijo_accept_ratio
    come from rebinding minimize_jdelta and refine_constrained in
    hylosolve.minimize; delta_continuation must reach both through those
    names, not through the private driver behind them."""
    from hylosolve import Grid, MinimizeOptions, ModelSpec, PenaltyParams, SinglePower, WSpec
    minimize = importlib.import_module("hylosolve.minimize")
    seen = {"minimize_jdelta": [], "refine_constrained": []}
    for name, calls in seen.items():
        def counting(*args, _original=getattr(minimize, name), _calls=calls, **kwargs):
            result = _original(*args, **kwargs)
            _calls.append(result.iters)
            return result
        monkeypatch.setattr(minimize, name, counting)
    spec = ModelSpec("NLS", Grid((256,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0)))
    params = PenaltyParams(delta=0.03, a=0.02, s_exp=3.0)
    family = minimize.delta_continuation(spec, [0.03], params=params,
                                         opts=MinimizeOptions(grad_tol=1e-7))
    assert seen["minimize_jdelta"] == family.free_iters
    assert seen["refine_constrained"] == [r.iters for r in family.results]
    assert family.free_iters[0] > 0


def test_stability_lab_evolves_one_stack_through_module_globals(monkeypatch,
                                                               nls_acceptance_spec,
                                                               soliton):
    """The tracer's dynamics.evolve_s, dynamics.steps and models.evolve_step_*
    come from rebinding evolve in hylosolve.stability and evolve_step in
    hylosolve.dynamics; run_stability must evolve all its rows with one
    evolve call, which must advance them with one evolve_step call per
    record block."""
    from hylosolve import Perturbation
    stability = importlib.import_module("hylosolve.stability")
    dynamics = importlib.import_module("hylosolve.dynamics")
    evolve_rows, step_rows = [], []

    def counting_evolve(spec, states, *args, _original=stability.evolve, **kwargs):
        evolve_rows.append(len(states))
        return _original(spec, states, *args, **kwargs)

    def counting_step(spec, states, *args, _original=dynamics.evolve_step, **kwargs):
        step_rows.append(len(states))
        return _original(spec, states, *args, **kwargs)

    monkeypatch.setattr(stability, "evolve", counting_evolve)
    monkeypatch.setattr(dynamics, "evolve_step", counting_step)
    perts = [Perturbation.additive_noise(1e-2, seed=3), Perturbation.amplitude_scale(1e-2)]
    # 500 steps in record blocks of 150, 150, 150 and 50
    report = stability.run_stability(nls_acceptance_spec, soliton["refined"], perts,
                                     T=0.5, dt=1e-3, record_every=150)
    assert len(report.rows) == 2
    assert evolve_rows == [2]
    assert step_rows == [2, 2, 2, 2]
