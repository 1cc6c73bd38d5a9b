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
