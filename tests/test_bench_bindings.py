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
