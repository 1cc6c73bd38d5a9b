import tracemalloc

import numpy as np
import pytest

from hylosolve import grid as gridmod
from hylosolve import (Grid, MinimizeOptions, ModelSpec, SinglePower, WSpec,
                       choose_coercivity_params, minimize_jdelta,
                       refine_constrained)


@pytest.fixture(scope="session")
def nls_acceptance_spec():
    """The focusing cubic-NLS workbench configuration used by the
    acceptance pipeline: m^2 = 1, N(s) = -s^4/4, L = 40, n = 512."""
    return ModelSpec("NLS", Grid((512,), (40.0,)),
                     WSpec(1.0, SinglePower(1.0, 4.0)))


@pytest.fixture(scope="session")
def nls_params(nls_acceptance_spec):
    return choose_coercivity_params(nls_acceptance_spec, delta=0.03)


@pytest.fixture(scope="session")
def soliton(nls_acceptance_spec, nls_params):
    """Converged minimizer of the acceptance model, with the wall time of
    the minimize + refine pipeline attached (criterion 1 budgets it)."""
    import time

    spec = nls_acceptance_spec
    opts = MinimizeOptions(max_iters=40000, grad_tol=1e-8)
    t0 = time.perf_counter()
    free = minimize_jdelta(spec, nls_params, opts=opts)
    refined = refine_constrained(spec, free.c_delta, free.state, opts=opts,
                                 params=nls_params)
    elapsed = time.perf_counter() - t0
    return {"free": free, "refined": refined, "seconds": elapsed}


@pytest.fixture
def transform_sizes(monkeypatch):
    """The size of the array passed to every hylosolve.grid.fft or ifft call
    from here on (every transform the package makes goes through them)."""
    sizes = []
    for name in ("fft", "ifft"):
        original = getattr(gridmod, name)

        def recorded(values, *args, _original=original, **kwargs):
            sizes.append(np.size(values))
            return _original(values, *args, **kwargs)

        monkeypatch.setattr(gridmod, name, recorded)
    return sizes


@pytest.fixture
def traced_peak():
    """peak(call): run call() once to warm the caches (symbol tables,
    propagators, transform plans), then again under tracemalloc, where numpy
    reports its array allocations, and return the second run's peak traced
    bytes above the level before it.  Deterministic, unlike ru_maxrss."""
    def peak(call) -> int:
        call()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            call()
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top - before
    return peak
