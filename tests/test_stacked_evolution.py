"""Several initial states evolved as one stack against each evolved alone:
every row's trace and final state must be bitwise the solo ones, also when
a row blows up next to a healthy one."""

import numpy as np
import pytest

from hylosolve import (DoublePower, EvolutionTrace, Grid, ModelSpec, Saturating,
                       SinglePower, WSpec, evolve, run_stability)
from hylosolve.functionals import gaussian_state
from hylosolve.grid import random_state
from hylosolve.rng import SplitMix64

from test_fused_evolution import BLOW_UP_SPEC

LINE = Grid((256,), (40.0,))
SPECS = {
    "NLS-1d": ModelSpec("NLS", LINE, WSpec(1.0, SinglePower(1.0, 4.0))),
    "NLS-2d": ModelSpec("NLS", Grid((32, 16), (16.0, 8.0)), WSpec(1.0, SinglePower(1.0, 4.0))),
    "NWE-1d": ModelSpec("NWE", LINE, WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
    # 16 points per axis is the smallest grid there is
    "NWE-3d": ModelSpec("NWE", Grid((16, 16, 16), (8.0, 8.0, 8.0)),
                        WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))),
    "NBE-1d": ModelSpec("NBE", LINE, WSpec(1.0, Saturating(0.0, 0.5))),
}
SERIES = ("times", "energy", "charge", "sharp", "xnorm", "v", "orbit_dist")


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_trace(stacked: EvolutionTrace, solo: EvolutionTrace):
    for name in SERIES:
        x, y = getattr(stacked, name), getattr(solo, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert _same_bytes(x, y), name
    assert stacked.blew_up == solo.blew_up
    assert stacked.n_steps == solo.n_steps
    assert all(_same_bytes(a, b) for a, b in
               zip(stacked.final_state.components, solo.final_state.components))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_stacked_rows_equal_solo_runs(name):
    spec = SPECS[name]
    states = [random_state(spec.model_tag, spec.grid, SplitMix64(70 + i),
                           amplitude=0.4 + 0.1 * i, band_limit=4) for i in range(3)]
    reference = states[0]
    # 20 steps in blocks of 7: the last block is shorter
    kwargs = dict(T=0.2, dt=0.01, record_every=7, reference=reference)
    traces = evolve(spec, states, **kwargs)
    assert isinstance(traces, list) and len(traces) == 3
    for state, trace in zip(states, traces):
        assert not trace.blew_up
        assert_same_trace(trace, evolve(spec, state, **kwargs))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("record_every", [1, 5, 7])
def test_blow_up_row_leaves_the_stack_alone(record_every):
    # the amplitude-4 bump blows up within a few steps, the 0.5 one does not
    states = [gaussian_state(BLOW_UP_SPEC, 4.0, 0.5), gaussian_state(BLOW_UP_SPEC, 0.5, 0.5)]
    kwargs = dict(T=1.0, dt=5e-3, record_every=record_every)
    traces = evolve(BLOW_UP_SPEC, states, **kwargs)
    assert [t.blew_up for t in traces] == [True, False]
    assert traces[0].times.size < traces[1].times.size
    for state, trace in zip(states, traces):
        assert_same_trace(trace, evolve(BLOW_UP_SPEC, state, **kwargs))


def test_single_state_gives_one_trace():
    spec = SPECS["NLS-1d"]
    state = gaussian_state(spec, 0.8, 2.0)
    trace = evolve(spec, state, T=0.1, dt=1e-2, record_every=3)
    assert isinstance(trace, EvolutionTrace)
    (row,) = evolve(spec, [state], T=0.1, dt=1e-2, record_every=3)
    assert_same_trace(row, trace)


def test_run_stability_without_perturbations(nls_acceptance_spec, soliton):
    report = run_stability(nls_acceptance_spec, soliton["refined"], [], T=0.1, dt=1e-3)
    assert report.rows == [] and report.traces == []
