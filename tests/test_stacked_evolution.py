"""Several initial states evolved as one stack against each evolved alone:
every row's trace and final state must be bitwise the solo ones, also when
a row blows up next to a healthy one.  The evolved states keep the
kernel's outputs without a copy."""

import numpy as np
import pytest

from hylosolve import (DoublePower, EvolutionTrace, FieldState, Grid, ModelSpec, Saturating,
                       SinglePower, WSpec, evolve, evolve_step, run_stability)
from hylosolve.exceptions import NonFinite
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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_evolve_step_keeps_the_kernel_outputs(name):
    spec = SPECS[name]
    states = [random_state(spec.model_tag, spec.grid, SplitMix64(90 + i), amplitude=0.5,
                           band_limit=4) for i in range(2)]
    solo = evolve_step(spec, states[0], 0.01, 3)
    rows = evolve_step(spec, states, 0.01, 3)
    dtype = np.float64 if spec.model_tag == "NBE" else np.complex128
    for state in [solo] + rows:
        for comp in state.components:
            assert comp.dtype == dtype and comp.shape == spec.grid.n
            assert not comp.flags.writeable
            # NLS/NWE: a view of the kernel's output; NBE: its real part, copied
            assert comp.flags.owndata == (spec.model_tag == "NBE")
    for a, b in zip(rows[0].components, solo.components):
        assert _same_bytes(a, b)
    if spec.model_tag != "NBE":  # the rows are two halves of one stack
        assert rows[0].components[0].base is rows[1].components[0].base


def test_field_state_copies_unless_handed_the_array():
    psi = np.full(LINE.n, 0.5 + 0.5j)
    kept = FieldState.nls(LINE, psi)
    assert not np.shares_memory(kept.psi, psi) and psi.flags.writeable
    owned = FieldState("NLS", LINE, (psi,), owned=True)
    assert owned.psi is psi and not psi.flags.writeable
    # a dtype or layout the state does not store is copied all the same
    assert FieldState("NLS", LINE, (psi.real,), owned=True).psi.flags.owndata
    strided = np.ones(2 * LINE.n[0], np.complex128)[::2]
    assert FieldState("NLS", LINE, (strided,), owned=True).psi.flags.owndata
    bad = np.ones(LINE.n, np.complex128)
    bad[5] = np.inf
    with pytest.raises(NonFinite):
        FieldState("NLS", LINE, (bad,), owned=True)
