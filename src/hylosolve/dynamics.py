"""Time evolution with conservation auditing.

evolve drives the model's split step and samples the conserved quantities
and localization diagnostics; when a reference state is attached it also
records the quadratic distance-to-reference functional V, from the energy
and charge already sampled, and the orbit distance, which the stability
lab consumes.  Several initial states evolve as one stack, one kernel call
per record block, and each gets the trace it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonFinite
from .grid import FieldState, orbit_distance, sharp_seminorm, x_norm as state_x_norm
# lyapunov_v is not called here (V comes from the sampled E and C); it stays
# bound because bench/tracer.py lists it among the record-point names here
from .models import ModelSpec, charge, energy, evolve_step, lyapunov_v, lyapunov_v_of  # noqa: F401

__all__ = ["EvolutionTrace", "ConservationReport", "evolve", "conservation_report"]


@dataclass
class EvolutionTrace:
    times: np.ndarray
    energy: np.ndarray
    charge: np.ndarray
    sharp: np.ndarray
    xnorm: np.ndarray
    v: np.ndarray | None
    orbit_dist: np.ndarray | None
    dt: float
    n_steps: int
    blew_up: bool
    final_state: FieldState


def evolve(spec: ModelSpec, state0, T: float, dt: float,
           record_every: int = 1, reference: FieldState | None = None,
           abort_factor: float = 1e6):
    """Evolve for T with fixed dt, sampling every record_every steps.

    state0 is one FieldState, which gives one EvolutionTrace, or a sequence
    of them, which gives a list of traces, one per row.  The rows advance as
    one stack: each record block (the last one shorter when record_every
    does not divide the step count) is one evolve_step call for all rows
    still running, and each row's trace is bitwise the one it gets when
    evolved alone.  A row whose field turns non-finite (NonFinite), or
    whose phase-space norm passes abort_factor times (1 + its initial
    norm) at a record point, stops with its partial trace and the blow-up
    flag set, keeping its last healthy sample as final state, while the
    other rows go on.  A field that turns non-finite inside a block stays
    so up to the block's end, so the trace is the one a check after every
    step would give.
    """
    if T <= 0 or dt <= 0 or record_every < 1:
        raise ValueError("need T > 0, dt > 0, record_every >= 1")
    states = [state0] if isinstance(state0, FieldState) else list(state0)
    n_steps = max(1, int(round(T / dt)))
    e_ref = c_ref = None
    if reference is not None:
        e_ref = energy(spec, reference)
        c_ref = charge(spec, reference)
    samples = [([], [], [], [], [], [], []) for _ in states]
    norm0 = [state_x_norm(st) for st in states]

    def record(row: int, t: float, st: FieldState) -> bool:
        xn = state_x_norm(st)
        if not xn <= abort_factor * (1.0 + norm0[row]):
            return False
        times, es, cs, sharps, xns, vs, ods = samples[row]
        times.append(t)
        es.append(energy(spec, st))
        cs.append(charge(spec, st))
        sharps.append(sharp_seminorm(st))
        xns.append(xn)
        if reference is not None:
            vs.append(lyapunov_v_of(es[-1], cs[-1], e_ref, c_ref))
            ods.append(orbit_distance(st, reference))
        return True

    for row, st in enumerate(states):
        record(row, 0.0, st)
    blew_up = [False] * len(states)
    running = list(range(len(states)))
    for start in range(0, n_steps, record_every):
        if not running:
            break
        block = min(record_every, n_steps - start)
        nxt = evolve_step(spec, [states[row] for row in running], dt, block)
        still = []
        for row, st in zip(running, nxt):
            if isinstance(st, NonFinite) or not record(row, (start + block) * dt, st):
                blew_up[row] = True
            else:
                states[row] = st
                still.append(row)
        running = still
    traces = [
        EvolutionTrace(
            times=np.asarray(times), energy=np.asarray(es), charge=np.asarray(cs),
            sharp=np.asarray(sharps), xnorm=np.asarray(xns),
            v=np.asarray(vs) if reference is not None else None,
            orbit_dist=np.asarray(ods) if reference is not None else None,
            dt=dt, n_steps=n_steps, blew_up=failed, final_state=state)
        for (times, es, cs, sharps, xns, vs, ods), failed, state
        in zip(samples, blew_up, states)]
    return traces[0] if isinstance(state0, FieldState) else traces


@dataclass(frozen=True)
class ConservationReport:
    max_drift_energy: float
    max_drift_charge: float


def conservation_report(trace: EvolutionTrace) -> ConservationReport:
    """Max relative drift of the two conserved quantities over the trace."""
    if trace.times.size == 0:
        raise ValueError("empty trace")

    def drift(series: np.ndarray) -> float:
        ref = series[0]
        return float(np.max(np.abs(series - ref)) / max(1.0, abs(ref)))

    return ConservationReport(drift(trace.energy), drift(trace.charge))
