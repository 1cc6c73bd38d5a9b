"""Time evolution with conservation auditing.

evolve drives the model's split step and samples the conserved quantities
and localization diagnostics; when a reference state is attached it also
records the quadratic distance-to-reference functional and the orbit
distance, which the stability lab consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldState, orbit_distance, sharp_seminorm, x_norm as state_x_norm
from .models import ModelSpec, charge, energy, evolve_step, lyapunov_v

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


def evolve(spec: ModelSpec, state0: FieldState, T: float, dt: float,
           record_every: int = 1, reference: FieldState | None = None,
           abort_factor: float = 1e6) -> EvolutionTrace:
    """Evolve for T with fixed dt, sampling every record_every steps.

    A non-finite field or a phase-space norm beyond abort_factor times
    (1 + the initial norm) aborts with the partial trace and the blow-up
    flag set; the trace keeps the last healthy sample as final state.
    """
    if T <= 0 or dt <= 0 or record_every < 1:
        raise ValueError("need T > 0, dt > 0, record_every >= 1")
    n_steps = max(1, int(round(T / dt)))
    e_ref = c_ref = None
    if reference is not None:
        e_ref = energy(spec, reference)
        c_ref = charge(spec, reference)
    times, es, cs, sharps, xns, vs, ods = [], [], [], [], [], [], []
    state = state0
    norm0 = state_x_norm(state0)
    blew_up = False
    last_good = state0

    def record(t: float, st: FieldState) -> bool:
        ok = all(np.all(np.isfinite(c.view(np.float64))) for c in st.components)
        if ok:
            xn = state_x_norm(st)
            ok = xn <= abort_factor * (1.0 + norm0)
        if not ok:
            return False
        times.append(t)
        es.append(energy(spec, st))
        cs.append(charge(spec, st))
        sharps.append(sharp_seminorm(st))
        xns.append(xn)
        if reference is not None:
            vs.append(lyapunov_v(spec, st, e_ref, c_ref))
            ods.append(orbit_distance(st, reference))
        return True

    record(0.0, state0)
    for step in range(1, n_steps + 1):
        try:
            # a NaN mid-step surfaces here: state construction validates finiteness
            state = evolve_step(spec, state, dt)
        except ValueError:
            blew_up = True
            break
        if step % record_every == 0 or step == n_steps:
            if not record(step * dt, state):
                blew_up = True
                break
            last_good = state
    final = last_good if blew_up else state
    return EvolutionTrace(
        times=np.asarray(times), energy=np.asarray(es), charge=np.asarray(cs),
        sharp=np.asarray(sharps), xnorm=np.asarray(xns),
        v=np.asarray(vs) if reference is not None else None,
        orbit_dist=np.asarray(ods) if reference is not None else None,
        dt=dt, n_steps=n_steps, blew_up=blew_up, final_state=final)


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
