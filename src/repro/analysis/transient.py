"""Adaptive transient analysis (trapezoidal with backward-Euler starts).

The integrator:

* starts from a DC operating point (optionally basin-selected via ``ic``),
* forces timepoints onto every waveform breakpoint so source edges are
  never stepped over,
* controls the local truncation error of the trapezoidal rule with a
  third-divided-difference estimate and PI-style step adaptation,
* falls back to backward Euler for the first step after t=0, after each
  breakpoint and after each device event (discontinuous derivatives make
  trapezoidal ringing and the LTE estimate meaningless there), and
* commits element state (capacitor history, MTJ magnetisation progress)
  only on *accepted* steps, so rejected steps have no side effects.

Device events (e.g. an MTJ flipping between its parallel and antiparallel
states) are reported by ``Element.commit`` and recorded in the result;
the step after an event is restarted small.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConvergenceError, TimestepError
from ..recovery.ladder import RecoveryOptions, recover_transient_step
from .dc import operating_point
from .mna import Context
from .results import Solution, TransientResult
from .solver import NewtonOptions, newton_solve
from .trust import TrustAccumulator

#: Number of recent step sizes kept for TimestepError forensics.
_DT_HISTORY = 16

#: Smallest step before a Newton failure becomes a TimestepError (the
#: run also floors it at 1e-15 of the span).
_DT_MIN = 1e-16
#: Absolute LTE tolerance on node voltages (volts).
_LTE_ABSTOL = 1e-5
#: Step-growth limit per accepted step.
_MAX_GROWTH = 2.0


@dataclass
class TransientOptions:
    """Tuning knobs for :func:`transient`."""

    #: Initial step and the step used to restart after breakpoints/events.
    dt_initial: Optional[float] = None
    dt_max: Optional[float] = None
    #: Relative LTE tolerance on node voltages.
    lte_reltol: float = 1e-3
    #: Maximum accepted steps before aborting (runaway guard).
    max_steps: int = 5_000_000
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    #: Transient-local recovery ladder, tried before the step is cut.
    recovery: RecoveryOptions = field(default_factory=RecoveryOptions)


def transient(
    circuit,
    t_stop: float,
    ic: Optional[Dict[str, float]] = None,
    options: Optional[TransientOptions] = None,
    t_start: float = 0.0,
) -> TransientResult:
    """Integrate ``circuit`` from ``t_start`` to ``t_stop``.

    Parameters
    ----------
    t_stop:
        End time in seconds; must exceed ``t_start``.
    ic:
        Optional node-voltage map selecting the initial stability basin
        (passed to the operating-point solve).
    options:
        Integrator tuning; sensible defaults derive the initial/maximum
        step from the span and the source breakpoints.

    Returns
    -------
    TransientResult
        Every accepted timepoint, all node voltages and branch currents,
        plus device events.
    """
    if t_stop <= t_start:
        raise TimestepError("t_stop must exceed t_start")
    opts = options or TransientOptions()
    circuit.compile()

    # SPICE ``.IC`` semantics: pinned nodes are *held* for the t=0 solve
    # and the transient relaxes from there.
    op = operating_point(circuit, time=t_start, ic=ic, release_clamps=False)
    span = t_stop - t_start
    dt_max = opts.dt_max if opts.dt_max is not None else span / 50.0
    dt_init = opts.dt_initial if opts.dt_initial is not None else min(
        dt_max, span / 1000.0
    )
    dt_min = max(_DT_MIN, span * 1e-15)

    breakpoints = _collect_breakpoints(circuit, t_start, t_stop)

    # Initialise element state from the operating point.
    ctx0 = Context(mode="tran", time=t_start, dt=dt_init, method="be", x=op.x)
    for element in circuit.elements():
        element.init_state(ctx0)

    times: List[float] = [t_start]
    states: List[np.ndarray] = [op.x.copy()]
    events: List[Tuple[float, str, str]] = []
    recoveries: List[Dict] = []
    dt_history: deque = deque(maxlen=_DT_HISTORY)
    # Numerical-trust aggregate over the t=0 solve and every accepted
    # step (worst residual/condition, defended-solve count).
    trust_acc = TrustAccumulator()
    trust_acc.note(op)

    t = t_start
    x = op.x.copy()
    dt = dt_init
    #: Steps remaining in the "fresh start" regime (BE, no LTE rejection).
    fresh = 2
    bp_cursor = 0
    num_nodes = circuit.num_nodes
    accepted = 0
    rejected = 0

    circuit_elements = list(circuit.elements())
    while t < t_stop - 1e-18 * max(1.0, abs(t_stop)):
        if accepted >= opts.max_steps:
            raise TimestepError(
                f"transient exceeded max_steps={opts.max_steps} at t={t:g}",
                time=t, dt=dt, rejected_steps=rejected,
                dt_history=list(dt_history),
            )
        dt = min(max(dt, dt_min), dt_max)

        # Force the step onto the next breakpoint if we would cross it.
        while bp_cursor < len(breakpoints) and breakpoints[bp_cursor] <= t + dt_min:
            bp_cursor += 1
        hit_breakpoint = False
        if bp_cursor < len(breakpoints):
            next_bp = breakpoints[bp_cursor]
            if t + dt >= next_bp - 0.25 * dt_min:
                dt = next_bp - t
                hit_breakpoint = True
        if t + dt > t_stop:
            dt = t_stop - t

        method = "be" if fresh > 0 else "trap"
        ctx = Context(mode="tran", time=t + dt, dt=dt, method=method, x=x)
        guess = _predict(times, states, t + dt)
        dt_history.append(dt)

        recovered_rung = None
        step_cert = None
        try:
            x_new = newton_solve(circuit, ctx, guess, opts.newton)
            step_cert = ctx.cert
        except ConvergenceError as err:
            # Local recovery ladder at this fixed timepoint before the
            # (much more expensive) step-size cut.
            salvage = recover_transient_step(circuit, ctx, x, guess,
                                             opts.newton, opts.recovery)
            if salvage is None:
                rejected += 1
                dt *= 0.25
                if dt < dt_min:
                    raise TimestepError(
                        f"Newton failure at t={t:g}s with dt below dt_min",
                        time=t, dt=dt, rejected_steps=rejected,
                        dt_history=list(dt_history), cause=err,
                    ) from err
                continue
            x_new = salvage.x
            recovered_rung = salvage.rung
            step_cert = salvage.cert
            recoveries.append({
                "time": t + dt,
                "rung": salvage.rung,
                "trace": [a.to_dict() for a in salvage.trace],
            })
            if salvage.rung in ("backward-euler", "gmin-step"):
                # Those rungs solved a backward-Euler step; commit must see
                # the method that actually produced x_new.
                ctx = Context(mode="tran", time=t + dt, dt=dt, method="be",
                              x=x)

        # LTE control (skipped in the fresh-start regime; a recovered step
        # used a different discretisation, so its trapezoidal LTE estimate
        # is meaningless — hold the step instead).
        if recovered_rung is not None:
            next_dt = dt
        elif fresh <= 0 and len(times) >= 3:
            err_ratio = _lte_ratio(
                times, states, t + dt, x_new, num_nodes,
                opts.lte_reltol, _LTE_ABSTOL,
            )
            if err_ratio > 1.0 and dt > dt_min * 4 and not hit_breakpoint:
                rejected += 1
                dt *= max(0.2, 0.9 * err_ratio ** (-1.0 / 3.0))
                continue
            growth = 0.9 * max(err_ratio, 1e-4) ** (-1.0 / 3.0)
            next_dt = dt * min(_MAX_GROWTH, max(0.3, growth))
        else:
            next_dt = dt * 1.5

        # Accept: commit element state, record, advance.
        if step_cert is not None:
            trust_acc.note(step_cert)
        ctx.x = x_new
        step_events = []
        for element in circuit_elements:
            event = element.commit(ctx)
            if event:
                step_events.append((t + dt, element.name, event))
        t += dt
        x = x_new
        times.append(t)
        states.append(x.copy())
        accepted += 1
        fresh -= 1

        if recovered_rung is not None:
            # Re-enter the fresh-start regime: the next step after a
            # salvaged point integrates with backward Euler, no LTE cut.
            fresh = max(fresh, 1)
        if step_events:
            events.extend(step_events)
            next_dt = dt_init
            fresh = 2
        if hit_breakpoint:
            bp_cursor += 1
            next_dt = min(next_dt, dt_init)
            fresh = max(fresh, 1)
        dt = next_dt

    stats = {
        "accepted_steps": float(accepted),
        "rejected_steps": float(rejected),
        "ladder_recoveries": float(len(recoveries)),
        "certified_steps": float(trust_acc.solves),
        "defended_steps": float(trust_acc.defended_solves),
    }
    result = TransientResult(
        circuit,
        np.array(times),
        np.vstack(states),
        events=events,
        stats=stats,
        recoveries=recoveries,
    )
    if trust_acc.solves:
        result.residual_norm = trust_acc.residual_norm_max
        result.cond_estimate = trust_acc.cond_estimate_max
        result.refined = trust_acc.defended_solves
    return result


def _collect_breakpoints(circuit, t0: float, t1: float) -> List[float]:
    """Sorted unique waveform corners of all sources in ``(t0, t1]``."""
    points = set()
    for element in circuit.elements():
        getter = getattr(element, "breakpoints", None)
        if getter is None:
            continue
        for t in getter(t0, t1):
            points.add(float(t))
    points.discard(t0)
    return sorted(points)


def _predict(times: List[float], states: List[np.ndarray], t_new: float) -> np.ndarray:
    """Linear extrapolation of the last two solutions as a Newton guess."""
    if len(times) < 2:
        return states[-1].copy()
    t1, t0 = times[-1], times[-2]
    if t1 <= t0:
        return states[-1].copy()
    frac = (t_new - t1) / (t1 - t0)
    frac = min(frac, 2.0)
    return states[-1] + (states[-1] - states[-2]) * frac


def _lte_ratio(
    times: List[float],
    states: List[np.ndarray],
    t_new: float,
    x_new: np.ndarray,
    num_nodes: int,
    reltol: float,
    abstol: float,
) -> float:
    """Trapezoidal LTE estimate over tolerance, via 3rd divided difference.

    Returns max over node voltages of |LTE| / tol; values above 1 mean the
    candidate step should be rejected.
    """
    t3, t2, t1 = times[-3], times[-2], times[-1]
    x3, x2, x1 = states[-3], states[-2], states[-1]
    dt = t_new - t1

    dd1_a = (x_new - x1) / dt
    dd1_b = (x1 - x2) / (t1 - t2)
    dd1_c = (x2 - x3) / (t2 - t3)
    dd2_a = (dd1_a - dd1_b) / (t_new - t2)
    dd2_b = (dd1_b - dd1_c) / (t1 - t3)
    dd3 = (dd2_a - dd2_b) / (t_new - t3)

    lte = np.abs(dt ** 3 * 0.5 * dd3)[:num_nodes]
    scale = np.maximum(np.abs(x_new[:num_nodes]), np.abs(x1[:num_nodes]))
    tol = abstol + reltol * scale
    if lte.size == 0:
        return 0.0
    return float(np.max(lte / tol))
