"""Damped Newton-Raphson solver for the nonlinear MNA equations.

Each iteration re-stamps the linearised system ``A(x) x' = b(x)`` and
solves it directly (dense LU via ``numpy.linalg.solve``).  Assembly goes
through a :class:`~repro.analysis.mna.PlanStamper` built once per solve:
the ``is_linear`` elements and ``gmin`` are stamped once into its base,
and each iteration restamps only the nonlinear elements.  Damping limits
the per-iteration change of node voltages, which is essential for the
exponential subthreshold characteristics of the FinFET model.

``numpy.linalg.solve`` stays the solver: on the 25-unknown nv testbench
it took 15 µs against 24-26 µs for ``scipy.linalg.lu_factor`` plus
``lu_solve`` without finiteness checks (Python 3.11, numpy 2.4, scipy
1.17, 2 vCPUs).  An iteration's finiteness and convergence tests take
one numpy reduction per array: 9 µs at n = 25, against 21 µs for the
``isfinite`` tests and seven ``np.max(np.abs(...))`` they replaced.

A small ``gmin`` conductance from every node to ground keeps the matrix
non-singular when devices are fully cut off; homotopy strategies in
:mod:`repro.analysis.dc` and the escalation ladder in
:mod:`repro.recovery` raise it temporarily to walk difficult operating
points in.

:func:`repro.analysis.batch.lockstep_newton` applies the same per-solve
rules (tolerances, damping, failure tests, certification) to a stack of
same-topology systems at once; it imports them from here.

On failure the raised :class:`~repro.errors.ConvergenceError` carries the
true KCL residual ``‖A(x)·x − b(x)‖∞`` (amps) re-evaluated at the final
iterate, the worst-offending equations by name, and the consecutive-damped
-step count, so callers (and ``repro diagnose``) see *which nodes* failed
to balance rather than just a voltage-delta norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import ConvergenceError, StampError
from .mna import Context, PlanStamper, Stamper
from .trust import (
    TrustOptions,
    certify,
    describe_offenders,
    equilibrated_solve,
    locate_nonfinite_stamps,
    onenorm_condest,
)

#: Extra per-node conductance to ground, always present (siemens).
GMIN_FLOOR = 1e-12

#: How many worst-offending equations a failure report names.
_WORST_NODE_COUNT = 5
#: Absolute node-voltage convergence tolerance (volts).
_VNTOL = 1e-7
#: Relative convergence tolerance.
_RELTOL = 1e-5
#: Absolute branch-current convergence tolerance (amps).
_ABSTOL = 1e-11


@dataclass
class NewtonOptions:
    """Tuning knobs for the Newton iteration."""

    max_iterations: int = 150
    #: Maximum node-voltage change applied per iteration (volts).
    damping: float = 0.4
    #: Extra conductance from each node to ground (homotopy knob).
    gmin: float = GMIN_FLOOR
    #: Certification / conditioning-defense policy (see analysis.trust).
    trust: TrustOptions = field(default_factory=TrustOptions)


def row_labels(circuit) -> List[str]:
    """Human-readable label of every MNA equation row.

    Node rows carry the node name; branch rows are labelled
    ``I(<element>)`` after the element owning the branch unknown.
    """
    circuit.compile()
    labels = list(circuit.node_names())
    labels.extend(f"branch:{k}" for k in range(circuit.num_branches))
    for element in circuit.elements():
        for k, row in enumerate(element.branch_index):
            suffix = f"[{k}]" if len(element.branch_index) > 1 else ""
            labels[row] = f"I({element.name}){suffix}"
    return labels


def kcl_residual(circuit, ctx: Context, x: np.ndarray,
                 gmin: float = GMIN_FLOOR,
                 extra_stamps: Optional[Callable[[Stamper, Context], None]]
                 = None) -> np.ndarray:
    """True KCL residual ``A(x)·x − b(x)`` at the point ``x``.

    For node rows the entries are current imbalances in amps (devices are
    stamped as Norton companion pairs, so the linearised ``A·x − b`` *is*
    the sum of device currents into each node); branch rows are
    constraint violations in volts.
    """
    stamper = PlanStamper(circuit.plan, ctx, max(gmin, GMIN_FLOOR))
    stamper.restamp(ctx, x, extra_stamps)
    return stamper.A @ x - stamper.b


def worst_offenders(circuit, residual: np.ndarray,
                    count: int = _WORST_NODE_COUNT) -> List[Tuple[str, float]]:
    """The ``count`` largest-|residual| equations as ``(label, value)``."""
    labels = row_labels(circuit)
    magnitude = np.abs(np.nan_to_num(residual, nan=np.inf,
                                     posinf=np.inf, neginf=np.inf))
    order = np.argsort(-magnitude)[:count]
    return [(labels[i], float(residual[i])) for i in order]


def _convergence_failure(message: str, circuit, ctx: Context,
                         stamper: PlanStamper, x: np.ndarray,
                         extra_stamps, iterations: int,
                         damped_streak: int) -> ConvergenceError:
    """Build a fully-forensic ConvergenceError at the final iterate."""
    residual_vec: Optional[np.ndarray] = None
    residual = float("nan")
    cond_estimate = float("nan")
    worst: List[Tuple[str, float]] = []
    try:
        if np.all(np.isfinite(x)):
            stamper.restamp(ctx, x, extra_stamps)
            residual_vec = stamper.A @ x - stamper.b
            if residual_vec.size and np.all(np.isfinite(residual_vec)):
                residual = float(np.max(np.abs(residual_vec)))
            worst = worst_offenders(circuit, residual_vec)
            if np.all(np.isfinite(stamper.A)):
                cond_estimate = onenorm_condest(stamper.A)
    except Exception:   # lint: skip=RV405 - forensics must never mask the error
        residual_vec = None
    if damped_streak:
        message += (f" ({damped_streak} consecutive damped steps at exit"
                    + ("; damping-starved" if damped_streak >= iterations
                       else "") + ")")
    return ConvergenceError(
        message,
        iterations=iterations,
        residual=residual,
        residual_vector=None if residual_vec is None else list(residual_vec),
        worst_nodes=worst,
        time=ctx.time,
        mode=ctx.mode,
        damped_streak=damped_streak,
        x=list(x) if np.all(np.isfinite(x)) else None,
        cond_estimate=cond_estimate,
    )


def _reject_nonfinite_stamp(circuit, ctx: Context, x: np.ndarray,
                            gmin: float, extra_stamps, iteration: int,
                            stamper: PlanStamper, damped_streak: int) -> None:
    """Fail-fast stamp guard: never hand NaN/Inf to ``np.linalg.solve``.

    A non-finite entry on the *first* DC stamp (at the caller's own
    initial point) means the deck itself is broken — NaN device
    parameters, an Inf source level — and no recovery rung can fix
    that: raise a :class:`~repro.errors.StampError` naming the
    offending element(s) and equation row(s).  At a later iterate it is
    (over)flow of a diverging Newton walk, and in transient mode even an
    iteration-0 failure can be time-local (a device going bad past some
    breakpoint), so those stay :class:`~repro.errors.ConvergenceError`
    and the recovery ladder / timestep control own the retreat.
    """
    offenders = locate_nonfinite_stamps(circuit, ctx, gmin, extra_stamps)
    summary = describe_offenders(offenders)
    if iteration == 0 and ctx.mode == "dc":
        raise StampError(
            f"non-finite MNA stamp rejected before solve: {summary}",
            offenders=offenders, mode=ctx.mode, time=ctx.time,
        )
    raise _convergence_failure(
        f"non-finite MNA stamp at iteration {iteration} ({summary})",
        circuit, ctx, stamper, x, extra_stamps,
        iterations=iteration, damped_streak=damped_streak,
    )


def newton_solve(
    circuit,
    ctx: Context,
    x0: np.ndarray,
    options: Optional[NewtonOptions] = None,
    extra_stamps: Optional[Callable[[Stamper, Context], None]] = None,
) -> np.ndarray:
    """Solve the MNA system at the point described by ``ctx``.

    Parameters
    ----------
    circuit:
        A compiled :class:`~repro.circuit.netlist.Circuit`.
    ctx:
        Evaluation context (mode, time, integration method).  ``ctx.x`` is
        overwritten with each iterate.
    x0:
        Initial guess.
    extra_stamps:
        Optional callback adding testbench stamps (e.g. the stiff
        initial-condition clamps used by the operating-point analysis).

    Returns the converged solution vector.

    Raises
    ------
    ConvergenceError
        If the iteration does not meet tolerance within the allowed number
        of iterations, or the matrix becomes singular.  The error carries
        the KCL residual forensics described in the module docstring.
    """
    opts = options or NewtonOptions()
    circuit.compile()
    size = circuit.size
    num_nodes = circuit.num_nodes
    x = np.array(x0, dtype=float, copy=True)
    if x.shape != (size,):
        raise ConvergenceError(
            f"initial guess has wrong size {x.shape}, expected ({size},)"
        )
    # Finiteness in one reduction: ``v @ zeros`` is 0.0 for a finite ``v``
    # and NaN otherwise; the errstate silences the inf · 0 it relies on.
    zeros = np.zeros(size * (size + 1))
    zeros_x = zeros[:size]
    with np.errstate(invalid="ignore"):
        if x @ zeros_x != 0.0:
            raise ConvergenceError("non-finite initial guess")

        gmin = max(opts.gmin, GMIN_FLOOR)
        stamper = PlanStamper(circuit.plan, ctx, gmin)
        trust = opts.trust
        #: Consecutive damped steps; an undamped step resets it.
        damped_streak = 0
        #: Iterations that needed the equilibrated fallback solve.
        defended_iterations = 0

        for iteration in range(opts.max_iterations):
            stamper.restamp(ctx, x, extra_stamps)
            if stamper.flat @ zeros != 0.0:
                _reject_nonfinite_stamp(circuit, ctx, x, gmin, extra_stamps,
                                        iteration, stamper, damped_streak)
            try:
                if trust.always_equilibrate:
                    x_new = equilibrated_solve(stamper.A, stamper.b)
                else:
                    x_new = np.linalg.solve(stamper.A, stamper.b)
            except np.linalg.LinAlgError:
                x_new = None
                if not trust.always_equilibrate:
                    # Conditioning defense: LU refused the raw system —
                    # retry through exact power-of-two row/column
                    # equilibration before declaring the matrix singular.
                    try:
                        x_new = equilibrated_solve(stamper.A, stamper.b)
                        defended_iterations += 1
                    except np.linalg.LinAlgError:
                        x_new = None
                if x_new is None:
                    raise _convergence_failure(
                        f"singular MNA matrix at iteration {iteration}",
                        circuit, ctx, stamper, x, extra_stamps,
                        iterations=iteration, damped_streak=damped_streak,
                    ) from None
            if x_new @ zeros_x != 0.0:
                raise _convergence_failure(
                    f"non-finite solution at iteration {iteration}",
                    circuit, ctx, stamper, x, extra_stamps,
                    iterations=iteration, damped_streak=damped_streak,
                )

            dx = x_new - x
            abs_dx = np.abs(dx)
            # Damp node voltages only; branch currents may legitimately jump.
            max_dv = abs_dx[:num_nodes].max(initial=0.0)
            if max_dv > opts.damping:
                x = x + dx * (opts.damping / max_dv)
                damped_streak += 1
                continue  # a damped step cannot be judged converged
            damped_streak = 0
            x = x_new

            abs_x = np.abs(x)
            v_tol = _VNTOL + _RELTOL * abs_x[:num_nodes].max(initial=0.0)
            i_err = abs_dx[num_nodes:].max(initial=0.0)
            i_tol = max(_ABSTOL, _RELTOL * abs_x[num_nodes:].max(initial=0.0))
            if max_dv <= v_tol and i_err <= i_tol:
                # Certify the accepted solve against the final assembled
                # system; past-threshold residual/rcond triggers the
                # equilibration + iterative-refinement defenses (trust.py).
                x, cert = certify(stamper.A, stamper.b, x, trust)
                if trust.always_equilibrate or defended_iterations:
                    cert.equilibrated = True
                ctx.cert = cert
                ctx.x = x
                return x

    raise _convergence_failure(
        f"Newton failed to converge in {opts.max_iterations} iterations",
        circuit, ctx, stamper, x, extra_stamps,
        iterations=opts.max_iterations, damped_streak=damped_streak,
    )
