"""The convergence-recovery ladder.

When a plain Newton solve fails, :func:`recover_dc` escalates through a
sequence of increasingly heavy-handed strategies ("rungs") until one
converges, recording every attempt:

1. **plain** — the solve exactly as requested.
1.5. **equilibrate** — the same solve with every linear system routed
   through exact power-of-two row/column equilibration
   (:mod:`repro.analysis.trust`).  The cheapest rung by far: same Newton
   walk, better-conditioned LU.  Floating virtual-VDD rails routinely
   spread the matrix over ~15 decades; equilibration alone often
   rescues those without touching the circuit.
2. **damping** — much tighter damping with a proportionally larger
   iteration budget.  If the original failure was *damping-starved*
   (every iteration damped, so convergence was never even testable —
   see :attr:`~repro.errors.ConvergenceError.damped_streak`), the budget
   is boosted further.
3. **gmin-step** — solve with large shunt conductances to ground, then
   tighten them down to the floor, warm-starting each stage.
4. **pseudo-transient** — continuation in artificial time: a capacitor
   from every node to ground turns the DC problem into a stable implicit
   integration whose steady state is the operating point; the artificial
   timestep is ramped up until the iterates stop moving, then the clean
   system is polished.
5. **source-ramp** — ramp every independent source up from a fraction of
   its level, warm-starting along the way.

:func:`recover_transient_step` is the transient-local ladder used inside
the integrator at a *fixed* timepoint, before the step size is cut:
tighter damping, a backward-Euler fallback (trapezoidal companion models
ring on stiff store/restore edges), and local gmin stepping.

Each rung preserves correctness: intermediate rungs may solve modified
systems, but the returned solution always comes from a final solve of
the *unmodified* equations (at floor gmin / full source scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import ConvergenceError

# NOTE: repro.analysis modules import this package at module level, so
# every analysis import here is deferred into the function bodies to keep
# the package import-cycle free (repro.recovery itself stays light).

#: Mirrors repro.analysis.solver.GMIN_FLOOR (kept literal to avoid the
#: import cycle with the analysis package).
GMIN_FLOOR = 1e-12

#: Pseudo-transient continuation: artificial timestep ramp (seconds).
_PTRAN_DT = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5)
#: Artificial node capacitance for the pseudo-transient rung (farads).
_PTRAN_CAPACITANCE = 1e-9


@dataclass
class RungAttempt:
    """One recorded rung attempt of the ladder."""

    rung: str
    ok: bool
    detail: str = ""
    residual: float = float("nan")

    def to_dict(self) -> dict:
        return {"rung": self.rung, "ok": self.ok, "detail": self.detail,
                "residual": self.residual}


@dataclass
class RecoveryOptions:
    """Tuning knobs for the recovery ladder."""

    #: Master switch; disabled means plain solves raise immediately.
    enabled: bool = True
    #: Allow the equilibrate rung (rung 1.5 — forced row/column
    #: equilibration of every linear solve, see repro.analysis.trust).
    equilibrate: bool = True
    #: Damping levels tried by the tighter-damping rung (volts/iteration).
    damping_factors: Tuple[float, ...] = (0.1, 0.03)
    #: Iteration-budget multiplier for the damping rung (smaller steps
    #: need proportionally more of them).
    damping_iteration_boost: int = 4
    #: gmin-stepping ladder, solved from first to last.
    gmin_steps: Tuple[float, ...] = (1e-3, 1e-5, 1e-7, 1e-9, GMIN_FLOOR)
    #: source-ramping ladder (fractions of full source level).
    source_steps: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.85, 1.0)
    #: Allow the source-ramp rung.  Disable when the caller must stay in
    #: a chosen stability basin (source ramping restarts from zero and
    #: may land a bistable circuit on the other branch).
    source_ramp: bool = True
    #: Allow the pseudo-transient rung.
    pseudo_transient: bool = True


@dataclass
class LadderResult:
    """Outcome of a recovered solve.

    ``rung`` is ``None`` when the plain solve succeeded (no recovery was
    needed); otherwise it names the rung that converged.  ``cert`` is
    the :class:`~repro.analysis.trust.Certificate` of the final accepted
    solve (``None`` when unavailable).
    """

    x: np.ndarray
    trace: List[RungAttempt] = field(default_factory=list)
    rung: Optional[str] = None
    cert: Optional[object] = None

    @property
    def recovered(self) -> bool:
        return self.rung is not None


#: An ``extra_stamps(stamper, ctx)`` callback, as taken by newton_solve.
ExtraStamps = Optional[Callable]


def _boosted(newton: "NewtonOptions", damping: float, boost: int) -> "NewtonOptions":
    return replace(newton, damping=damping,
                   max_iterations=newton.max_iterations * boost)


class _Ladder:
    """Shared attempt bookkeeping for the DC and transient ladders."""

    def __init__(self):
        self.trace: List[RungAttempt] = []
        self.last_error: Optional[ConvergenceError] = None

    def attempt(self, rung: str, solve: Callable[[], np.ndarray],
                detail: str = "") -> Optional[np.ndarray]:
        try:
            x = solve()
        except ConvergenceError as err:
            self.last_error = err
            self.trace.append(RungAttempt(rung, False, detail=detail or str(err),
                                          residual=err.residual))
            return None
        self.trace.append(RungAttempt(rung, True, detail=detail))
        return x

    def exhausted(self, context_message: str) -> ConvergenceError:
        """Build the terminal error carrying the whole ladder trace."""
        err = self.last_error
        trace_dicts = [a.to_dict() for a in self.trace]
        if err is None:   # pragma: no cover - ladder always attempts once
            return ConvergenceError(context_message, ladder_trace=trace_dicts)
        wrapped = ConvergenceError(
            f"{context_message}: {err}",
            iterations=err.iterations,
            residual=err.residual,
            residual_vector=err.residual_vector,
            worst_nodes=err.worst_nodes,
            time=err.time,
            mode=err.mode,
            damped_streak=err.damped_streak,
            x=err.x,
            ladder_trace=trace_dicts,
            cond_estimate=getattr(err, "cond_estimate", float("nan")),
        )
        wrapped.__cause__ = err
        return wrapped


def recover_dc(
    circuit,
    time: float = 0.0,
    x0: Optional[np.ndarray] = None,
    newton: Optional[NewtonOptions] = None,
    extra_stamps: ExtraStamps = None,
    options: Optional[RecoveryOptions] = None,
) -> LadderResult:
    """Solve a DC point, escalating through the recovery ladder on failure.

    Returns a :class:`LadderResult` whose ``trace`` records every rung
    attempted and whose ``rung`` names the successful one (``None`` for a
    clean first-try solve).  Raises :class:`~repro.errors.ConvergenceError`
    with the full ``ladder_trace`` attached when every rung fails.
    """
    from ..analysis.mna import Context
    from ..analysis.solver import NewtonOptions, newton_solve

    newton = newton or NewtonOptions()
    opts = options or RecoveryOptions()
    circuit.compile()
    if x0 is None:
        x0 = np.zeros(circuit.size)
    x0 = np.asarray(x0, dtype=float)
    ladder = _Ladder()
    last_ctx: List[Optional[Context]] = [None]

    def fresh_ctx(scale: float = 1.0) -> Context:
        ctx = Context(mode="dc", time=time, source_scale=scale)
        last_ctx[0] = ctx
        return ctx

    def done(x: np.ndarray, rung: Optional[str]) -> LadderResult:
        cert = last_ctx[0].cert if last_ctx[0] is not None else None
        return LadderResult(x, ladder.trace, rung, cert=cert)

    # Rung 1: the solve exactly as requested.
    x = ladder.attempt("plain", lambda: newton_solve(
        circuit, fresh_ctx(), x0, newton, extra_stamps))
    if x is not None:
        return done(x, None)
    if not opts.enabled:
        raise ladder.exhausted("recovery disabled")

    # Rung 1.5: same solve, every linear system equilibrated.  Costs one
    # extra Newton walk at most and rescues the purely *numerical*
    # failures (15-decade conductance spread) before any heavier rung
    # modifies the problem.
    if opts.equilibrate:
        x = ladder.attempt(
            "equilibrate",
            lambda: newton_solve(
                circuit, fresh_ctx(), x0,
                replace(newton,
                        trust=replace(newton.trust, always_equilibrate=True)),
                extra_stamps),
            detail="forced row/column equilibration",
        )
        if x is not None:
            return done(x, "equilibrate")

    # Rung 2: tighter damping.  React to damping starvation with a larger
    # iteration budget — tiny steps need room to accumulate.
    starved = (ladder.last_error is not None
               and ladder.last_error.damped_streak
               >= max(1, newton.max_iterations // 2))
    boost = opts.damping_iteration_boost * (2 if starved else 1)
    for factor in opts.damping_factors:
        x = ladder.attempt(
            "damping",
            lambda f=factor: newton_solve(
                circuit, fresh_ctx(), x0, _boosted(newton, f, boost),
                extra_stamps),
            detail=f"damping={factor:g}, boost={boost}x",
        )
        if x is not None:
            return done(x, "damping")

    # Rung 3: gmin stepping — relax with large shunts, tighten gradually.
    def gmin_chain() -> np.ndarray:
        xg = x0
        for gmin in opts.gmin_steps:
            xg = newton_solve(circuit, fresh_ctx(), xg,
                              replace(newton, gmin=gmin), extra_stamps)
        if opts.gmin_steps and opts.gmin_steps[-1] > newton.gmin:
            xg = newton_solve(circuit, fresh_ctx(), xg, newton, extra_stamps)
        return xg

    if opts.gmin_steps:
        x = ladder.attempt("gmin-step", gmin_chain,
                           detail=f"{len(opts.gmin_steps)} stages")
        if x is not None:
            return done(x, "gmin-step")

    # Rung 4: pseudo-transient continuation.
    if opts.pseudo_transient:
        x = ladder.attempt(
            "pseudo-transient",
            lambda: _pseudo_transient(circuit, x0, newton, extra_stamps,
                                      fresh_ctx),
            detail=f"dt ramp to {_PTRAN_DT[-1]:g}s",
        )
        if x is not None:
            return done(x, "pseudo-transient")

    # Rung 5: source ramping.
    if opts.source_ramp and opts.source_steps:
        x = ladder.attempt(
            "source-ramp",
            lambda: _source_ramp(circuit, time, x0, newton, extra_stamps,
                                 opts, fresh_ctx),
            detail=f"{len(opts.source_steps)} steps",
        )
        if x is not None:
            return done(x, "source-ramp")

    raise ladder.exhausted(
        f"recovery ladder exhausted ({len(ladder.trace)} attempts)")


def _pseudo_transient(circuit, x0: np.ndarray, newton: NewtonOptions,
                      extra_stamps: ExtraStamps, fresh_ctx) -> np.ndarray:
    """Pseudo-transient continuation toward the DC point.

    Backward-Euler companion stamps of an artificial capacitance C from
    every node to ground add ``C/dt`` to the diagonal and pull the solve
    toward the previous iterate — a heavily regularised system for small
    dt that relaxes to the true one as dt grows.
    """
    from ..analysis.mna import Context
    from ..analysis.solver import newton_solve

    num_nodes = circuit.num_nodes
    x = np.asarray(x0, dtype=float).copy()
    for dt in _PTRAN_DT:
        g_art = _PTRAN_CAPACITANCE / dt
        x_prev = x.copy()

        def stamps(stamper: Stamper, ctx: Context,
                   g=g_art, prev=x_prev) -> None:
            for node in range(num_nodes):
                stamper.conductance(node, -1, g)
                stamper.current(-1, node, g * prev[node])
            if extra_stamps is not None:
                extra_stamps(stamper, ctx)

        x = newton_solve(circuit, fresh_ctx(), x, newton, stamps)
    # Final polish of the unmodified system from the continuation point.
    return newton_solve(circuit, fresh_ctx(), x, newton, extra_stamps)


def _source_ramp(circuit, time: float, x0: np.ndarray,
                 newton: NewtonOptions, extra_stamps: ExtraStamps,
                 opts: RecoveryOptions, fresh_ctx) -> np.ndarray:
    """Ramp independent sources up from a fraction of their level."""
    from ..analysis.solver import newton_solve

    x = np.zeros_like(np.asarray(x0, dtype=float))
    for scale in opts.source_steps:
        ctx = fresh_ctx(scale)
        try:
            x = newton_solve(circuit, ctx, x, newton, extra_stamps)
        except ConvergenceError:
            # One retry with elevated gmin at this rung of the ramp.
            x = newton_solve(circuit, fresh_ctx(scale), x,
                             replace(newton, gmin=1e-6), extra_stamps)
    if abs(opts.source_steps[-1] - 1.0) > 1e-12:
        x = newton_solve(circuit, fresh_ctx(), x, newton, extra_stamps)
    return x


def recover_transient_step(
    circuit,
    ctx: Context,
    x_prev: np.ndarray,
    guess: np.ndarray,
    newton: NewtonOptions,
    options: Optional[RecoveryOptions] = None,
) -> Optional[LadderResult]:
    """Transient-local ladder at a fixed timepoint and timestep.

    Tried *before* the integrator cuts the step size: tighter damping,
    a backward-Euler fallback when the failing method was trapezoidal,
    and local gmin stepping (backward Euler, warm-started from the last
    accepted state).  Element internal state is untouched — only accepted
    steps commit — so attempts are free of side effects.

    Returns ``None`` when every local rung fails (the caller should cut
    ``dt``), otherwise a :class:`LadderResult` naming the rung.
    """
    from ..analysis.mna import Context
    from ..analysis.solver import newton_solve

    opts = options or RecoveryOptions()
    if not opts.enabled:
        return None
    ladder = _Ladder()
    last_ctx: List[Optional[Context]] = [None]

    def step_ctx(method: str) -> Context:
        fresh = Context(mode="tran", time=ctx.time, dt=ctx.dt, method=method,
                        x=x_prev)
        last_ctx[0] = fresh
        return fresh

    def done(x: np.ndarray, rung: str) -> LadderResult:
        cert = last_ctx[0].cert if last_ctx[0] is not None else None
        return LadderResult(x, ladder.trace, rung, cert=cert)

    if opts.equilibrate:
        x = ladder.attempt(
            "equilibrate",
            lambda: newton_solve(
                circuit, step_ctx(ctx.method), guess,
                replace(newton,
                        trust=replace(newton.trust,
                                      always_equilibrate=True))),
            detail="forced row/column equilibration",
        )
        if x is not None:
            return done(x, "equilibrate")

    for factor in opts.damping_factors:
        x = ladder.attempt(
            "damping",
            lambda f=factor: newton_solve(
                circuit, step_ctx(ctx.method), guess,
                _boosted(newton, f, opts.damping_iteration_boost)),
            detail=f"damping={factor:g}",
        )
        if x is not None:
            return done(x, "damping")

    if ctx.method != "be":
        x = ladder.attempt("backward-euler", lambda: newton_solve(
            circuit, step_ctx("be"), guess, newton))
        if x is not None:
            return done(x, "backward-euler")

    if opts.gmin_steps:
        def gmin_chain() -> np.ndarray:
            xg = np.asarray(x_prev, dtype=float).copy()
            for gmin in opts.gmin_steps:
                xg = newton_solve(circuit, step_ctx("be"), xg,
                                  replace(newton, gmin=gmin))
            if opts.gmin_steps[-1] > newton.gmin:
                xg = newton_solve(circuit, step_ctx("be"), xg, newton)
            return xg

        x = ladder.attempt("gmin-step", gmin_chain)
        if x is not None:
            return done(x, "gmin-step")

    return None
