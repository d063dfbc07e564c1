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
equilibration, tighter damping, a backward-Euler fallback (trapezoidal
companion models ring on stiff store/restore edges), and local gmin
stepping.

Both ladders climb their rungs through one loop, :func:`_climb`, and
return the context of the accepted solve (``LadderResult.ctx``), which
the integrator commits a salvaged step with.

Each rung preserves correctness: intermediate rungs may solve modified
systems, but the returned solution always comes from a final solve of
the *unmodified* equations (at floor gmin / full source scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Optional, Tuple, Union

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
    needed); otherwise it names the rung that converged.  ``ctx`` is the
    :class:`~repro.analysis.mna.Context` of the final accepted solve (the
    mode, time, timestep and method that produced ``x``) and ``cert`` its
    :class:`~repro.analysis.trust.Certificate`.
    """

    x: np.ndarray
    trace: List[RungAttempt] = field(default_factory=list)
    rung: Optional[str] = None
    ctx: Optional[Context] = None

    @property
    def recovered(self) -> bool:
        return self.rung is not None

    @property
    def cert(self):
        return self.ctx.cert if self.ctx is not None else None


#: An ``extra_stamps(stamper, ctx)`` callback, as taken by newton_solve.
ExtraStamps = Optional[Callable]

#: One rung of a ladder: its name, the solve it makes and the detail
#: its trace entry carries (empty: a failure records the error text).
Rung = Tuple[str, Callable[[], np.ndarray], str]


class _Contexts:
    """Fresh solve contexts; ``last`` is the latest one handed out."""

    def __init__(self, make: Callable[..., Context]):
        self.make, self.last = make, None

    def __call__(self, *args) -> Context:
        self.last = self.make(*args)
        return self.last


def _climb(rungs: Iterable[Rung], contexts: _Contexts,
           trace: List[RungAttempt], failure: Optional[ConvergenceError] = None
           ) -> Union[LadderResult, ConvergenceError, None]:
    """Try each rung in order, recording one :class:`RungAttempt` each.

    Returns the first success as a :class:`LadderResult` (``rung`` is
    ``None`` for ``plain``) with the context of its last solve, else the
    latest failure (``failure`` itself when no rung is tried)."""
    for name, solve, detail in rungs:
        try:
            x = solve()
        except ConvergenceError as err:
            failure = err
            trace.append(RungAttempt(name, False, detail=detail or str(err),
                                     residual=err.residual))
            continue
        trace.append(RungAttempt(name, True, detail=detail))
        return LadderResult(x, trace, None if name == "plain" else name,
                            contexts.last)
    return failure


def _exhausted(context_message: str, err: ConvergenceError,
               trace: List[RungAttempt]) -> ConvergenceError:
    """Build the terminal error carrying the whole ladder trace."""
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
        ladder_trace=[a.to_dict() for a in trace],
        cond_estimate=err.cond_estimate,
    )
    wrapped.__cause__ = err
    return wrapped


def _equilibrate_rung(opts: RecoveryOptions, solve: Callable,
                      newton: NewtonOptions) -> List[Rung]:
    """``solve(options)`` with every linear system equilibrated, if on."""
    forced = replace(newton, trust=replace(newton.trust,
                                           always_equilibrate=True))
    return [("equilibrate", lambda: solve(forced),
             "forced row/column equilibration")] if opts.equilibrate else []


def _damping_rungs(opts: RecoveryOptions, solve: Callable,
                   newton: NewtonOptions, boost: int,
                   suffix: str = "") -> List[Rung]:
    """``solve(options)`` per damping factor, at ``boost`` times the
    iteration budget."""
    return [("damping", lambda f=factor: solve(replace(
        newton, damping=f, max_iterations=newton.max_iterations * boost)),
        f"damping={factor:g}{suffix}") for factor in opts.damping_factors]


def _gmin_chain(solve: Callable, start: np.ndarray, newton: NewtonOptions,
                steps: Tuple[float, ...]) -> np.ndarray:
    """``solve(options, x)`` at each shunt of ``steps``, warm-starting
    each stage, then at ``newton.gmin`` if the chain stops above it."""
    x = start
    for gmin in steps:
        x = solve(replace(newton, gmin=gmin), x)
    if steps[-1] > newton.gmin:
        x = solve(newton, x)
    return x


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
    x0 = np.zeros(circuit.size) if x0 is None else np.asarray(x0, dtype=float)
    fresh = _Contexts(lambda scale=1.0: Context(mode="dc", time=time,
                                                source_scale=scale))
    trace: List[RungAttempt] = []

    def solve(newton_opts: NewtonOptions, start: np.ndarray = x0,
              stamps: ExtraStamps = extra_stamps,
              scale: float = 1.0) -> np.ndarray:
        return newton_solve(circuit, fresh(scale), start, newton_opts, stamps)

    # Rung 1: the solve exactly as requested.
    outcome = _climb([("plain", lambda: solve(newton), "")], fresh, trace)
    if isinstance(outcome, LadderResult):
        return outcome
    if not opts.enabled:
        raise _exhausted("recovery disabled", outcome, trace)

    # Rung 1.5: same solve, every linear system equilibrated.  Costs one
    # extra Newton walk at most and rescues the purely *numerical*
    # failures (15-decade conductance spread) before any heavier rung
    # modifies the problem.
    outcome = _climb(_equilibrate_rung(opts, solve, newton), fresh, trace,
                     outcome)
    if isinstance(outcome, LadderResult):
        return outcome

    # Rung 2: tighter damping.  React to damping starvation (of the
    # latest failure) with a larger iteration budget — tiny steps need
    # room to accumulate.
    starved = outcome.damped_streak >= max(1, newton.max_iterations // 2)
    boost = opts.damping_iteration_boost * (2 if starved else 1)
    rungs = _damping_rungs(opts, solve, newton, boost, f", boost={boost}x")
    # Rung 3: gmin stepping — relax with large shunts, tighten gradually.
    if opts.gmin_steps:
        rungs.append(("gmin-step", lambda: _gmin_chain(
            solve, x0, newton, opts.gmin_steps),
            f"{len(opts.gmin_steps)} stages"))
    # Rung 4: pseudo-transient continuation.
    if opts.pseudo_transient:
        rungs.append(("pseudo-transient", lambda: _pseudo_transient(
            solve, circuit.num_nodes, x0, newton, extra_stamps),
            f"dt ramp to {_PTRAN_DT[-1]:g}s"))
    # Rung 5: source ramping.
    if opts.source_ramp and opts.source_steps:
        rungs.append(("source-ramp", lambda: _source_ramp(
            solve, x0, newton, opts.source_steps),
            f"{len(opts.source_steps)} steps"))
    outcome = _climb(rungs, fresh, trace, outcome)
    if isinstance(outcome, LadderResult):
        return outcome
    raise _exhausted(f"recovery ladder exhausted ({len(trace)} attempts)",
                     outcome, trace)


def _pseudo_transient(solve: Callable, num_nodes: int, x0: np.ndarray,
                      newton: NewtonOptions,
                      extra_stamps: ExtraStamps) -> np.ndarray:
    """Pseudo-transient continuation toward the DC point.

    Backward-Euler companion stamps of an artificial capacitance C from
    every node to ground add ``C/dt`` to the diagonal and pull the solve
    toward the previous iterate — a heavily regularised system for small
    dt that relaxes to the true one as dt grows.
    """
    x = x0.copy()
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

        x = solve(newton, x, stamps)
    # Final polish of the unmodified system from the continuation point.
    return solve(newton, x)


def _source_ramp(solve: Callable, x0: np.ndarray, newton: NewtonOptions,
                 steps: Tuple[float, ...]) -> np.ndarray:
    """Ramp independent sources up from a fraction of their level."""
    x = np.zeros_like(x0)
    for scale in steps:
        try:
            x = solve(newton, x, scale=scale)
        except ConvergenceError:
            # One retry with elevated gmin at this rung of the ramp.
            x = solve(replace(newton, gmin=1e-6), x, scale=scale)
    if abs(steps[-1] - 1.0) > 1e-12:
        x = solve(newton, x)
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

    Tried *before* the integrator cuts the step size: equilibration,
    tighter damping, a backward-Euler fallback when the failing method
    was trapezoidal, and local gmin stepping (backward Euler, warm-started
    from the last accepted state).  Element internal state is untouched —
    only accepted steps commit — so attempts are free of side effects.

    Returns ``None`` when every local rung fails (the caller should cut
    ``dt``), otherwise a :class:`LadderResult` naming the rung, whose
    ``ctx`` (the method that produced ``x``) commits the step.
    """
    from ..analysis.mna import Context
    from ..analysis.solver import newton_solve

    opts = options or RecoveryOptions()
    if not opts.enabled:
        return None
    fresh = _Contexts(lambda method: Context(
        mode="tran", time=ctx.time, dt=ctx.dt, method=method, x=x_prev))

    def solve(newton_opts: NewtonOptions, start: np.ndarray = guess,
              method: str = ctx.method) -> np.ndarray:
        return newton_solve(circuit, fresh(method), start, newton_opts)

    rungs = _equilibrate_rung(opts, solve, newton) + _damping_rungs(
        opts, solve, newton, opts.damping_iteration_boost)
    if ctx.method != "be":
        rungs.append(("backward-euler", lambda: solve(newton, method="be"),
                      ""))
    if opts.gmin_steps:
        rungs.append(("gmin-step", lambda: _gmin_chain(
            lambda o, x: solve(o, x, "be"), np.array(x_prev, dtype=float),
            newton, opts.gmin_steps), ""))
    outcome = _climb(rungs, fresh, [])
    return outcome if isinstance(outcome, LadderResult) else None
