"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
catching programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class UnitError(ReproError):
    """A quantity string could not be parsed into a float."""


class NetlistError(ReproError):
    """The circuit description is malformed (duplicate names, bad nodes...)."""


class AnalysisError(ReproError):
    """An analysis was configured incorrectly."""


class StampError(AnalysisError):
    """A device stamped non-finite (NaN/Inf) entries into the MNA system.

    Raised by the solver's fail-fast stamp guard *before*
    ``np.linalg.solve`` can propagate the garbage or die with an opaque
    ``LinAlgError`` — a broken deck (NaN device parameter, Inf source
    level) is a deck problem, not a convergence problem, so no recovery
    rung is attempted.

    Attributes
    ----------
    offenders:
        ``{"element", "rows", ...}`` dicts naming each element whose
        isolated stamp contained non-finite entries and the affected
        equation rows (MNA row labels).
    mode / time:
        Analysis mode and simulation time of the rejected solve.
    """

    def __init__(self, message: str, *, offenders=(), mode: str = "dc",
                 time: float = 0.0):
        super().__init__(message)
        self.offenders = list(offenders)
        self.mode = mode
        self.time = time

    def to_dict(self) -> dict:
        """JSON-serialisable forensics payload (see ``repro diagnose``)."""
        return {
            "kind": "stamp_failure",
            "message": str(self),
            "mode": self.mode,
            "time": self.time,
            "offenders": list(self.offenders),
        }


class ConvergenceError(AnalysisError):
    """The Newton-Raphson solver failed to converge.

    Beyond the message, the error carries the full failure forensics the
    recovery layer (:mod:`repro.recovery`) and the ``repro diagnose`` CLI
    consume.  All attributes are plain data so :meth:`to_dict` is always
    JSON-serialisable.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Infinity norm of the true KCL residual ``‖A·x − b‖∞`` at the
        final iterate (amps).
    residual_vector:
        The full per-equation residual vector (amps for node rows), or
        ``None`` when it could not be computed (e.g. non-finite iterate).
    worst_nodes:
        ``(row_label, residual_amps)`` pairs for the worst-offending
        equations, largest first.  Node rows are labelled with the node
        name, branch rows with ``I(<element>)``.
    time:
        Simulation time of the failing solve (seconds; 0 for DC).
    mode:
        Analysis mode of the failing solve (``"dc"`` or ``"tran"``).
    damped_streak:
        Number of *consecutive* damped Newton steps at exit.  A streak
        equal to ``iterations`` means the solve was damping-starved: it
        never took an undamped step, so it was never even eligible for
        the convergence test.
    cond_estimate:
        Exact 1-norm condition number of the final assembled MNA
        matrix (``inf`` when singular), or NaN when it could not be
        computed (a non-finite iterate or matrix).  Lets forensics
        distinguish "diverged on a healthy system" from "the system
        itself is numerically hopeless".
    x:
        Final iterate (list of floats), or ``None``.
    ladder_trace:
        Per-rung ``{"rung", "ok", "detail", "residual"}`` dicts filled in
        by the recovery ladder when every escalation strategy failed too.
    """

    def __init__(self, message: str, iterations: int = 0,
                 residual: float = float("nan"), *,
                 residual_vector=None, worst_nodes=(), time: float = 0.0,
                 mode: str = "dc", damped_streak: int = 0, x=None,
                 ladder_trace=None, cond_estimate: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.residual_vector = residual_vector
        self.worst_nodes = list(worst_nodes)
        self.time = time
        self.mode = mode
        self.damped_streak = damped_streak
        self.x = x
        self.ladder_trace = list(ladder_trace) if ladder_trace else []
        self.cond_estimate = cond_estimate

    def to_dict(self) -> dict:
        """JSON-serialisable forensics payload (see ``repro diagnose``)."""
        return {
            "kind": "convergence_failure",
            "message": str(self),
            "mode": self.mode,
            "time": self.time,
            "iterations": self.iterations,
            "damped_streak": self.damped_streak,
            "residual": self.residual,
            "cond_estimate": self.cond_estimate,
            "worst_nodes": [[name, float(r)] for name, r in self.worst_nodes],
            "residual_vector": (None if self.residual_vector is None
                                else [float(v) for v in self.residual_vector]),
            "x": None if self.x is None else [float(v) for v in self.x],
            "ladder_trace": list(self.ladder_trace),
        }


class TimestepError(AnalysisError):
    """The transient integrator could not find an acceptable timestep.

    Mirrors :class:`ConvergenceError`'s structured context so a failed
    transient names *where* it died, not just that it did.

    Attributes
    ----------
    time:
        Time of the step that could not be taken (seconds).
    dt:
        Timestep at which the integrator gave up (seconds).
    rejected_steps:
        Total rejected steps over the whole run up to the failure.
    dt_history:
        The most recent attempted timesteps, oldest first.
    cause:
        The final underlying :class:`ConvergenceError` (or ``None`` when
        the failure was not convergence-related, e.g. ``max_steps``).
    """

    def __init__(self, message: str, *, time: float = float("nan"),
                 dt: float = float("nan"), rejected_steps: int = 0,
                 dt_history=(), cause=None):
        super().__init__(message)
        self.time = time
        self.dt = dt
        self.rejected_steps = rejected_steps
        self.dt_history = [float(v) for v in dt_history]
        self.cause = cause

    def to_dict(self) -> dict:
        """JSON-serialisable forensics payload (see ``repro diagnose``)."""
        return {
            "kind": "timestep_failure",
            "message": str(self),
            "time": self.time,
            "dt": self.dt,
            "rejected_steps": self.rejected_steps,
            "dt_history": list(self.dt_history),
            "cause": self.cause.to_dict() if self.cause is not None else None,
        }


class DeviceError(ReproError):
    """A device model was given parameters outside its valid range."""


class CharacterizationError(ReproError):
    """A characterization run produced an unusable result.

    Raised, for example, when a store-current extraction never reaches the
    required current margin inside the swept bias range.
    """


class SequenceError(ReproError):
    """A power-gating benchmark sequence is inconsistent."""


class VerificationError(ReproError):
    """Static analysis found error-severity problems in a netlist.

    Raised by the lint-before-simulate hooks (``repro.verify``) so a
    mis-wired power switch or orphaned MTJ stops a run *before* the
    solver turns it into a convergence failure or a silently wrong
    energy number.

    Attributes
    ----------
    diagnostics:
        The error-severity :class:`repro.verify.Diagnostic` records that
        triggered the failure.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)
