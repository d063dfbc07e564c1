"""Convergence recovery, failure forensics and fault injection.

The resilience layer around :mod:`repro.analysis`:

* :mod:`repro.recovery.ladder` — the escalation ladder a failed Newton
  solve walks (tighter damping → gmin stepping → backward-Euler fallback
  → pseudo-transient continuation → source ramping), used automatically
  by :func:`repro.analysis.dc.operating_point` and the transient
  integrator.
* :mod:`repro.recovery.forensics` — renders and persists the structured
  failure context every :class:`~repro.errors.ConvergenceError` /
  :class:`~repro.errors.TimestepError` now carries (``python -m repro
  diagnose``), and owns :func:`chaos_report`, the one audit all five
  fault-injection suites return (``python -m repro chaos``).
* :mod:`repro.recovery.partial` — :class:`SkipRecord` partial-result
  semantics for the sweep and characterisation drivers: failed points
  are annotated, not fatal.
* :mod:`repro.recovery.faults` — the solver and executor fault models
  (imported lazily; ``from repro.recovery import faults``) that prove
  the ladder and the campaign engine degrade gracefully.  The serve
  and crash-safety suites live in :mod:`repro.serve.chaos` and
  :mod:`repro.verify.crashcheck`.

See ``docs/ROBUSTNESS.md`` for the full tour.
"""

from .ladder import (
    LadderResult,
    RecoveryOptions,
    RungAttempt,
    recover_dc,
    recover_transient_step,
)
from .forensics import chaos_report, dump_failure, load_failure, render_failure
from .partial import SkipRecord, run_point, skip_payload

__all__ = [
    "LadderResult",
    "RecoveryOptions",
    "RungAttempt",
    "recover_dc",
    "recover_transient_step",
    "chaos_report",
    "dump_failure",
    "load_failure",
    "render_failure",
    "SkipRecord",
    "run_point",
    "skip_payload",
]
