"""Partial-result semantics for sweeps and characterisation drivers.

A 100-point sweep should return 100 annotated entries, not die at point
37.  :class:`SkipRecord` is the structured "this point failed, here is
why" marker the sweep drivers record after the recovery ladder has been
exhausted; :func:`run_point` is the tiny wrapper that converts analysis
errors into them.

Skip records are plain data (JSON-serialisable via :meth:`SkipRecord.to_dict`)
so they can be dumped next to results and rendered later with
``python -m repro diagnose``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import AnalysisError, ConvergenceError, TimestepError


@dataclass
class SkipRecord:
    """One skipped point of a sweep / characterisation run.

    Attributes
    ----------
    index:
        Position of the point in its sweep.
    label:
        Human-readable point description (e.g. ``"vctrl=0.25"``).
    stage:
        The driver that skipped it (e.g. ``"dc_sweep"``, ``"store_yield"``).
    reason:
        The failure message.
    error_type:
        Exception class name (``ConvergenceError``, ``TimestepError``...).
    time:
        Simulation time of the failure, when known (seconds).
    residual:
        Final KCL residual (amps), when known.
    worst_nodes:
        ``(row_label, residual_amps)`` pairs of the worst offenders.
    ladder_trace:
        Recovery-ladder attempts (dicts) recorded before giving up.
    extra:
        Driver-specific annotations (swept value, fault spec...).
    """

    index: int
    label: str
    stage: str
    reason: str
    error_type: str
    time: float = float("nan")
    residual: float = float("nan")
    worst_nodes: List[Tuple[str, float]] = field(default_factory=list)
    ladder_trace: List[dict] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_error(cls, err: Exception, index: int = 0, label: str = "",
                   stage: str = "", **extra: Any) -> "SkipRecord":
        """Build a record from a (preferably structured) analysis error."""
        record = cls(
            index=index,
            label=label,
            stage=stage,
            reason=str(err),
            error_type=type(err).__name__,
            extra=dict(extra),
        )
        if isinstance(err, ConvergenceError):
            record.time = err.time
            record.residual = err.residual
            record.worst_nodes = list(err.worst_nodes)
            record.ladder_trace = list(err.ladder_trace)
        elif isinstance(err, TimestepError):
            record.time = err.time
            if err.cause is not None:
                record.residual = err.cause.residual
                record.worst_nodes = list(err.cause.worst_nodes)
                record.ladder_trace = list(err.cause.ladder_trace)
        return record

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "stage": self.stage,
            "reason": self.reason,
            "error_type": self.error_type,
            "time": self.time,
            "residual": self.residual,
            "worst_nodes": [[n, float(v)] for n, v in self.worst_nodes],
            "ladder_trace": list(self.ladder_trace),
            "extra": dict(self.extra),
        }

    def render(self) -> str:
        """One-line summary for tables and logs."""
        label = self.label or f"#{self.index}"
        return f"{label}: {self.error_type}: {self.reason}"


def skip_payload(records: List[SkipRecord], stage: str = "") -> dict:
    """Wrap skip records in the JSON envelope ``repro diagnose`` renders."""
    return {
        "kind": "skip_records",
        "stage": stage or (records[0].stage if records else "unknown"),
        "records": [r.to_dict() for r in records],
    }


def run_point(
    fn: Callable[[], Any],
    index: int = 0,
    label: str = "",
    stage: str = "",
    **extra: Any,
) -> Tuple[Optional[Any], Optional[SkipRecord]]:
    """Run one sweep point; analysis failures become skip records.

    Returns ``(value, None)`` on success and ``(None, SkipRecord)`` when
    ``fn`` raised an :class:`~repro.errors.AnalysisError` (the recovery
    ladder inside the analyses has already been exhausted by then).
    Non-analysis exceptions — programming errors — propagate untouched.
    """
    try:
        return fn(), None
    except AnalysisError as err:
        return None, SkipRecord.from_error(err, index=index, label=label,
                                           stage=stage, **extra)
