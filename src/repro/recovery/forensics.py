"""Failure forensics: render, dump and reload solver post-mortems.

The solver attaches structured context to every
:class:`~repro.errors.ConvergenceError` / :class:`~repro.errors.TimestepError`
(true KCL residual vector, worst-offending nodes, damped-step streak,
time point, dt history, ladder trace).  This module turns those payloads
— the :class:`~repro.recovery.partial.SkipRecord` lists produced by
partial-result sweeps, and the :func:`chaos_report` audit every
fault-injection suite returns — into human-readable reports, and
persists them as JSON for the ``python -m repro diagnose`` CLI.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from ..errors import ConvergenceError, StampError, TimestepError
from ..units import format_eng

PayloadLike = Union[ConvergenceError, StampError, TimestepError,
                    Dict[str, Any]]


def failure_payload(obj: PayloadLike) -> Dict[str, Any]:
    """Normalise an error or an already-dumped dict to a payload dict."""
    if isinstance(obj, (ConvergenceError, StampError, TimestepError)):
        return obj.to_dict()
    if isinstance(obj, dict):
        return obj
    raise TypeError(f"cannot diagnose object of type {type(obj).__name__}")


def dump_failure(obj: PayloadLike, path: Union[str, Path]) -> Path:
    """Write a failure payload as JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(failure_payload(obj), indent=2))
    return path


def load_failure(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a payload previously written by :func:`dump_failure` (or any
    of the skip-record / chaos-report JSON files this package emits)."""
    return json.loads(Path(path).read_text())


def chaos_report(suite: str, records: Iterable[Dict[str, Any]], n_in: int,
                 **extras: Any) -> Dict[str, Any]:
    """The one audit every fault-injection suite returns.

    Each record is a dict with ``name``, ``expected``, ``actual``, ``ok``
    and an optional ``detail`` (suites may add their own keys).  ``n_in``
    counts what the suite set out to check and ``n_out`` the records it
    delivered, so the report is ``ok`` only when nothing was lost
    (``n_in == n_out``) and every record is ok.  ``counts`` tallies the
    records by ``actual``; ``extras`` are suite context kept in the JSON.
    """
    records = list(records)
    counts = Counter(record["actual"] for record in records)
    return {
        "kind": "chaos_report",
        "suite": suite,
        "n_in": n_in,
        "n_out": len(records),
        "counts": dict(sorted(counts.items())),
        "ok": n_in == len(records) and all(r["ok"] for r in records),
        "records": records,
        **extras,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_ladder_trace(trace: Iterable[Dict[str, Any]],
                         indent: str = "  ") -> List[str]:
    lines = []
    for attempt in trace:
        status = "ok" if attempt.get("ok") else "failed"
        detail = attempt.get("detail") or ""
        if detail:
            detail = f" — {detail}"
        lines.append(f"{indent}[{status:6s}] {attempt.get('rung')}{detail}")
    return lines


def _render_convergence(payload: Dict[str, Any]) -> List[str]:
    lines = [f"convergence failure: {payload.get('message', '')}"]
    mode = payload.get("mode", "dc")
    time = payload.get("time", 0.0)
    lines.append(f"  analysis:       {mode}"
                 + (f" @ t = {format_eng(time, 's')}" if mode == "tran" else ""))
    lines.append(f"  iterations:     {payload.get('iterations', 0)}")
    streak = payload.get("damped_streak", 0)
    if streak:
        lines.append(f"  damped streak:  {streak} consecutive damped steps "
                     "(damping-starved solve)")
    residual = payload.get("residual")
    if residual is not None and residual == residual:   # not NaN
        lines.append(f"  KCL residual:   {format_eng(residual, 'A')} (inf-norm)")
    cond = payload.get("cond_estimate")
    if cond is not None and cond == cond:   # not NaN
        lines.append(f"  cond estimate:  {cond:.3g} (1-norm"
                     + ("; numerically hopeless system)" if cond > 1e15
                        else ")"))
    worst = payload.get("worst_nodes") or []
    if worst:
        lines.append("  worst offenders:")
        for name, value in worst:
            lines.append(f"    {name:24s} {format_eng(value, 'A')}")
    trace = payload.get("ladder_trace") or []
    if trace:
        lines.append("  recovery ladder:")
        lines.extend(_render_ladder_trace(trace, indent="    "))
    return lines


def _render_timestep(payload: Dict[str, Any]) -> List[str]:
    lines = [f"timestep failure: {payload.get('message', '')}"]
    lines.append(f"  time:           {format_eng(payload.get('time', 0.0), 's')}")
    lines.append(f"  dt at failure:  {format_eng(payload.get('dt', 0.0), 's')}")
    lines.append(f"  rejected steps: {payload.get('rejected_steps', 0)}")
    history = payload.get("dt_history") or []
    if history:
        shown = ", ".join(format_eng(dt, "s") for dt in history[-8:])
        lines.append(f"  dt history:     {shown}")
    cause = payload.get("cause")
    if cause:
        lines.append("  final Newton failure:")
        lines.extend("  " + line for line in _render_convergence(cause))
    return lines


def _render_stamp(payload: Dict[str, Any]) -> List[str]:
    lines = [f"stamp failure: {payload.get('message', '')}"]
    mode = payload.get("mode", "dc")
    time = payload.get("time", 0.0)
    lines.append(f"  analysis:       {mode}"
                 + (f" @ t = {format_eng(time, 's')}" if mode == "tran" else ""))
    offenders = payload.get("offenders") or []
    if offenders:
        lines.append("  offending elements:")
        for entry in offenders:
            rows = entry.get("rows") or []
            where = f" @ rows [{', '.join(map(str, rows))}]" if rows else ""
            err = entry.get("error")
            suffix = f" ({err})" if err else ""
            lines.append(f"    {entry.get('element')}{where}{suffix}")
    return lines


def _render_skip_records(payload: Dict[str, Any]) -> List[str]:
    records = payload.get("records") or []
    lines = [f"skip records: {len(records)} point(s) skipped "
             f"(stage: {payload.get('stage', 'unknown')})"]
    for record in records:
        label = record.get("label") or f"#{record.get('index')}"
        lines.append(f"  [{record.get('index')}] {label}: "
                     f"{record.get('error_type')}: {record.get('reason')}")
        worst = record.get("worst_nodes") or []
        if worst:
            names = ", ".join(f"{n} ({format_eng(v, 'A')})"
                              for n, v in worst[:3])
            lines.append(f"      worst nodes: {names}")
        trace = record.get("ladder_trace") or []
        if trace:
            lines.extend(_render_ladder_trace(trace, indent="      "))
    return lines


def _render_chaos(payload: Dict[str, Any]) -> List[str]:
    where = f" on {payload['target']}" if payload.get("target") else ""
    lines = [f"chaos report: {payload.get('suite', '?')}{where} — "
             f"{payload.get('n_in')} in, {payload.get('n_out')} out — "
             + ("PASS" if payload.get("ok") else "FAIL")]
    counts = payload.get("counts") or {}
    if counts:
        lines.append("  " + ", ".join(f"{k}: {v}" for k, v in counts.items()))
    for record in payload.get("records") or []:
        line = (f"  [{'ok ' if record.get('ok') else 'BAD'}] "
                f"{record.get('name')}: {record.get('actual')}")
        if not record.get("ok"):
            line += f" (want {record.get('expected')})"
        if record.get("detail"):
            line += f" — {record['detail']}"
        lines.append(line)
    return lines


def render_failure(obj: PayloadLike) -> str:
    """Human-readable report of any forensics payload this package emits."""
    payload = failure_payload(obj)
    kind = payload.get("kind")
    if kind == "convergence_failure":
        return "\n".join(_render_convergence(payload))
    if kind == "timestep_failure":
        return "\n".join(_render_timestep(payload))
    if kind == "stamp_failure":
        return "\n".join(_render_stamp(payload))
    if kind == "skip_records":
        return "\n".join(_render_skip_records(payload))
    if kind == "chaos_report":
        return "\n".join(_render_chaos(payload))
    return json.dumps(payload, indent=2)
