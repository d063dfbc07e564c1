"""Baseline files: suppress pre-existing findings, fail only on new ones.

Landing a new rule band on a mature tree normally forces a choice
between a mass-cleanup commit and leaving the band advisory.  A
baseline file is the third option: record today's findings once
(``repro lint-source --update-baseline lint-baseline.json``), commit
the file, and from then on ``--baseline lint-baseline.json`` drops
exactly those findings from the report — anything *new* still fails
``--strict`` CI.  Shrink the baseline as violations get fixed;
:func:`apply_baseline` reports unmatched (stale) fingerprints so the
file never silently rots.

Fingerprints hash ``code | target | subject | message`` — deliberately
**line-number-free**, so unrelated edits that shift a finding down the
file do not resurrect it.  The trade-off is honest: changing a
finding's message text (or moving the function to another module)
produces a new fingerprint, which is exactly when a human should look
again.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Set, Tuple

from ..exec.atomicio import atomic_write_text
from .core import Diagnostic, Report, Severity

#: Bump when the fingerprint recipe changes (stale baselines must fail
#: loudly, not silently match nothing).
BASELINE_SCHEMA = 1


def baseline_fingerprint(diag: Diagnostic) -> str:
    """Stable, line-number-free fingerprint of one diagnostic."""
    blob = "|".join((diag.code, diag.target, diag.subject, diag.message))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_baseline(path: "str | Path", report: Report) -> int:
    """Record ``report``'s findings as the new baseline; returns count.

    The file keeps a human-auditable entry per fingerprint (code,
    target, subject, message) alongside the hash — reviewers can see
    *what* was baselined without replaying the lint run.  Info-severity
    findings are never recorded: they are advisory, cannot fail a gate,
    and baselining them would only rot.
    """
    entries = {}
    for diag in report.diagnostics:
        if diag.severity is Severity.INFO:
            continue
        fingerprint = baseline_fingerprint(diag)
        entries[fingerprint] = {
            "code": diag.code,
            "target": diag.target,
            "subject": diag.subject,
            "message": diag.message,
        }
    payload = {
        "schema": BASELINE_SCHEMA,
        "count": len(entries),
        "entries": {k: entries[k] for k in sorted(entries)},
    }
    atomic_write_text(Path(path),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(entries)


def load_baseline(path: "str | Path") -> Set[str]:
    """Fingerprints recorded in a baseline file.

    Raises
    ------
    ValueError
        On unparseable files or a schema mismatch — a stale or corrupt
        baseline must not silently un-suppress (or over-suppress) a
        strict CI gate.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read baseline {path}: {err}") from err
    if not isinstance(data, dict) \
            or data.get("schema") != BASELINE_SCHEMA \
            or not isinstance(data.get("entries"), dict):
        raise ValueError(
            f"baseline {path} has schema {data.get('schema')!r}, "
            f"expected {BASELINE_SCHEMA}; regenerate with "
            "--update-baseline")
    return set(data["entries"])


def prune_baseline(path: "str | Path", report: Report) -> int:
    """Delete stale fingerprints from the baseline at ``path``.

    A fingerprint is stale when it matches nothing in ``report`` — the
    violation was fixed but its entry lingers.  Unlike
    :func:`write_baseline` this never *adds* entries, so a regression
    introduced since the baseline was recorded stays visible (pruning
    is safe to run blindly; re-recording is not).  Returns the number
    of entries removed.

    Raises
    ------
    ValueError
        On unreadable/mismatched baseline files (same contract as
        :func:`load_baseline`).
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read baseline {path}: {err}") from err
    if not isinstance(data, dict) \
            or data.get("schema") != BASELINE_SCHEMA \
            or not isinstance(data.get("entries"), dict):
        raise ValueError(
            f"baseline {path} has schema {data.get('schema')!r}, "
            f"expected {BASELINE_SCHEMA}; regenerate with "
            "--update-baseline")
    live = {baseline_fingerprint(diag) for diag in report.diagnostics}
    entries = data["entries"]
    stale = [fp for fp in entries if fp not in live]
    for fp in stale:
        del entries[fp]
    payload = {
        "schema": BASELINE_SCHEMA,
        "count": len(entries),
        "entries": {k: entries[k] for k in sorted(entries)},
    }
    atomic_write_text(Path(path),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(stale)


def apply_baseline(report: Report,
                   fingerprints: Iterable[str]) -> Tuple[Report, int, int]:
    """Drop baselined findings from ``report``.

    Returns ``(filtered report, suppressed count, stale count)`` where
    *stale* counts baseline fingerprints that matched nothing — fixed
    violations whose entries should be pruned from the file.
    """
    wanted = set(fingerprints)
    kept = []
    matched: Set[str] = set()
    for diag in report.diagnostics:
        fingerprint = baseline_fingerprint(diag)
        if fingerprint in wanted:
            matched.add(fingerprint)
        else:
            kept.append(diag)
    filtered = Report(target=report.target, diagnostics=kept)
    return filtered, len(report.diagnostics) - len(kept), \
        len(wanted - matched)
