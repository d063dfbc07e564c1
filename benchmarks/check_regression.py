"""Benchmark regression gate: fresh BENCH_*.json vs the committed copy.

The benches write three artefacts at the repo root — ``BENCH_engine
.json`` (numerical-trust overhead), ``BENCH_fig7.json`` (the paper's
energy sweeps) and ``BENCH_serve.json`` (serving-layer
latency/coalescing).
The committed copies are the *expected* numbers; CI stashes
them before regenerating and then runs::

    python benchmarks/check_regression.py --baseline-dir bench-baseline

Every metric is compared under a per-metric policy, because the three
files mix two very different kinds of number:

* **Deterministic** metrics (coalescing counts, solver residuals, the
  Fig. 7 energy curves) must match (exact, or to a tight relative
  tolerance for floats crossing libm versions).
* **Timing** metrics (latencies, certified milliseconds) are
  machine-dependent and are *not* compared directly; only the ratios
  derived from them (overhead percentages, memo-path speedup) are,
  with wide tolerances.

A metric present in the fresh file but absent from the baseline is
reported as *new* and passes (a PR adding a metric regenerates the
committed copy in the same change); a baseline metric missing from the
fresh file fails — benches silently dropping coverage is itself a
regression.  Exit status 0/1; ``--strict-missing`` also fails when a
whole baseline file was never regenerated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

_REPO = Path(__file__).resolve().parent.parent

#: (metric path, policy, tolerance).  Policies:
#: ``exact``      — values must be equal.
#: ``abs``        — |fresh - base| <= tol.
#: ``rel``        — |fresh - base| <= tol * max(|base|, tiny).
#: ``min-ratio``  — fresh >= tol * base (larger is better; may improve
#:                  freely, may not collapse).
#: ``max-growth`` — fresh <= tol * max(base, tiny) (smaller is better).
#: ``deep-rel``   — recursive numeric compare of an entire subtree.
SPECS: Dict[str, List[Tuple[str, str, float]]] = {
    "BENCH_engine.json": [
        ("schema", "exact", 0.0),
        ("operating_point.overhead_pct", "abs", 30.0),
        ("read_burst_transient.overhead_pct", "abs", 30.0),
        ("read_burst_transient.accepted_steps", "rel", 0.25),
        # a change that keeps the solver numerics moves it by 0
        ("read_burst_transient.newton_iterations", "rel", 0.02),
        ("certification.worst_residual_norm_a", "max-growth", 1e3),
        ("certification.defended_steps", "exact", 0.0),
        ("certification.condest_inversions", "exact", 0.0),
        # what one cold nv characterization simulates may shrink, but
        # may not grow beyond newton_iterations' 2%; rejected steps are
        # recorded only, since 2% of the store's 23 is under one step
        ("characterization.read.accepted_steps", "max-growth", 1.02),
        ("characterization.write.accepted_steps", "max-growth", 1.02),
        ("characterization.store.accepted_steps", "max-growth", 1.02),
        ("characterization.restore.accepted_steps", "max-growth", 1.02),
        ("characterization.newton_iterations", "max-growth", 1.02),
    ],
    "BENCH_fig7.json": [
        ("schema", "exact", 0.0),
        ("fig7a", "deep-rel", 1e-6),
        ("fig7b", "deep-rel", 1e-6),
        ("fig7c", "deep-rel", 1e-6),
    ],
    "BENCH_serve.json": [
        ("schema", "exact", 0.0),
        # the serve contract: K clients, one execution, factor K
        ("coalesce.clients", "exact", 0.0),
        ("coalesce.backend_executions", "exact", 0.0),
        ("coalesce.factor", "exact", 0.0),
        # raw latencies are machine noise; the memo-path speedup ratio
        # may improve freely but must not collapse
        ("warm.speedup", "min-ratio", 0.2),
    ],
}

_TINY = 1e-300


def _lookup(payload: Dict[str, Any], dotted: str) -> Tuple[bool, Any]:
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def _deep_mismatch(fresh: Any, base: Any, rtol: float,
                   crumb: str = "") -> Optional[str]:
    """First numeric/structural divergence in a JSON subtree, or None."""
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in base:
            if key not in fresh:
                return f"{crumb}.{key}: missing"
            found = _deep_mismatch(fresh[key], base[key], rtol,
                                   f"{crumb}.{key}")
            if found:
                return found
        return None
    if isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            return f"{crumb}: length {len(fresh)} != {len(base)}"
        for i, (f, b) in enumerate(zip(fresh, base)):
            found = _deep_mismatch(f, b, rtol, f"{crumb}[{i}]")
            if found:
                return found
        return None
    if isinstance(base, (int, float)) and not isinstance(base, bool) \
            and isinstance(fresh, (int, float)) \
            and not isinstance(fresh, bool):
        if abs(fresh - base) <= rtol * max(abs(base), _TINY):
            return None
        return f"{crumb}: {fresh} vs {base}"
    if fresh != base:
        return f"{crumb}: {fresh!r} != {base!r}"
    return None


def _check_metric(policy: str, tol: float, fresh: Any,
                  base: Any) -> Optional[str]:
    """Failure description, or None when within policy."""
    if policy == "deep-rel":
        return _deep_mismatch(fresh, base, tol)
    if policy == "exact":
        return None if fresh == base else f"{fresh!r} != {base!r}"
    try:
        f, b = float(fresh), float(base)
    except (TypeError, ValueError):
        return f"non-numeric: {fresh!r} vs {base!r}"
    if policy == "abs":
        return None if abs(f - b) <= tol \
            else f"{f} vs {b} (|Δ| > {tol})"
    if policy == "rel":
        return None if abs(f - b) <= tol * max(abs(b), _TINY) \
            else f"{f} vs {b} (rel > {tol})"
    if policy == "min-ratio":
        return None if f >= tol * b \
            else f"{f} < {tol} x {b}"
    if policy == "max-growth":
        return None if f <= tol * max(b, _TINY) \
            else f"{f} > {tol} x {b}"
    raise ValueError(f"unknown policy {policy!r}")


def compare_file(name: str, fresh: Dict[str, Any],
                 base: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Per-metric verdicts for one benchmark artefact."""
    for dotted, policy, tol in SPECS[name]:
        have_base, base_val = _lookup(base, dotted)
        have_fresh, fresh_val = _lookup(fresh, dotted)
        if not have_base and not have_fresh:
            continue
        if not have_base:
            yield {"file": name, "metric": dotted, "status": "new",
                   "detail": f"baseline has no {dotted}"}
            continue
        if not have_fresh:
            yield {"file": name, "metric": dotted, "status": "FAIL",
                   "detail": "metric vanished from the fresh run"}
            continue
        problem = _check_metric(policy, tol, fresh_val, base_val)
        if problem is None:
            yield {"file": name, "metric": dotted, "status": "ok",
                   "detail": f"{policy}"}
        else:
            yield {"file": name, "metric": dotted, "status": "FAIL",
                   "detail": problem}


def run_checks(baseline_dir: Path, fresh_dir: Path,
               strict_missing: bool = False) -> Tuple[bool, List[Dict]]:
    """Compare every known artefact present in both directories."""
    rows: List[Dict[str, Any]] = []
    compared = 0
    for name in sorted(SPECS):
        base_path = baseline_dir / name
        fresh_path = fresh_dir / name
        if not base_path.exists():
            rows.append({"file": name, "metric": "-", "status": "new",
                         "detail": "no committed baseline yet"})
            continue
        if not fresh_path.exists():
            status = "FAIL" if strict_missing else "skip"
            rows.append({"file": name, "metric": "-", "status": status,
                         "detail": "not regenerated this run"})
            continue
        try:
            base = json.loads(base_path.read_text())
            fresh = json.loads(fresh_path.read_text())
        except ValueError as err:
            rows.append({"file": name, "metric": "-", "status": "FAIL",
                         "detail": f"unreadable: {err}"})
            continue
        compared += 1
        rows.extend(compare_file(name, fresh, base))
    ok = compared > 0 and not any(r["status"] == "FAIL" for r in rows)
    if compared == 0:
        rows.append({"file": "-", "metric": "-", "status": "FAIL",
                     "detail": "no artefact was compared at all"})
    return ok, rows


def render(rows: List[Dict[str, Any]], ok: bool) -> str:
    lines = [f"bench regression gate ({'PASS' if ok else 'FAIL'})"]
    for row in rows:
        lines.append(f"  {row['status']:<4s} {row['file']:<18s} "
                     f"{row['metric']:<40s} {row['detail']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh BENCH_*.json against committed "
                    "baselines with per-metric tolerances")
    parser.add_argument("--baseline-dir", default=None, metavar="DIR",
                        help="directory holding the committed copies "
                             "(default: the git HEAD versions are "
                             "expected to be stashed there by CI)")
    parser.add_argument("--fresh-dir", default=str(_REPO), metavar="DIR",
                        help="directory holding the regenerated files "
                             "(default: repo root)")
    parser.add_argument("--strict-missing", action="store_true",
                        help="fail when a baselined artefact was not "
                             "regenerated this run")
    args = parser.parse_args(argv)
    if args.baseline_dir is None:
        parser.error("--baseline-dir is required")
    ok, rows = run_checks(Path(args.baseline_dir), Path(args.fresh_dir),
                          strict_missing=args.strict_missing)
    print(render(rows, ok))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
