"""Static-analysis sweep — lint every shipped deck and cell bench.

Unlike the figure benchmarks this regenerates no paper artefact; it
times the :mod:`repro.verify` analyser over everything the repo ships
(the example SPICE decks plus the nv/6t/nvff/array testbenches) and
asserts the whole set is free of error-severity findings, archiving
the combined report under ``benchmarks/results/``.  A rule or cell
change that breaks the shipped netlists fails here by name.

``bench_lint_source_tree`` additionally measures the incremental
self-lint: one cold run (empty cache — serial parse and the RV4xx rules
over every module) against warm reruns (cache hits — no parsing),
writing the cold/warm split to ``BENCH_lint.json`` at the repo root and
asserting the warm path earns its complexity (>= 5x).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

import pytest

from repro.cells import build_cell_array
from repro.exec.atomicio import atomic_write_text
from repro.characterize.ff_runner import _build_ff_bench
from repro.characterize.testbench import build_cell_testbench
from repro.devices.mtj import MTJ_TABLE1
from repro.devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from repro.pg.modes import OperatingConditions
from repro.verify import (
    default_source_paths,
    verify_circuit,
    verify_deck_file,
    verify_source,
)
from repro.verify.emit import render_text

_REPO = Path(__file__).resolve().parent.parent
DECKS = sorted((_REPO / "examples" / "decks").glob("*.sp"))


def _bench_circuits():
    """(name, circuit) for every built-in testbench the repo ships."""
    yield "nv", build_cell_testbench("nv").circuit
    yield "6t", build_cell_testbench("6t").circuit
    cond = OperatingConditions()
    bench, _ = _build_ff_bench(cond, NFET_20NM_HP, PFET_20NM_HP,
                               MTJ_TABLE1)
    yield "nvff", bench
    yield "array", build_cell_array(2, 2, lint=False).circuit


def _lint_everything():
    reports = []
    for path in DECKS:
        reports.append((f"deck:{path.name}", verify_deck_file(path)))
    for name, circuit in _bench_circuits():
        reports.append((f"cell:{name}", verify_circuit(circuit,
                                                       target=name)))
    return reports


@pytest.mark.lint
def bench_lint_shipped_artifacts(benchmark, publish):
    assert DECKS, "no example decks found — shipped decks moved?"
    reports = benchmark(_lint_everything)
    publish("lint", "\n\n".join(render_text(report)
                                for _target, report in reports))
    offenders = {target: [str(d) for d in report.errors()]
                 for target, report in reports if report.has_errors}
    assert not offenders, f"shipped netlists have lint errors: {offenders}"


@pytest.mark.lint
def bench_lint_source_tree(benchmark, publish, tmp_path):
    """Cold vs warm self-lint over ``src/repro``.

    The warm path must reproduce the cold report bit-for-bit while
    parsing nothing; ``BENCH_lint.json`` records both timings so the
    cache's speedup is a tracked artefact, not an anecdote.
    """
    from repro.verify.source import iter_source_files

    roots = default_source_paths()
    assert roots, "shipped source tree not found — package layout moved?"
    cache = tmp_path / "lint-cache"

    t0 = perf_counter()
    cold_report = verify_source(roots, cache_dir=cache)
    cold_s = perf_counter() - t0

    def warm():
        return verify_source(roots, cache_dir=cache)

    warm_times = []
    for _ in range(3):
        t0 = perf_counter()
        warm_report = warm()
        warm_times.append(perf_counter() - t0)
    warm_s = min(warm_times)
    benchmark(warm)

    def key(d):
        return (d.code, d.target, d.location.line if d.location else 0,
                d.message)

    assert sorted(map(key, warm_report)) == sorted(map(key, cold_report)), \
        "warm lint run diverged from the cold run"
    noisy = cold_report.errors() + cold_report.warnings()
    assert not noisy, ("shipped source has lint errors/warnings: "
                       f"{[str(d) for d in noisy]}")

    by_band = {}
    for diag in cold_report:
        band = f"RV{diag.code[2]}xx"
        by_band[band] = by_band.get(band, 0) + 1
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    payload = {
        "schema": 5,
        "modules": sum(1 for _ in iter_source_files(roots)),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 1),
        "diagnostics": {
            "total": len(cold_report),
            "by_band": dict(sorted(by_band.items())),
        },
    }
    atomic_write_text(_REPO / "BENCH_lint.json",
                      json.dumps(payload, indent=2) + "\n")
    # Repo-relative paths, so the archived report does not depend on
    # where the checkout lives.
    publish("lint_source",
            f"cold {cold_s:.3f} s / warm {warm_s:.3f} s "
            f"({speedup:.1f}x)\n\n"
            + render_text(cold_report).replace(f"{_REPO}{os.sep}", ""))
    assert speedup >= 5.0, (
        f"warm lint is only {speedup:.1f}x faster than cold "
        f"({warm_s:.3f} s vs {cold_s:.3f} s) — the incremental cache "
        "is not pulling its weight")
