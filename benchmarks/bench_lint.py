"""Static-analysis sweep — lint every shipped deck and cell bench.

Unlike the figure benchmarks this regenerates no paper artefact; it
times the :mod:`repro.verify` analyser over everything the repo ships
(the example SPICE decks plus the nv/6t/nvff/array testbenches) and
asserts the whole set is free of error-severity findings, archiving
the combined report under ``benchmarks/results/``.  A rule or cell
change that breaks the shipped netlists fails here by name.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cells import build_cell_array
from repro.characterize.ff_runner import build_ff_testbench
from repro.characterize.testbench import build_cell_testbench
from repro.verify import verify_circuit, verify_deck_file
from repro.verify.emit import render_text

_REPO = Path(__file__).resolve().parent.parent
DECKS = sorted((_REPO / "examples" / "decks").glob("*.sp"))


def _bench_circuits():
    """(name, circuit) for every built-in testbench the repo ships."""
    yield "nv", build_cell_testbench("nv").circuit
    yield "6t", build_cell_testbench("6t").circuit
    yield "nvff", build_ff_testbench()[0]
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
