"""Tests of the end-to-end benchmark: tracer, worker checks and run.py.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py``
(about half a minute; most of it is one traced cold ``repro all``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402

ROOT = HERE.parents[1]


@pytest.fixture(scope="module")
def paper_spans(tmp_path_factory):
    """Spans of one traced cold ``repro all``, run in this process."""
    from repro.cli import main

    cache = tmp_path_factory.mktemp("paper-cache")
    tracer = T.Tracer()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(cache))
        tracer.install()
        try:
            assert tracer.repetition(1, lambda: main(["all"])) == 0
        finally:
            tracer.uninstall()
    return tracer.spans


@pytest.fixture(scope="module")
def recovery_spans():
    """A transient whose Newton budget is too small, so the transient
    recovery ladder runs from ``transient``'s own call site."""
    from repro.analysis import TransientOptions, transient
    from repro.analysis.solver import NewtonOptions
    from repro.cells import PowerDomain
    from repro.characterize.testbench import build_cell_testbench
    from repro.pg.modes import OperatingConditions

    tb = build_cell_testbench("6t", OperatingConditions(), PowerDomain())
    tracer = T.Tracer()
    tracer.install()
    options = TransientOptions(newton=NewtonOptions(max_iterations=1))
    try:
        tracer.repetition(1, lambda: transient(
            tb.circuit, 2e-10, ic=tb.initial_conditions(True),
            options=options))
    finally:
        tracer.uninstall()
    return tracer.spans


@pytest.fixture(scope="module")
def cell_runs():
    """The untraced cell-cold digest, and two traced runs of it."""
    plain = worker._digest(worker._cell_rep(2015))
    return plain, [worker.run_in_process("cell-cold", 2015, 0.0, True, None)
                   for _ in range(2)]


def test_every_wrapper_fires(paper_spans, recovery_spans):
    fired = {name: 0 for name in (*T.SPANS, *T.LEAVES)}
    for span in paper_spans + recovery_spans:
        if span[2] in fired:
            fired[span[2]] += 1
        for leaf, (calls, _, _) in T.leaf_records(span).items():
            fired[leaf] += calls
    assert [name for name, n in fired.items() if n == 0] == []


def test_paper_trace_labels_every_phase(paper_spans):
    metrics = T.layer_metrics([s for s in paper_spans if s[5] == 1])
    assert metrics["characterize.cells"] == 28
    assert metrics["characterize.cache.misses"] == 28
    assert metrics["analysis.transient.calls"] == 84
    for phase in T.PHASES:
        assert metrics[f"characterize.phase.{phase}.newton_solves"] > 0
    assert set(metrics) | {"trace.overhead_frac"} == set(T.CATALOGUE)


def test_uninstall_restores_every_reference():
    import importlib

    import numpy as np
    import repro.analysis.solver as solver
    from repro.devices.finfet import FinFET

    # ``repro.analysis.transient`` the attribute is the function.
    transient_mod = importlib.import_module("repro.analysis.transient")

    before = (solver.newton_solve, transient_mod.newton_solve,
              np.linalg.solve, FinFET.stamp)
    tracer = T.Tracer()
    tracer.install()
    assert transient_mod.newton_solve is solver.newton_solve
    assert solver.newton_solve is not before[0]
    tracer.uninstall()
    assert (solver.newton_solve, transient_mod.newton_solve,
            np.linalg.solve, FinFET.stamp) == before


def test_rebinding_skips_tracer_module(monkeypatch):
    import repro.analysis.solver as solver

    original = solver.newton_solve
    caller = types.ModuleType("e2e_fake_caller")
    caller.newton_solve = original
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    monkeypatch.setattr(T, "newton_solve", original, raising=False)
    tracer = T.Tracer()
    tracer.install()
    try:
        assert caller.newton_solve is solver.newton_solve is not original
        assert T.newton_solve is original
    finally:
        tracer.uninstall()
    assert caller.newton_solve is original


def test_traced_and_untraced_results_identical(cell_runs):
    plain, traced = cell_runs
    for run in traced:
        assert run["digest"] == plain
        assert (run["failed"], run["problems"]) == (0, [])


def test_two_traced_runs_give_identical_counts(cell_runs):
    first, second = cell_runs[1]
    counts = [name for name, (unit, _) in T.CATALOGUE.items()
              if unit == "count" and name in first["layers"][0]]
    assert counts
    assert ({n: first["layers"][0][n] for n in counts}
            == {n: second["layers"][0][n] for n in counts})


def _span(sid, parent, name, start, tag=None):
    return (sid, parent, name, start, start + 1, 1, 1, tag, True,
            [0] * (3 * len(T.LEAF_NAMES)))


def test_phase_order_assertion_trips_on_reordered_fake():
    good = [_span(1, 0, "characterize.cell", 0, "6t"),
            _span(2, 1, "analysis.operating_point", 1),
            _span(3, 1, "analysis.transient", 2, [10, 1, 0]),
            _span(4, 1, "analysis.transient", 3, [20, 2, 0])]
    assert T.layer_metrics(good)["characterize.phase.write.accepted_steps"] \
        == 20
    reordered = [good[0], _span(2, 1, "analysis.operating_point", 9),
                 *good[2:]]
    with pytest.raises(T.TraceError, match="before its static"):
        T.layer_metrics(reordered)
    missing = good[:3]
    with pytest.raises(T.TraceError, match="ran 1 transients, expected 2"):
        T.layer_metrics(missing)


def test_mc_check_counts_failed_samples_and_mismatches():
    expected = json.loads(worker.EXPECTED.read_text())
    want = expected["mc-dc"]["seeds"]["7"]
    result = {**want, "margins": [], "snm": []}
    assert worker._check_mc(result, 7, expected)[1:] == (0, [])
    off = {**result, "snm_mean": want["snm_mean"] * 1.01}
    attempted, failed, problems = worker._check_mc(off, 7, expected)
    assert (attempted, failed) == (200, 100) and "snm_mean" in problems[0]
    unknown = {**result, "store_n_failed": 2}
    assert worker._check_mc(unknown, 123456, expected)[1] == 2


def test_compare_verdicts():
    def s(*samples):
        xs = sorted(samples)
        return {"value": xs[0], "median": xs[len(xs) // 2], "q1": xs[0],
                "q3": xs[-1], "samples": list(samples)}

    base = s(1.0, 1.01, 1.02)
    assert compare.verdict(base, s(1.05, 1.06, 1.07), 0.1, "lower") \
        == "within bound"
    assert compare.verdict(base, s(1.2, 1.21, 1.22), 0.1, "lower") \
        == "regressed"
    assert compare.verdict(s(1.0, 1.5, 2.0), s(1.9, 2.0, 2.1), 0.1,
                           "lower") == "unresolved"
    assert compare.verdict(s(1.0, 1.5, 2.0), s(0.5, 0.6, 0.7), 0.1,
                           "lower") == "within bound"


def _run_py(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "benchmarks/e2e/run.py"),
                           *args], capture_output=True, text=True,
                          timeout=170)


def test_run_py_prints_every_metric_and_the_result_line():
    proc = _run_py(ROOT, "--workload", "cell-cold", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(last["metrics"]) == sorted(names)


def test_run_py_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_py(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
