"""The bench regression gate: tolerance policies, missing metrics,
end-to-end PASS/FAIL verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).parent.parent / "benchmarks" / "check_regression.py")
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


LINT_PAYLOAD = {
    "schema": 5, "modules": 111, "cold_s": 4.4, "warm_s": 0.1,
    "speedup": 44.0,
    "diagnostics": {"total": 0, "by_band": {}},
}


def write_pair(tmp_path, name, base, fresh):
    (tmp_path / "base").mkdir(exist_ok=True)
    (tmp_path / "fresh").mkdir(exist_ok=True)
    (tmp_path / "base" / name).write_text(json.dumps(base))
    (tmp_path / "fresh" / name).write_text(json.dumps(fresh))
    return tmp_path / "base", tmp_path / "fresh"


def run(tmp_path):
    return check_regression.run_checks(tmp_path / "base",
                                       tmp_path / "fresh")


def test_identical_files_pass(tmp_path):
    write_pair(tmp_path, "BENCH_lint.json", LINT_PAYLOAD, LINT_PAYLOAD)
    ok, rows = run(tmp_path)
    assert ok, check_regression.render(rows, ok)


def test_timing_noise_tolerated(tmp_path):
    fresh = dict(LINT_PAYLOAD, cold_s=9.9, warm_s=0.3, speedup=33.0)
    write_pair(tmp_path, "BENCH_lint.json", LINT_PAYLOAD, fresh)
    ok, _rows = run(tmp_path)
    assert ok          # raw seconds are not compared; ratio held up


def test_speedup_collapse_fails(tmp_path):
    fresh = dict(LINT_PAYLOAD, speedup=4.0)      # < 0.4 x 44
    write_pair(tmp_path, "BENCH_lint.json", LINT_PAYLOAD, fresh)
    ok, rows = run(tmp_path)
    assert not ok
    assert any(r["metric"] == "speedup" and r["status"] == "FAIL"
               for r in rows)


def test_new_findings_fail_exactly(tmp_path):
    fresh = json.loads(json.dumps(LINT_PAYLOAD))
    fresh["diagnostics"]["total"] = 2
    write_pair(tmp_path, "BENCH_lint.json", LINT_PAYLOAD, fresh)
    ok, rows = run(tmp_path)
    assert not ok
    assert any(r["metric"] == "diagnostics.total" for r in rows
               if r["status"] == "FAIL")


def test_vanished_metric_fails_new_metric_passes(tmp_path):
    base = json.loads(json.dumps(LINT_PAYLOAD))
    del base["modules"]                 # baseline predating the metric
    fresh = json.loads(json.dumps(LINT_PAYLOAD))
    del fresh["diagnostics"]            # bench dropped coverage
    base["schema"] = fresh["schema"]
    write_pair(tmp_path, "BENCH_lint.json", base, fresh)
    ok, rows = run(tmp_path)
    verdicts = {r["metric"]: r["status"] for r in rows}
    assert verdicts["modules"] == "new"
    assert verdicts["diagnostics.total"] == "FAIL"
    assert not ok


def test_fig7_curves_compared_deeply(tmp_path):
    base = {"schema": 1,
            "fig7a": [{"label": "a", "e_cyc_j": {"nof": [1.0, 2.0]}}]}
    fresh = json.loads(json.dumps(base))
    fresh["fig7a"][0]["e_cyc_j"]["nof"][1] = 2.5
    write_pair(tmp_path, "BENCH_fig7.json", base, fresh)
    ok, rows = run(tmp_path)
    assert not ok
    (bad,) = [r for r in rows if r["status"] == "FAIL"]
    assert "nof[1]" in bad["detail"]


def test_engine_residual_growth_bounded(tmp_path):
    base = {"schema": 1,
            "certification": {"worst_residual_norm_a": 1e-13,
                              "defended_steps": 0}}
    fresh = json.loads(json.dumps(base))
    fresh["certification"]["worst_residual_norm_a"] = 1e-9
    write_pair(tmp_path, "BENCH_engine.json", base, fresh)
    ok, rows = run(tmp_path)
    assert not ok          # 1e4 x growth > the 1e3 allowance


def test_nothing_compared_is_a_failure(tmp_path):
    (tmp_path / "base").mkdir()
    (tmp_path / "fresh").mkdir()
    ok, rows = run(tmp_path)
    assert not ok
    assert any("no artefact" in r["detail"] for r in rows)


def test_cli_roundtrip(tmp_path, capsys):
    base_dir, fresh_dir = write_pair(
        tmp_path, "BENCH_lint.json", LINT_PAYLOAD, LINT_PAYLOAD)
    code = check_regression.main(["--baseline-dir", str(base_dir),
                                  "--fresh-dir", str(fresh_dir)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_strict_missing_flags_unregenerated(tmp_path):
    base_dir, fresh_dir = write_pair(
        tmp_path, "BENCH_lint.json", LINT_PAYLOAD, LINT_PAYLOAD)
    (base_dir / "BENCH_engine.json").write_text(json.dumps({"schema": 1}))
    ok, rows = check_regression.run_checks(base_dir, fresh_dir,
                                           strict_missing=True)
    assert not ok
    assert any(r["file"] == "BENCH_engine.json"
               and r["status"] == "FAIL" for r in rows)
