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


SERVE_PAYLOAD = {
    "schema": 1,
    "route": "demo (inline workers; serving overhead only)",
    "cold": {"latency_ms": 1.33},
    "warm": {"latency_ms": 0.767, "speedup": 1.73},
    "coalesce": {"clients": 8, "backend_executions": 1, "factor": 8.0},
}


def serve_payload():
    return json.loads(json.dumps(SERVE_PAYLOAD))


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
    write_pair(tmp_path, "BENCH_serve.json", SERVE_PAYLOAD, SERVE_PAYLOAD)
    ok, rows = run(tmp_path)
    assert ok, check_regression.render(rows, ok)


def test_timing_noise_tolerated(tmp_path):
    fresh = serve_payload()
    fresh["cold"]["latency_ms"] = 9.9
    fresh["warm"].update(latency_ms=3.0, speedup=1.2)
    write_pair(tmp_path, "BENCH_serve.json", SERVE_PAYLOAD, fresh)
    ok, _rows = run(tmp_path)
    assert ok          # raw latencies are not compared; ratio held up


def test_speedup_collapse_fails(tmp_path):
    fresh = serve_payload()
    fresh["warm"]["speedup"] = 0.3      # < 0.2 x 1.73
    write_pair(tmp_path, "BENCH_serve.json", SERVE_PAYLOAD, fresh)
    ok, rows = run(tmp_path)
    assert not ok
    assert any(r["metric"] == "warm.speedup" and r["status"] == "FAIL"
               for r in rows)


def test_new_findings_fail_exactly(tmp_path):
    fresh = serve_payload()
    fresh["coalesce"]["backend_executions"] = 2
    write_pair(tmp_path, "BENCH_serve.json", SERVE_PAYLOAD, fresh)
    ok, rows = run(tmp_path)
    assert not ok
    assert any(r["metric"] == "coalesce.backend_executions" for r in rows
               if r["status"] == "FAIL")


def test_vanished_metric_fails_new_metric_passes(tmp_path):
    base = serve_payload()
    del base["warm"]["speedup"]         # baseline predating the metric
    fresh = serve_payload()
    del fresh["coalesce"]               # bench dropped coverage
    write_pair(tmp_path, "BENCH_serve.json", base, fresh)
    ok, rows = run(tmp_path)
    verdicts = {r["metric"]: r["status"] for r in rows}
    assert verdicts["warm.speedup"] == "new"
    assert verdicts["coalesce.backend_executions"] == "FAIL"
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


def test_characterization_counts_may_fall_not_grow(tmp_path):
    steps = {"read": (232, 53), "write": (413, 85), "store": (137, 23),
             "restore": (161, 34)}
    base = {"schema": 1, "characterization": {
        phase: {"accepted_steps": a, "rejected_steps": r}
        for phase, (a, r) in steps.items()}}
    base["characterization"]["newton_iterations"] = 2564
    fewer = json.loads(json.dumps(base))
    fewer["characterization"]["write"]["accepted_steps"] = 300
    fewer["characterization"]["newton_iterations"] = 2000
    fewer["characterization"]["store"]["rejected_steps"] = 40  # unpinned
    write_pair(tmp_path, "BENCH_engine.json", base, fewer)
    ok, rows = run(tmp_path)
    assert ok, check_regression.render(rows, ok)

    grown = json.loads(json.dumps(base))
    grown["characterization"]["read"]["accepted_steps"] = 410  # > 2%
    write_pair(tmp_path, "BENCH_engine.json", base, grown)
    ok, rows = run(tmp_path)
    assert not ok
    assert [r["metric"] for r in rows if r["status"] == "FAIL"] == [
        "characterization.read.accepted_steps"]


def test_nothing_compared_is_a_failure(tmp_path):
    (tmp_path / "base").mkdir()
    (tmp_path / "fresh").mkdir()
    ok, rows = run(tmp_path)
    assert not ok
    assert any("no artefact" in r["detail"] for r in rows)


def test_cli_roundtrip(tmp_path, capsys):
    base_dir, fresh_dir = write_pair(
        tmp_path, "BENCH_serve.json", SERVE_PAYLOAD, SERVE_PAYLOAD)
    code = check_regression.main(["--baseline-dir", str(base_dir),
                                  "--fresh-dir", str(fresh_dir)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_strict_missing_flags_unregenerated(tmp_path):
    base_dir, fresh_dir = write_pair(
        tmp_path, "BENCH_serve.json", SERVE_PAYLOAD, SERVE_PAYLOAD)
    (base_dir / "BENCH_engine.json").write_text(json.dumps({"schema": 1}))
    ok, rows = check_regression.run_checks(base_dir, fresh_dir,
                                           strict_missing=True)
    assert not ok
    assert any(r["file"] == "BENCH_engine.json"
               and r["status"] == "FAIL" for r in rows)
