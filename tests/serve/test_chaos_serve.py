"""The full serving-layer chaos suite (stress job)."""

import pytest

from repro.cli import main
from repro.recovery import dump_failure, render_failure
from repro.serve.chaos import chaos_serve


@pytest.mark.stress
def test_serve_chaos_suite_passes(tmp_path, capsys):
    report = chaos_serve(str(tmp_path), n_clients=24, seed=2015,
                         workers=0)
    assert report["ok"], render_failure(report)
    conservation = report["records"][-1]
    assert conservation["requests_sent"] == conservation["responses_received"]
    names = [p["name"] for p in report["records"]]
    assert names == ["coalesce", "storm", "shed", "breaker", "drain",
                     "conservation"]
    assert report["n_in"] == report["n_out"] == len(names)
    dump_failure(report, tmp_path / "report.json")
    capsys.readouterr()
    assert main(["diagnose", str(tmp_path / "report.json")]) == 0
    assert "chaos report: serve — 6 in, 6 out — PASS" in capsys.readouterr().out
    coalesce = report["records"][0]
    assert coalesce["backend_executions"] == 1
    assert coalesce["leaders"] == 1
