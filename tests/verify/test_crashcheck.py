"""The crashpoint harness: every scenario must land where the
durable-write protocol says it lands — pre-fix patterns tear, the
shared protocol survives."""

import json
import subprocess

from repro.cli import main
from repro.recovery import render_failure
from repro.verify.crashcheck import (
    CRASH_EXIT,
    _classify,
    run_crashpoints,
)


def by_scenario(report):
    out = {}
    for entry in report["records"]:
        scenario, crashpoint = entry["name"].split("@")
        out.setdefault(scenario, []).append(
            dict(entry, crashpoint=crashpoint, state=entry["actual"]))
    return out


def test_full_run_passes(tmp_path):
    report = run_crashpoints(str(tmp_path))
    assert report["ok"], render_failure(report)
    scenarios = by_scenario(report)

    # In-place overwrite hazard demonstrated: the bare write really tears.
    (bare,) = scenarios["bare-overwrite"]
    assert bare["state"] == "torn"

    # The fixed pattern holds old-or-new at all four boundaries.
    atomic = {e["crashpoint"]: e["state"]
              for e in scenarios["atomic-replace"]}
    assert atomic == {"post-write": "old", "pre-fsync": "old",
                      "pre-rename": "old", "post-rename": "new"}

    # Unsynced-rename hazard (emulated page-cache drop) and its fsync cure.
    (nofsync,) = scenarios["nofsync-rename"]
    (fsync,) = scenarios["fsync-rename"]
    assert nofsync["state"] == "torn" and nofsync["emulated"]
    assert fsync["state"] == "new"
    assert sorted(scenarios) == ["atomic-replace", "bare-overwrite",
                                 "fsync-rename", "nofsync-rename"]


def test_children_died_at_armed_points(tmp_path):
    report = run_crashpoints(str(tmp_path))
    # Every subprocess scenario reports ok, which requires the child
    # to have exited with CRASH_EXIT, not completed normally.
    assert CRASH_EXIT == 9
    assert all(entry["ok"] for entry in report["records"]
               if not entry["emulated"])


def test_classify_views(tmp_path):
    target = tmp_path / "probe.json"
    assert _classify(target) == "missing"
    target.write_text("{not json")
    assert _classify(target) == "torn"
    target.write_text(json.dumps({"value": "old", "rev": 1}))
    assert _classify(target) == "old"


def test_cli_chaos_crashpoints(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = main(["chaos", "--crashpoints",
                 "--scratch", str(tmp_path / "scratch"),
                 "--json", str(out_json)])
    assert code == 0
    assert "chaos report: crashpoints — 7 in, 7 out — PASS" \
        in capsys.readouterr().out
    payload = json.loads(out_json.read_text())
    assert payload["ok"] is True
    assert payload["crashpoints"] == ["post-write", "pre-fsync",
                                      "pre-rename", "post-rename"]


def test_diagnose_renders_the_json_report(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert main(["chaos", "--crashpoints",
                 "--scratch", str(tmp_path / "scratch"),
                 "--json", str(out_json)]) == 0
    capsys.readouterr()
    assert main(["diagnose", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "chaos report: crashpoints — 7 in, 7 out — PASS" in out
    assert "[ok ] atomic-replace@post-rename: new" in out


def test_hung_child_fails_the_report(tmp_path, monkeypatch):
    """A child that never reaches its crashpoint is recorded, not raised."""
    def hang(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs.get("timeout"))

    monkeypatch.setattr("repro.verify.crashcheck.subprocess.run", hang)
    report = run_crashpoints(str(tmp_path))
    assert report["ok"] is False
    assert report["n_in"] == report["n_out"]
    spawned = [r for r in report["records"] if not r["emulated"]]
    assert spawned and all(r["actual"] == "timeout" and not r["ok"]
                           for r in spawned)
