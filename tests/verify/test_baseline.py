"""Baseline workflow: record today's findings, suppress them on later
runs, fail only on new ones.  Fingerprints are line-number-free so
unrelated edits never resurrect a baselined finding."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.verify import (
    apply_baseline,
    baseline_fingerprint,
    load_baseline,
    verify_source_text,
    write_baseline,
)
from repro.verify.baseline import BASELINE_SCHEMA
from repro.verify.core import Diagnostic, Severity, SourceLocation

VIOLATIONS = ("def f(v):\n"
              "    return v == 0.9\n"
              "\n"
              "\n"
              "def g(row, rows=[]):\n"
              "    rows.append(row)\n"
              "    return rows\n")


def make_diag(code="RV401", line=2, message="float equality",
              subject="f", target="mod.py"):
    return Diagnostic(code=code, name="x", severity=Severity.WARNING,
                      message=message, subject=subject, target=target,
                      location=SourceLocation(line=line, text="..."))


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_ignores_line_numbers():
    assert baseline_fingerprint(make_diag(line=2)) == \
        baseline_fingerprint(make_diag(line=40))


def test_fingerprint_distinguishes_content():
    base = baseline_fingerprint(make_diag())
    assert baseline_fingerprint(make_diag(code="RV406")) != base
    assert baseline_fingerprint(make_diag(subject="g")) != base
    assert baseline_fingerprint(make_diag(message="other")) != base
    assert baseline_fingerprint(make_diag(target="else.py")) != base


# -- write / load / apply ----------------------------------------------------


def test_round_trip_suppresses_everything(tmp_path):
    report = verify_source_text(VIOLATIONS, path="mod.py")
    assert len(report) == 2
    path = tmp_path / "lint-baseline.json"
    write_baseline(path, report)

    fingerprints = load_baseline(path)
    assert len(fingerprints) == 2
    filtered, suppressed, stale = apply_baseline(report, fingerprints)
    assert list(filtered) == []
    assert suppressed == 2
    assert stale == 0


def test_new_findings_pass_through(tmp_path):
    old = verify_source_text("def f(v):\n    return v == 0.9\n",
                             path="mod.py")
    path = tmp_path / "baseline.json"
    write_baseline(path, old)
    new = verify_source_text(VIOLATIONS, path="mod.py")
    filtered, suppressed, stale = apply_baseline(new,
                                                 load_baseline(path))
    assert [d.code for d in filtered] == ["RV406"]
    assert suppressed == 1
    assert stale == 0


def test_stale_entries_are_counted(tmp_path):
    report = verify_source_text(VIOLATIONS, path="mod.py")
    path = tmp_path / "baseline.json"
    write_baseline(path, report)
    clean = verify_source_text("def f():\n    return 1\n", path="mod.py")
    filtered, suppressed, stale = apply_baseline(clean,
                                                 load_baseline(path))
    assert list(filtered) == []
    assert suppressed == 0
    assert stale == 2


def test_baseline_file_is_human_auditable(tmp_path):
    report = verify_source_text(VIOLATIONS, path="mod.py")
    path = tmp_path / "baseline.json"
    write_baseline(path, report)
    payload = json.loads(path.read_text())
    assert payload["schema"] == BASELINE_SCHEMA
    entries = payload["entries"]
    assert len(entries) == 2
    for entry in entries.values():
        assert entry["code"].startswith("RV")
        assert entry["target"] == "mod.py"
        assert entry["message"]


def test_info_findings_are_never_recorded(tmp_path):
    """Info findings are advisory, not a gate: baselining them would
    suppress the machine-readable output for no gain."""
    from repro.verify import Report

    report = Report(target="t", diagnostics=[
        make_diag(code="RV401"),
        Diagnostic(code="RV701", name="x", severity=Severity.INFO,
                   message="inventory", subject="f", target="mod.py"),
    ])
    path = tmp_path / "baseline.json"
    assert write_baseline(path, report) == 1
    entries = json.loads(path.read_text())["entries"]
    assert [e["code"] for e in entries.values()] == ["RV401"]


def test_corrupt_baseline_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{ nope")
    with pytest.raises(ValueError):
        load_baseline(path)
    path.write_text(json.dumps({"schema": 999, "entries": {}}))
    with pytest.raises(ValueError):
        load_baseline(path)


# -- CLI wiring --------------------------------------------------------------


class TestCliBaseline:
    def _module(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("def f():\n    return float(\"10n\")\n")
        return mod

    def test_update_then_suppress(self, tmp_path, capsys):
        mod = self._module(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint-source", str(mod)]) == 1    # RV404 fails
        assert main(["lint-source", str(mod),
                     "--update-baseline", str(baseline)]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["lint-source", str(mod),
                     "--baseline", str(baseline)]) == 0
        assert "suppressed" in capsys.readouterr().err

    def test_new_finding_still_fails(self, tmp_path):
        mod = self._module(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint-source", str(mod),
                     "--update-baseline", str(baseline)]) == 0
        mod.write_text(mod.read_text()
                       + "\n\ndef g():\n    return float(\"5f\")\n")
        assert main(["lint-source", str(mod),
                     "--baseline", str(baseline)]) == 1

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        mod = self._module(tmp_path)
        assert main(["lint-source", str(mod),
                     "--baseline", str(tmp_path / "nope.json")]) == 2

    def test_deck_lint_baseline(self, tmp_path, capsys):
        deck = tmp_path / "bad.sp"
        deck.write_text("t\nv1 a 0 1\nv2 a 0 1\n.end\n")
        baseline = tmp_path / "deck-baseline.json"
        assert main(["lint", str(deck)]) == 1          # RV005 fails
        assert main(["lint", str(deck),
                     "--update-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", str(deck),
                     "--baseline", str(baseline)]) == 0


# -- prune -------------------------------------------------------------------


def test_prune_removes_only_stale_entries(tmp_path):
    from repro.verify import prune_baseline

    report = verify_source_text(VIOLATIONS, path="mod.py")
    path = tmp_path / "baseline.json"
    write_baseline(path, report)
    assert len(load_baseline(path)) == 2
    # One violation fixed: its entry is stale and gets pruned.
    fixed = VIOLATIONS.replace("rows=[]", "rows=()")
    removed = prune_baseline(path, verify_source_text(fixed,
                                                      path="mod.py"))
    assert removed == 1
    remaining = load_baseline(path)
    assert remaining == {baseline_fingerprint(d)
                         for d in verify_source_text(fixed,
                                                     path="mod.py")}
    payload = json.loads(path.read_text())
    assert payload["count"] == 1


def test_prune_never_adds_entries(tmp_path):
    from repro.verify import prune_baseline

    report = verify_source_text(VIOLATIONS, path="mod.py")
    path = tmp_path / "baseline.json"
    write_baseline(path, report)
    regressed = VIOLATIONS + ("\n\ndef h(x):\n"
                              "    return x == 1.8\n")
    removed = prune_baseline(path, verify_source_text(regressed,
                                                      path="mod.py"))
    assert removed == 0
    # The regression is NOT swallowed into the baseline.
    assert len(load_baseline(path)) == 2


def test_prune_rejects_corrupt_baseline(tmp_path):
    from repro.verify import prune_baseline

    path = tmp_path / "baseline.json"
    path.write_text("{\"schema\": 99, \"entries\": {}}")
    with pytest.raises(ValueError, match="schema"):
        prune_baseline(path, verify_source_text(VIOLATIONS,
                                                path="mod.py"))


class TestPruneCli:
    def _module(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("def f():\n    return float(\"10n\")\n"
                       "\n\ndef g():\n    return float(\"5f\")\n")
        return mod

    def test_prune_round_trip(self, tmp_path, capsys):
        mod = self._module(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint-source", "--no-cache", str(mod),
                     "--update-baseline", str(baseline)]) == 0
        # Fix one of the two findings; its entry goes stale.
        mod.write_text("def f():\n    return float(\"10n\")\n")
        capsys.readouterr()
        assert main(["lint-source", "--no-cache", str(mod),
                     "--baseline", str(baseline), "--prune"]) == 0
        err = capsys.readouterr().err
        assert "pruned 1 stale" in err
        assert json.loads(baseline.read_text())["count"] == 1
        # Round trip: the pruned file still suppresses, with no stale
        # warning left.
        assert main(["lint-source", "--no-cache", str(mod),
                     "--baseline", str(baseline)]) == 0
        assert "matched nothing" not in capsys.readouterr().err

    def test_prune_requires_baseline(self, tmp_path, capsys):
        mod = self._module(tmp_path)
        assert main(["lint-source", "--no-cache", str(mod), "--prune"]) == 2
        assert "--prune requires --baseline" in capsys.readouterr().err
