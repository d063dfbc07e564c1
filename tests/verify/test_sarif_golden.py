"""SARIF 2.1.0 emitter conformance: required fields + golden files.

Two layers:

* structural tests assert every field GitHub code scanning requires
  (runs/tool/driver/rules, result levels, locations) on full-registry
  output for a deck report and a source report;
* golden tests pin the exact serialisation against checked-in files,
  using a registry restricted to the rules that fire so the goldens
  survive future rule-band additions.  Regenerate deliberately with
  ``REPRO_UPDATE_GOLDEN=1 pytest tests/verify/test_sarif_golden.py``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.verify import (
    REGISTRY,
    RuleRegistry,
    render_sarif,
    verify_deck,
    verify_source_text,
)
from repro.verify.emit import SARIF_SCHEMA, SARIF_VERSION

GOLDEN = Path(__file__).parent / "golden"

#: Deterministic deck input: a suspicious value token and a dangling
#: subcircuit-less deck line the RV3xx band flags.
DECK_TEXT = "t\nr1 a 0 10x\nv1 a 0 1\n.end\n"

#: Deterministic source input: one RV401, one RV406.
SOURCE_TEXT = (
    "def rail_is_nominal(v_rail):\n"
    "    return v_rail == 0.9\n"
    "\n"
    "\n"
    "def collect(row, rows=[]):\n"
    "    rows.append(row)\n"
    "    return rows\n"
)


def deck_report():
    return verify_deck(DECK_TEXT, path="bad.sp", include_circuit=False)


def source_report():
    return verify_source_text(SOURCE_TEXT, path="bad_module.py")


def restricted_registry(report) -> RuleRegistry:
    """A registry holding only the rules that fired in ``report``."""
    fired = {d.code for d in report}
    registry = RuleRegistry()
    for rule_ in REGISTRY.rules():
        if rule_.code in fired:
            registry.register(rule_)
    return registry


# -- required SARIF 2.1.0 structure -----------------------------------------


@pytest.mark.parametrize("make_report", [deck_report, source_report],
                         ids=["deck", "source"])
def test_required_sarif_fields(make_report):
    report = make_report()
    assert len(report) > 0, "fixture input no longer trips any rule"
    log = json.loads(render_sarif(report))

    assert log["$schema"] == SARIF_SCHEMA
    assert log["version"] == SARIF_VERSION
    assert len(log["runs"]) == 1
    run = log["runs"][0]

    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert driver["rules"], "rule metadata must be present"
    rule_ids = set()
    for rule in driver["rules"]:
        assert rule["id"].startswith("RV")
        assert rule["name"]
        assert rule["shortDescription"]["text"]
        assert rule["fullDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in (
            "error", "warning", "note")
        rule_ids.add(rule["id"])

    assert run["results"], "diagnostics must serialise as results"
    for result in run["results"]:
        # Every result's ruleId must resolve in the driver's rule list.
        assert result["ruleId"] in rule_ids
        assert result["level"] in ("error", "warning", "note")
        assert result["message"]["text"]
        assert result["locations"]
        location = result["locations"][0]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"]
        if "region" in physical:
            assert physical["region"]["startLine"] >= 1
            assert "text" in physical["region"]["snippet"]


def test_source_results_point_at_module_artifact():
    log = json.loads(render_sarif(source_report()))
    uris = {r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in log["runs"][0]["results"]}
    assert uris == {"bad_module.py"}
    lines = {r["locations"][0]["physicalLocation"]["region"]["startLine"]
             for r in log["runs"][0]["results"]}
    assert lines == {2, 5}


# -- golden files ------------------------------------------------------------


@pytest.mark.parametrize("make_report,golden_name",
                         [(deck_report, "deck.sarif.json"),
                          (source_report, "source.sarif.json")],
                         ids=["deck", "source"])
def test_sarif_matches_golden(make_report, golden_name):
    report = make_report()
    rendered = render_sarif(report,
                            registry=restricted_registry(report)) + "\n"
    golden_path = GOLDEN / golden_name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden_path.write_text(rendered)
        pytest.skip(f"regenerated {golden_path.name}")
    assert golden_path.exists(), (
        f"golden file missing; run REPRO_UPDATE_GOLDEN=1 pytest {__file__}")
    assert json.loads(rendered) == json.loads(golden_path.read_text()), (
        f"SARIF output drifted from {golden_path.name}; inspect the diff "
        "and regenerate with REPRO_UPDATE_GOLDEN=1 if intentional")
