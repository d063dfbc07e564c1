"""Tests for the rule registry, policy config and report aggregation."""

import pytest

from repro.circuit import Circuit, Resistor, VoltageSource
from repro.errors import VerificationError
from repro.verify import verify_circuit
from repro.verify.core import (
    REGISTRY,
    Diagnostic,
    Finding,
    Report,
    Rule,
    RuleRegistry,
    Severity,
    VerifyConfig,
    run_rules,
)


def divider_with_dangle():
    """A clean divider plus one floating node (RV001 warning)."""
    c = Circuit()
    c.add(VoltageSource("v", "in", "0", dc=1.0))
    c.add(Resistor("r1", "in", "mid", 1e3))
    c.add(Resistor("r2", "mid", "0", 1e3))
    c.add(Resistor("r3", "in", "dangle", 1e3))
    return c


class TestSeverity:
    def test_rank_orders_errors_first(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank

    def test_parse(self):
        assert Severity.parse("Error") is Severity.ERROR
        assert Severity.parse(Severity.WARNING) is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.parse("fatal")


class TestRegistry:
    def test_shipped_rules_registered(self):
        for code in ("RV001", "RV006", "RV101", "RV105",
                     "RV201", "RV300", "RV307"):
            assert code in REGISTRY

    def test_lookup_by_code_and_name(self):
        assert REGISTRY.get("rv101").code == "RV101"
        assert REGISTRY.get("islanded-node").code == "RV101"
        with pytest.raises(KeyError):
            REGISTRY.get("RV999")

    def test_scope_filter(self):
        deck_rules = REGISTRY.rules("deck")
        assert deck_rules and all(r.scope == "deck" for r in deck_rules)
        assert [r.code for r in deck_rules] == sorted(
            r.code for r in deck_rules
        )

    def test_duplicate_code_rejected(self):
        reg = RuleRegistry()
        mk = lambda code, name: Rule(code, name, "circuit",
                                     Severity.WARNING, "d",
                                     check=lambda c: ())
        reg.register(mk("RV900", "a"))
        with pytest.raises(ValueError):
            reg.register(mk("RV900", "b"))
        with pytest.raises(ValueError):
            reg.register(mk("RV901", "a"))


class TestVerifyConfig:
    def test_disable_by_code_and_name(self):
        c = divider_with_dangle()
        assert "RV001" in {d.code for d in verify_circuit(c)}
        for token in ("RV001", "rv001", "floating-node"):
            report = verify_circuit(
                c, config=VerifyConfig(disable=frozenset([token]))
            )
            assert "RV001" not in {d.code for d in report}

    def test_only_restricts_rules(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "dangle", 1e3))
        report = verify_circuit(
            c, config=VerifyConfig(only=frozenset(["RV005"]))
        )
        assert {d.code for d in report} == {"RV005"}

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_DISABLE", "RV001, rv104")
        config = VerifyConfig.from_env()
        assert config.disable == frozenset({"RV001", "rv104"})


class TestReport:
    def test_extend_merges_and_sorts(self):
        warn = Diagnostic("RV001", "floating-node", Severity.WARNING,
                          "m", "n1")
        err = Diagnostic("RV101", "islanded-node", Severity.ERROR,
                         "m", "n2")
        report = Report(target="a")
        report.diagnostics.append(warn)
        report.extend(Report(target="b", diagnostics=[err]))
        assert [d.code for d in report] == ["RV101", "RV001"]
        assert len(report) == 2

    def test_raise_on_errors(self):
        report = Report(diagnostics=[
            Diagnostic("RV101", "islanded-node", Severity.ERROR, "m", "n")
        ])
        with pytest.raises(VerificationError) as excinfo:
            report.raise_on_errors()
        assert excinfo.value.diagnostics == report.errors()
        Report().raise_on_errors()   # no errors: no raise

    def test_counts(self):
        c = divider_with_dangle()
        counts = verify_circuit(c).counts()
        assert counts["error"] == 0
        assert counts["warning"] >= 1


class TestRunRules:
    def test_findings_get_rule_metadata(self):
        report = run_rules(divider_with_dangle(), "circuit",
                           target_name="tb")
        diag = [d for d in report if d.code == "RV001"][0]
        assert diag.name == "floating-node"
        assert diag.target == "tb"
        assert "tb: [warning] RV001" in str(diag)

    def test_per_finding_severity_override_wins(self):
        reg = RuleRegistry()

        def check(_target):
            yield Finding(subject="x", message="m",
                          severity=Severity.ERROR)

        reg.register(Rule("RV950", "demo", "circuit",
                          Severity.WARNING, "d", check=check))
        report = run_rules(object(), "circuit", registry=reg)
        assert report.has_errors
