"""RV5xx physical-units dataflow: per-rule fixtures plus the
cross-module fixpoint that makes the band interprocedural."""

import textwrap
from pathlib import Path

import pytest

from repro.verify import REGISTRY, VerifyConfig, verify_source, \
    verify_source_file, verify_source_text

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name, **kwargs):
    return verify_source_file(FIXTURES / name, **kwargs)


def codes(report):
    return [d.code for d in report]


# -- band registration ------------------------------------------------------


def test_project_band_registered():
    project_rules = REGISTRY.rules("project")
    assert [r.code for r in project_rules] == [
        "RV501", "RV502", "RV503",
        "RV600", "RV601", "RV602", "RV603", "RV604",
        "RV701", "RV702", "RV703",
        "RV900", "RV901", "RV902", "RV903", "RV904", "RV905"]
    for rule_ in project_rules:
        assert rule_.description
        assert rule_.rationale


# -- RV501: dimension mixing -------------------------------------------------


def test_rv501_dimension_mix():
    report = lint_fixture("viol_rv501.py")
    assert codes(report) == ["RV501"] * 3
    by_subject = {d.subject.split(":")[1]: d for d in report}
    assert set(by_subject) == {"total_energy_bad", "compare_bad",
                               "cross_call_bad"}
    assert "energy and power" in by_subject["total_energy_bad"].message
    assert "frequency vs time" in by_subject["compare_bad"].message
    # The quiet functions stay quiet: ratios, same-dimension sums and
    # unknown operands never fire (optimistic lattice).
    noisy = {d.subject for d in report}
    for quiet in ("ratio_is_fine", "same_dimension_is_fine",
                  "unknown_stays_quiet"):
        assert all(not s.endswith(quiet) for s in noisy)


def test_rv501_crosses_function_boundaries():
    """cross_call_bad mixes only via helper_power's return fact."""
    report = lint_fixture("viol_rv501.py")
    cross = [d for d in report if d.subject.endswith("cross_call_bad")]
    assert len(cross) == 1
    assert "energy and power" in cross[0].message


def test_rv501_annotation_seeds():
    report = verify_source_text(textwrap.dedent('''\
        def f(stored: "J", drawn: "W"):
            return stored + drawn
        '''), path="annot.py")
    assert codes(report) == ["RV501"]


def test_rv501_cross_module_fixpoint(tmp_path):
    """A mix spanning two modules fires at the offending expression."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "rails.py").write_text(textwrap.dedent('''\
        def leak_power(vdd, leakage_current):
            return vdd * leakage_current
        '''))
    (pkg / "budget.py").write_text(textwrap.dedent('''\
        from pkg.rails import leak_power


        def cycle_total(e_cyc):
            return e_cyc + leak_power(0.9, 1e-6)
        '''))
    report = verify_source([str(pkg)])
    mixes = [d for d in report if d.code == "RV501"]
    assert len(mixes) == 1
    assert mixes[0].target.endswith("budget.py")
    assert mixes[0].subject == "pkg.budget:cycle_total"
    assert "energy and power" in mixes[0].message


# -- RV502: format_eng unit mismatch ----------------------------------------


def test_rv502_unit_api_mismatch():
    report = lint_fixture("viol_rv502.py")
    assert codes(report) == ["RV502"]
    diag = report.diagnostics[0]
    assert diag.subject.endswith("render_power_bad")
    assert "formats a power unit, but the value is energy" in diag.message
    assert diag.severity.value == "warning"


# -- RV503: engstr arithmetic ------------------------------------------------


def test_rv503_engstr_arithmetic():
    report = lint_fixture("viol_rv503.py")
    assert codes(report) == ["RV503", "RV503"]
    by_subject = {d.subject.split(":")[1]: d for d in report}
    assert "arithmetic on a format_eng string" in \
        by_subject["engstr_arithmetic_bad"].message
    assert "comparing a format_eng string" in \
        by_subject["engstr_compare_bad"].message
    assert all(d.severity.value == "error" for d in report)


# -- suppression works for the project band too -----------------------------


def test_rv5xx_inline_pragma():
    report = verify_source_text(textwrap.dedent('''\
        def f(e_store, leak_power):
            return e_store + leak_power  # lint: skip=RV501
        '''), path="pragma.py")
    assert codes(report) == []


def test_rv5xx_disable():
    config = VerifyConfig(disable=frozenset({"RV501"}))
    report = lint_fixture("viol_rv501.py", config=config)
    assert codes(report) == []
