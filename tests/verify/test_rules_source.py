"""RV4xx source-lint rules: one detection test per rule, plus the
self-clean guarantee over the shipped tree."""

from pathlib import Path

import pytest

from repro.verify import (
    REGISTRY,
    VerifyConfig,
    default_source_paths,
    verify_source,
    verify_source_file,
    verify_source_text,
)

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name, **kwargs):
    return verify_source_file(FIXTURES / name, **kwargs)


def codes(report):
    return [d.code for d in report]


# -- band registration ------------------------------------------------------


def test_rv4xx_band_registered():
    source_rules = REGISTRY.rules("source")
    assert [r.code for r in source_rules] == [
        "RV400", "RV401", "RV402", "RV403", "RV404", "RV405", "RV406"]
    for rule_ in source_rules:
        assert rule_.description
        assert rule_.rationale


# -- one detection test per rule --------------------------------------------


def test_rv400_syntax_error():
    report = verify_source_text("def broken(:\n    pass\n",
                                path="broken.py")
    assert codes(report) == ["RV400"]
    diag = report.diagnostics[0]
    assert diag.severity.value == "error"
    assert diag.location is not None and diag.location.line >= 1
    assert "syntax error" in diag.message


def test_rv401_float_equality():
    report = lint_fixture("viol_rv401.py")
    assert codes(report) == ["RV401", "RV401"]
    subjects = {d.subject for d in report}
    assert subjects == {"rail_is_nominal", "not_at_retention"}
    # The NaN idiom and the exact-zero guard never fire.
    assert all("allowed_idioms" != d.subject for d in report)


def test_rv402_nan_skip_hazard():
    report = lint_fixture("viol_rv402.py")
    assert set(codes(report)) == {"RV402"}
    subjects = {d.subject for d in report}
    assert "worst_store_current" in subjects
    assert "first_above_threshold" in subjects
    # A function that consults .num_skipped / np.isnan is exempt.
    assert "guarded_is_fine" not in subjects


def test_rv403_stamp_contract_drift():
    report = lint_fixture("viol_rv403.py")
    assert set(codes(report)) == {"RV403"}
    subjects = {d.subject for d in report}
    assert subjects == {"DriftingResistor", "DriftingSource"}
    # DriftingResistor: (p,n) and (n,p) written, only diagonals declared.
    drifting = [d for d in report if d.subject == "DriftingResistor"]
    assert len(drifting) == 2
    # DriftingSource: the (branch, node) backward write is undeclared.
    assert any("branch_index[0]" in d.message for d in report
               if d.subject == "DriftingSource")


def test_rv404_raw_quantity_strings():
    report = lint_fixture("viol_rv404.py")
    assert set(codes(report)) == {"RV404"}
    flagged = {d.message.split("'")[1] for d in report}
    assert flagged == {"10k", "5f", "10n", "1.5meg"}
    assert all("parse_quantity" in d.message for d in report)


def test_rv405_swallowed_forensics():
    report = lint_fixture("viol_rv405.py")
    assert set(codes(report)) == {"RV405"}
    by_subject = {d.subject: d for d in report}
    assert set(by_subject) == {"run_quietly", "run_silently"}
    # The bare form is promoted to error; broad-with-return is a warning.
    assert by_subject["run_silently"].severity.value == "error"
    assert by_subject["run_quietly"].severity.value == "warning"
    assert "reraising_is_fine" not in by_subject


def test_rv406_mutable_defaults():
    report = lint_fixture("viol_rv406.py")
    assert set(codes(report)) == {"RV406"}
    subjects = {d.subject for d in report}
    assert subjects == {"collect_rows", "tag_point"}


# -- suppression mechanics ---------------------------------------------------


def test_inline_pragma_suppresses_one_line():
    text = ("def f(v):\n"
            "    a = v == 0.9  # lint: skip=RV401\n"
            "    b = v == 0.8\n"
            "    return a or b\n")
    report = verify_source_text(text, path="pragma.py")
    assert codes(report) == ["RV401"]
    assert report.diagnostics[0].location.line == 3


def test_path_glob_suppression_matches_target():
    config = VerifyConfig(suppress=("RV401:*viol_rv401.py",))
    report = lint_fixture("viol_rv401.py", config=config)
    assert codes(report) == []


def test_disable_rule_by_code():
    config = VerifyConfig(disable=frozenset({"RV401"}))
    report = lint_fixture("viol_rv401.py", config=config)
    assert codes(report) == []


# -- walking and merging -----------------------------------------------------


def test_verify_source_merges_directory(tmp_path):
    (tmp_path / "one.py").write_text("def f(v):\n    return v == 0.9\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "two.py").write_text("def g(w=[]):\n    return w\n")
    report = verify_source([str(tmp_path)])
    assert sorted(codes(report)) == ["RV401", "RV406"]
    targets = {d.target for d in report}
    assert any(t.endswith("one.py") for t in targets)
    assert any(t.endswith("two.py") for t in targets)
    assert "2 modules" in report.target


# -- the acceptance guarantee ------------------------------------------------


def test_shipped_source_tree_is_clean():
    """`repro lint-source` exits 0 on the shipped package.

    Clean means no errors and no warnings: ``--strict`` CI gates only
    those, so an info-severity finding would not fail it either.
    """
    report = verify_source(default_source_paths())
    noisy = report.errors() + report.warnings()
    assert noisy == [], "\n".join(str(d) for d in noisy)
