"""Every netlist the repo ships must lint clean (no error findings).

These are the dogfood tests for the lint-before-simulate hooks: if a
rule change starts flagging the shipped cells, or a cell change trips
a rule, this file names the offending rule and target.
"""

from pathlib import Path

import pytest

from repro.cells import build_cell_array
from repro.characterize.ff_runner import build_ff_testbench
from repro.characterize.testbench import build_cell_testbench
from repro.verify import assert_clean, lint_enabled, verify_deck_file

REPO = Path(__file__).resolve().parent.parent.parent
DECKS = sorted((REPO / "examples" / "decks").glob("*.sp"))


def bench(name):
    if name in ("nv", "6t"):
        return build_cell_testbench(name).circuit
    if name == "nvff":
        return build_ff_testbench()[0]
    return build_cell_array(2, 2, lint=False).circuit


@pytest.mark.lint
@pytest.mark.parametrize("name", ["nv", "6t", "nvff", "array"])
def test_shipped_bench_lints_clean(name):
    report = assert_clean(bench(name), target=f"cell:{name}")
    assert not report.has_errors


@pytest.mark.lint
@pytest.mark.parametrize("deck", DECKS, ids=lambda p: p.name)
def test_shipped_deck_lints_clean(deck):
    report = verify_deck_file(deck)
    assert not report.has_errors, [str(d) for d in report.errors()]


@pytest.mark.lint
def test_example_decks_exist():
    # parametrize silently collects nothing if the glob breaks.
    assert DECKS


class TestHookEscapeHatch:
    def test_repro_lint_env_disables_hooks(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "0")
        assert not lint_enabled()
        # With the gate off, assert_clean skips analysis entirely.
        report = assert_clean(bench("nv"), target="cell:nv")
        assert len(report) == 0

    def test_lint_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LINT", raising=False)
        assert lint_enabled()
