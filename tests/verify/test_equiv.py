"""Solver-equivalence gate tests: corpus integrity, tolerance model,
drift detection, metamorphic invariants, and the CLI surface.

The committed golden corpus itself is exercised end-to-end by the
cheap DC cases (the transient cases run in the CI ``equiv-gate`` step
and the integration marker below); these tests focus on the harness
semantics — a gate that cannot *fail* correctly protects nothing.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import operating_point
from repro.characterize import characterize_cell
from repro.verify.equiv import (
    _ladder_deck,
    CASES,
    CORPUS_SCHEMA,
    EquivError,
    Quantity,
    Tolerance,
    TOLERANCES,
    compare,
    content_hash,
    default_corpus_dir,
    golden_payload,
    load_golden,
    run_metamorphic_checks,
    run_suite,
    select_cases,
    update_corpus,
)

DC_CASES = [name for name in CASES if name.endswith("-op")]


class TestToleranceModel:
    def test_exact_kinds_reject_any_drift(self):
        tol = TOLERANCES["count"]
        assert tol.allows(3.0, 3.0)
        assert not tol.allows(3.0, 4.0)
        assert math.isinf(tol.margin(3.0, 4.0))

    def test_voltage_band(self):
        tol = TOLERANCES["voltage"]
        assert tol.allows(0.9, 0.9 + 5e-6)
        assert not tol.allows(0.9, 0.91)

    def test_nonfinite_never_allowed(self):
        tol = Tolerance(atol=1.0, rtol=1.0)
        assert not tol.allows(float("nan"), 0.0)
        assert not tol.allows(float("inf"), float("inf"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(EquivError):
            Quantity(1.0, "furlongs")


class TestCompare:
    def test_added_and_removed_quantities_fail(self):
        got = {"a": Quantity(1.0, "voltage"), "b": Quantity(2.0, "voltage")}
        want = {"a": Quantity(1.0, "voltage"), "c": Quantity(3.0, "voltage")}
        deltas = {d.name: d for d in compare(got, want)}
        assert deltas["a"].ok
        assert not deltas["b"].ok    # new, not in golden
        assert not deltas["c"].ok    # golden, not measured
        assert math.isinf(deltas["b"].margin)

    def test_margin_reported(self):
        got = {"v": Quantity(1.0, "voltage")}
        want = {"v": Quantity(1.0 + 2e-4, "voltage")}
        (delta,) = compare(got, want)
        assert not delta.ok
        assert delta.margin > 1.0


class TestCorpusStorage:
    def test_committed_corpus_is_complete_and_hash_clean(self):
        corpus = default_corpus_dir()
        for name in CASES:
            golden = load_golden(name, corpus)
            assert golden, f"empty corpus entry for {name}"
            for q in golden.values():
                assert q.kind in TOLERANCES

    def test_hand_edited_entry_is_rejected(self, tmp_path):
        case = CASES[DC_CASES[0]]
        payload = golden_payload(case, {"v": Quantity(0.5, "voltage")})
        payload["quantities"]["v"]["value"] = 0.6   # tamper after hashing
        path = tmp_path / f"{case.name}.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(EquivError, match="hash mismatch"):
            load_golden(case.name, tmp_path)

    def test_missing_entry_names_the_update_command(self, tmp_path):
        with pytest.raises(EquivError, match="equiv update"):
            load_golden(DC_CASES[0], tmp_path)

    def test_schema_bump_invalidates(self, tmp_path):
        case = CASES[DC_CASES[0]]
        payload = golden_payload(case, {"v": Quantity(0.5, "voltage")})
        payload["schema"] = CORPUS_SCHEMA + 1
        payload["hash"] = content_hash(payload)
        (tmp_path / f"{case.name}.json").write_text(json.dumps(payload))
        with pytest.raises(EquivError, match="schema"):
            load_golden(case.name, tmp_path)

    def test_update_then_run_round_trip(self, tmp_path):
        name = "6t-standby-op"
        update_corpus([name], tmp_path)
        report = run_suite([name], tmp_path, checks=False)
        (entry,) = report.cases
        assert entry.ok, entry.error or entry.failures


class TestDriftDetection:
    def test_doctored_golden_fails_the_gate(self, tmp_path):
        name = "6t-standby-op"
        (path,) = update_corpus([name], tmp_path)
        payload = json.loads(path.read_text())
        key = next(k for k, v in payload["quantities"].items()
                   if v["kind"] == "voltage")
        payload["quantities"][key]["value"] += 0.05   # 50 mV of "drift"
        payload["hash"] = content_hash(payload)
        path.write_text(json.dumps(payload))
        report = run_suite([name], tmp_path, checks=False)
        assert not report.ok
        (entry,) = report.cases
        assert [d.name for d in entry.failures] == [key]
        assert "FAIL" in report.render()

    def test_unknown_case_rejected(self):
        with pytest.raises(EquivError, match="unknown case"):
            select_cases(["no-such-case"])

    def test_missing_corpus_is_error_not_crash(self, tmp_path):
        report = run_suite(["nvff-op"], tmp_path, checks=False)
        (entry,) = report.cases
        assert not entry.ok
        assert "equiv update" in entry.error


class TestGate:
    """The real gate, over the committed corpus (DC cases: cheap)."""

    @pytest.mark.parametrize("name", DC_CASES)
    def test_dc_case_matches_committed_corpus(self, name):
        report = run_suite([name], checks=False)
        (entry,) = report.cases
        assert entry.error is None, entry.error
        assert entry.ok, "\n".join(d.render() for d in entry.failures)

    def test_metamorphic_invariants_hold(self):
        results = run_metamorphic_checks()
        assert {r.name for r in results} == {
            "node-relabel", "unit-rescale", "supply-scale",
            "gmin-perturbation",
        }
        failing = [r for r in results if not r.ok]
        assert not failing, [f"{r.name}: {r.detail}" for r in failing]

    def test_report_serialises(self):
        # checks=True matters: metamorphic CheckResult.ok is computed
        # from numpy scalars and must not leak np.bool_ into the JSON.
        report = run_suite([DC_CASES[0]], checks=True)
        payload = report.to_dict()
        json.dumps(payload)   # must be JSON-safe
        assert payload["cases"][0]["case"] == DC_CASES[0]
        assert payload["checks"], "metamorphic checks missing from report"


class TestGateTransients:
    """Transient corpus cases — slower, still well under a minute."""

    @pytest.mark.parametrize(
        "name", [n for n in CASES if n.endswith("-tran")])
    def test_transient_case_matches_committed_corpus(self, name):
        report = run_suite([name], checks=False)
        (entry,) = report.cases
        assert entry.error is None, entry.error
        assert entry.ok, "\n".join(d.render() for d in entry.failures)

    def test_store_restore_cases_run_the_characterization_recipes(self):
        """The gate pins the code that characterises the cell, not a
        copy: its energies are the characterization's, bit for bit."""
        char = characterize_cell("nv", cache_dir=None)
        store = CASES["nv-store-tran"].runner()
        restore = CASES["nv-restore-tran"].runner()
        assert store["e(store_h)"].value == char.e_store_h
        assert store["e(store_l)"].value == char.e_store_l
        assert restore["e(restore)"].value == char.e_restore


class TestUnitRescaleProperty:
    """Hypothesis sweep of the whole-deck unit-rescale invariant.

    The fixed x1024 metamorphic check guards the gate; this property
    test walks the scale over 12 decades of power-of-two factors, where
    a units bug anywhere in stamping/solving/certification would break
    the invariance for *some* k even if it conspires to cancel at one.
    """

    @given(exponent=st.integers(min_value=-20, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_voltages_invariant_under_whole_deck_rescale(self, exponent):
        k = 2.0 ** exponent
        base, nodes = _ladder_deck(lambda s: s)
        scaled, _ = _ladder_deck(lambda s: s, scale=k)
        sol_a = operating_point(base)
        sol_b = operating_point(scaled)
        worst = max(abs(sol_a.voltage(n) - sol_b.voltage(n))
                    for n in nodes)
        # The solver's gmin floor (1e-12 S) does not rescale with the
        # deck, injecting ~V*gmin*R*k of error on the scaled branches —
        # the bound must grow with k (measured ~1e-8*k at k=1024,
        # asserted with a 5x margin).
        bound = 1e-6 + 5e-8 * max(k, 1.0)
        assert worst <= bound, f"k=2**{exponent}: {worst:.3g} > {bound:.3g}"

    @given(exponent=st.integers(min_value=-10, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_source_power_scales_inversely(self, exponent):
        k = 2.0 ** exponent
        base, _ = _ladder_deck(lambda s: s)
        scaled, _ = _ladder_deck(lambda s: s, scale=k)
        p_a = base["vs"].delivered_power(operating_point(base))
        p_b = scaled["vs"].delivered_power(operating_point(scaled))
        assert p_b * k == pytest.approx(p_a, rel=2e-3)


class TestCli:
    def test_equiv_run_strict_passes(self, capsys):
        from repro.cli import main

        assert main(["equiv", "run", "--strict", "--case",
                     "6t-standby-op", "--no-checks"]) == 0
        out = capsys.readouterr().out
        assert "gate: PASS" in out

    def test_equiv_diff_prints_all_quantities(self, capsys):
        from repro.cli import main

        assert main(["equiv", "diff", "--case", "6t-standby-op",
                     "--no-checks"]) == 0
        out = capsys.readouterr().out
        assert "p(supply)" in out

    def test_equiv_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "equiv.json"
        assert main(["equiv", "run", "--case", "6t-standby-op",
                     "--no-checks", "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True

    def test_missing_corpus_only_fails_in_strict(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["equiv", "run", "--case", "6t-standby-op", "--no-checks",
                "--corpus", str(tmp_path)]
        assert main(argv) == 0          # advisory when corpus absent
        assert main(argv + ["--strict"]) == 1
