"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figX"])

    @pytest.mark.parametrize("command", [
        "table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7a", "fig7b",
        "fig7c", "fig8", "fig9", "characterize", "bet", "snm",
        "retention", "variability", "ff", "wer", "all",
    ])
    def test_all_commands_parse(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "6.37 kohm" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "NVPG" in out and "NOF" in out

    def test_snm_hold_and_read(self, capsys):
        assert main(["snm"]) == 0
        hold = capsys.readouterr().out
        assert "hold SNM" in hold
        assert main(["snm", "--read"]) == 0
        read = capsys.readouterr().out
        assert "read SNM" in read

    def test_snm_underdrive_flag(self, capsys):
        main(["snm", "--read"])
        base = float(capsys.readouterr().out.split()[2])
        main(["snm", "--read", "--wl-underdrive", "0.1"])
        assisted = float(capsys.readouterr().out.split()[2])
        assert assisted > base

    def test_bet(self, capsys):
        assert main(["bet", "--n-rw", "10", "--wordlines", "64"]) == 0
        out = capsys.readouterr().out
        assert "break-even time" in out

    def test_bet_store_free(self, capsys):
        main(["bet", "--n-rw", "10", "--wordlines", "64"])
        full = capsys.readouterr().out
        main(["bet", "--n-rw", "10", "--wordlines", "64", "--store-free"])
        free = capsys.readouterr().out
        assert "store-free:       True" in free
        assert full != free

    def test_characterize_emits_json(self, capsys):
        assert main(["characterize", "--kind", "6t",
                     "--wordlines", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "6t"
        assert payload["p_normal"] > 0

    def test_fig4_with_domain_flags(self, capsys):
        assert main(["fig4", "--wordlines", "64"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_retention(self, capsys):
        assert main(["retention"]) == 0
        out = capsys.readouterr().out
        assert "retention voltage" in out


class TestExtensionCommands:
    def test_wer(self, capsys):
        assert main(["wer", "--duration", "10n", "--target", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "x Ic" in out
        assert "WER" in out

    def test_variability(self, capsys):
        assert main(["variability", "--samples", "5",
                     "--wordlines", "64"]) == 0
        out = capsys.readouterr().out
        assert "switching yield" in out
        assert "read-SNM" in out

    def test_ff(self, capsys):
        assert main(["ff", "--bits", "256"]) == 0
        out = capsys.readouterr().out
        assert "256-bit register bank" in out
        assert "break-even time" in out


    def test_all_scorecard(self, capsys):
        assert main(["all", "--scorecard-only"]) == 0
        out = capsys.readouterr().out
        assert "Headline-claim scorecard" in out
        assert "FAIL" not in out


class TestDiagnoseCommand:
    def test_no_path_is_usage_error(self, capsys):
        assert main(["diagnose"]) == 2
        assert "need a JSON failure dump" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["diagnose", "/nonexistent/failure.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_demo_renders_forensics(self, capsys):
        assert main(["diagnose", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "KCL residual" in out
        assert "worst offenders" in out
        assert "recovery ladder" in out

    def test_renders_dumped_failure(self, tmp_path, capsys):
        import numpy as np

        from repro.analysis.mna import Context
        from repro.analysis.solver import NewtonOptions, newton_solve
        from repro.circuit import Circuit, VoltageSource
        from repro.devices import FinFET, NFET_20NM_HP, PFET_20NM_HP
        from repro.errors import ConvergenceError
        from repro.recovery import dump_failure

        c = Circuit("latch")
        c.add(VoltageSource("vdd", "vdd", "0", dc=0.9))
        c.add(FinFET("pu1", "q", "qb", "vdd", PFET_20NM_HP))
        c.add(FinFET("pd1", "q", "qb", "0", NFET_20NM_HP))
        c.add(FinFET("pu2", "qb", "q", "vdd", PFET_20NM_HP))
        c.add(FinFET("pd2", "qb", "q", "0", NFET_20NM_HP))
        c.compile()
        with pytest.raises(ConvergenceError) as info:
            newton_solve(c, Context(), np.zeros(c.size),
                         NewtonOptions(max_iterations=3))
        path = dump_failure(info.value, tmp_path / "failure.json")
        assert main(["diagnose", str(path)]) == 0
        assert "KCL residual" in capsys.readouterr().out


class TestChaosCommand:
    def test_small_run_exits_zero(self, capsys):
        assert main(["chaos", "--faults", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out.lower()

    def test_json_report_round_trips_through_diagnose(self, tmp_path,
                                                      capsys):
        report = tmp_path / "chaos.json"
        assert main(["chaos", "--target", "6t", "--faults", "2",
                     "--json", str(report)]) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["kind"] == "chaos_report"
        assert len(payload["records"]) == 2
        assert main(["diagnose", str(report)]) == 0
        assert "chaos" in capsys.readouterr().out.lower()

    def test_exit_code_follows_the_report(self, monkeypatch, capsys):
        import repro.recovery.faults as faults
        from repro.recovery import chaos_report

        bad = {"name": "fault", "expected": "converged", "actual": "lost",
               "ok": False}
        monkeypatch.setattr(faults, "chaos_operating_points",
                            lambda **kwargs: chaos_report("solver-dc", [bad],
                                                          n_in=1))
        assert main(["chaos", "--faults", "1"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestLintCommand:
    BAD_DECK = "bad deck\nv1 a 0 1\nv2 a 0 1\nr1 a 0 1k\n.end\n"
    WARN_DECK = "warn deck\nv1 a 0 1\nr1 a 0 1k\nrd a dangle 1k\n.end\n"

    def test_no_targets_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "no targets" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RV001", "RV101", "RV201", "RV307"):
            assert code in out

    def test_clean_alias_exits_zero(self, capsys):
        assert main(["lint", "nv"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_bad_deck_exits_one(self, tmp_path, capsys):
        deck = tmp_path / "bad.sp"
        deck.write_text(self.BAD_DECK)
        assert main(["lint", str(deck)]) == 1
        assert "RV005" in capsys.readouterr().out

    def test_disable_turns_error_off(self, tmp_path):
        # The island trips exactly one rule, so disabling it cleans
        # the deck.  (BAD_DECK would not work here: parallel sources
        # are structurally singular too, so RV201 backs RV005 up.)
        deck = tmp_path / "island.sp"
        deck.write_text("island\nv1 vdd 0 1\nr1 vdd 0 1k\n"
                        "ra isl_a isl_b 1k\nrb isl_b isl_a 2k\n.end\n")
        assert main(["lint", str(deck)]) == 1
        assert main(["lint", str(deck), "--disable", "RV101"]) == 0

    def test_env_disable_honored(self, tmp_path, monkeypatch):
        deck = tmp_path / "island.sp"
        deck.write_text("island\nv1 vdd 0 1\nr1 vdd 0 1k\n"
                        "ra isl_a isl_b 1k\nrb isl_b isl_a 2k\n.end\n")
        monkeypatch.setenv("REPRO_LINT_DISABLE", "RV101")
        assert main(["lint", str(deck)]) == 0

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["lint", "/nonexistent/nope.sp"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_strict_fails_on_warnings(self, tmp_path):
        deck = tmp_path / "warn.sp"
        deck.write_text(self.WARN_DECK)
        assert main(["lint", str(deck)]) == 0
        assert main(["lint", str(deck), "--strict"]) == 1

    def test_sarif_output_is_valid_json(self, tmp_path, capsys):
        deck = tmp_path / "bad.sp"
        deck.write_text(self.BAD_DECK)
        assert main(["lint", str(deck), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert any(r["ruleId"] == "RV005" for r in results)

    def test_json_output(self, tmp_path, capsys):
        deck = tmp_path / "warn.sp"
        deck.write_text(self.WARN_DECK)
        assert main(["lint", str(deck), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["warning"] >= 1


class TestLintSourceCommand:
    RV404_MODULE = ("def window():\n"
                    "    return float(\"10n\")\n")
    RV401_MODULE = ("def f(v):\n"
                    "    return v == 0.9\n")

    def test_shipped_package_is_clean(self, capsys):
        # Default paths: the installed repro package itself.
        assert main(["lint-source"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_rule_fails_run(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(self.RV404_MODULE)
        assert main(["lint-source", str(mod)]) == 1
        assert "RV404" in capsys.readouterr().out

    def test_warning_needs_strict_to_fail(self, tmp_path):
        mod = tmp_path / "warn.py"
        mod.write_text(self.RV401_MODULE)
        assert main(["lint-source", str(mod)]) == 0
        assert main(["lint-source", str(mod), "--strict"]) == 1

    def test_disable_flag(self, tmp_path):
        mod = tmp_path / "bad.py"
        mod.write_text(self.RV404_MODULE)
        assert main(["lint-source", str(mod), "--disable", "RV404"]) == 0

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint-source", "/nonexistent/nope.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules_includes_rv4xx(self, capsys):
        assert main(["lint-source", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RV400", "RV402", "RV406"):
            assert code in out

    def test_sarif_output_is_valid_json(self, tmp_path, capsys):
        mod = tmp_path / "bad.py"
        mod.write_text(self.RV404_MODULE)
        assert main(["lint-source", str(mod), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert any(r["ruleId"] == "RV404" for r in results)
        uri = results[0]["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert uri.endswith("bad.py")

    def test_directory_walk(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(self.RV404_MODULE)
        (tmp_path / "pkg" / "b.py").write_text(self.RV401_MODULE)
        assert main(["lint-source", str(tmp_path / "pkg")]) == 1
        out = capsys.readouterr().out
        assert "RV404" in out and "RV401" in out
