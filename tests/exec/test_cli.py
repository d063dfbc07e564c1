"""CLI surface of the campaign engine: the figure prewarm flag and
``repro chaos --executor``."""

import json

import pytest

from repro.cli import build_parser, main

#: The option deleted with the campaign journal, and the commands that
#: took it: the characterization cache is a prewarm's one durable record.
REMOVED_OPTION = "journal"
REMOVED_OPTION_COMMANDS = ("fig7a", "fig7b", "fig7c", "fig8", "fig9",
                           "serve")


class TestParsing:
    def test_campaign_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    @pytest.mark.parametrize("flags", [
        ["--serve", "--executor", "--crashpoints", "--transient"],
        ["--executor", "--transient"],
    ])
    def test_chaos_suite_flags_are_exclusive(self, flags, capsys):
        """``repro chaos`` runs one suite: a second suite flag is a usage
        error, not a silently ignored request."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["chaos", *flags])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        args = build_parser().parse_args(["chaos", flags[0]])
        assert getattr(args, flags[0][2:])

    def test_figures_accept_campaign_flags(self):
        for command in ("fig7a", "fig7b", "fig7c", "fig8", "fig9"):
            args = build_parser().parse_args([command, "--workers", "2"])
            assert args.workers == 2

    @pytest.mark.parametrize("command", REMOVED_OPTION_COMMANDS)
    def test_removed_option_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [command, f"--{REMOVED_OPTION}", "j.jsonl"])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_all_pools_by_default_only_as_the_program(self, monkeypatch,
                                                      capsys):
        """``main()`` parsing the process's own command line prewarms
        ``all`` on the usable CPUs; a host passing ``argv`` stays serial
        unless it asks for workers."""
        import sys

        from repro import cli
        from repro.experiments import summary

        seen = []

        def fake_report(ctx, include_figures, workers):
            seen.append(workers)
            return summary.SummaryResult(claims=[])

        monkeypatch.setattr(summary, "run_summary", fake_report)
        monkeypatch.setattr(cli, "_default_pool", lambda: 3)
        monkeypatch.setattr(sys, "argv", ["repro", "all"])
        assert main() == 0
        assert main(["all"]) == 0
        assert main(["all", "--workers", "2"]) == 0
        assert seen == [3, None, 2]
        capsys.readouterr()

    def test_campaign_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["campaign", "status", "j.jsonl"])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_chaos_executor_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--executor", "--workers", "3", "--scratch", "/tmp/x"])
        assert args.executor is True
        assert args.workers == 3


class TestChaosExecutorCommand:
    def test_inline_matrix_and_json_report(self, tmp_path, capsys,
                                           monkeypatch):
        """--executor wires chaos_executor + render and the exit code.

        The CLI handler is exercised with the inline-safe fault subset
        (spawn faults belong to the stress job); ``chaos_executor`` is
        wrapped so the full matrix never runs in tier 1.
        """
        import repro.recovery.faults as faults

        real = faults.chaos_executor

        def inline_only(scratch, **kwargs):
            kwargs.update(workers=0, task_timeout=None,
                          kinds=("task_error", "conv_skip"))
            return real(scratch, **kwargs)

        monkeypatch.setattr(faults, "chaos_executor", inline_only)
        assert main(["chaos", "--executor", "--scratch", str(tmp_path),
                     "--faults", "1",
                     "--json", str(tmp_path / "report.json")]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["kind"] == "chaos_report"
        assert report["suite"] == "executor"
        assert report["ok"] is True

    def test_diagnose_renders_the_json_report(self, tmp_path, capsys,
                                              monkeypatch):
        import repro.recovery.faults as faults

        real = faults.chaos_executor
        monkeypatch.setattr(
            faults, "chaos_executor",
            lambda scratch, **kwargs: real(
                scratch, **dict(kwargs, workers=0, task_timeout=None,
                                kinds=("task_error", "conv_skip"))))
        path = str(tmp_path / "report.json")
        assert main(["chaos", "--executor", "--scratch", str(tmp_path),
                     "--faults", "1", "--json", path]) == 0
        capsys.readouterr()
        assert main(["diagnose", path]) == 0
        out = capsys.readouterr().out
        assert "chaos report: executor — 3 in, 3 out — PASS" in out
        assert "[ok ] fault:conv_skip: skipped" in out


@pytest.mark.stress
class TestChaosExecutorSpawn:
    def test_full_cli_run(self, tmp_path, capsys):
        assert main(["chaos", "--executor", "--scratch", str(tmp_path),
                     "--faults", "1", "--workers", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_scratch_dir_is_created(self, tmp_path, capsys):
        """The flaky task's crash-once marker needs the scratch dir."""
        scratch = tmp_path / "chaos-forensics" / "scratch"
        assert main(["chaos", "--executor", "--scratch", str(scratch),
                     "--faults", "1", "--workers", "2"]) == 0
        assert "PASS" in capsys.readouterr().out
