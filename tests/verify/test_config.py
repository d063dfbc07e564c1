"""The lint policy of both CLI commands: ``REPRO_LINT_DISABLE``
together with every ``--disable`` flag."""

import argparse

from repro.cli import _lint_config
from repro.verify import verify_source_text

RV401_TEXT = "def f(v):\n    return v == 0.9\n"


def lint_config(*disable):
    return _lint_config(argparse.Namespace(disable=list(disable)))


class TestEffectiveConfig:
    def test_env_layer_adds_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_DISABLE", "RV401")
        config = lint_config("RV104")
        assert {"RV104", "RV401"} <= set(config.disable)
        report = verify_source_text(RV401_TEXT, path="mod.py",
                                    config=config)
        assert list(report) == []

    def test_cli_layer_adds_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_LINT_DISABLE", raising=False)
        config = lint_config("RV406,RV404", "RV401")
        assert config.disable == {"RV401", "RV404", "RV406"}
