"""Static analysis for netlists and SPICE decks (``repro lint``).

This package generalises the seed's ad-hoc circuit linter into a
rule-registry framework:

* :mod:`repro.verify.core` — rules, diagnostics, config, reports;
* :mod:`repro.verify.rules_circuit` — generic netlist hygiene (RV0xx);
* :mod:`repro.verify.rules_power` — power-gating structure (RV1xx):
  virtual-rail islands, orphaned MTJs, always-on store paths, bypassed
  power switches;
* :mod:`repro.verify.rules_mna` — structural MNA solvability (RV2xx);
* :mod:`repro.verify.rules_deck` — SPICE-deck text checks (RV3xx);
* :mod:`repro.verify.rules_source` — Python-source checks over the
  simulator itself (RV4xx): float equality on physical quantities,
  NaN/skip hazards over partial sweep results, stamp-contract drift,
  raw SPICE quantity strings, swallowed solver forensics, mutable
  default arguments; :mod:`repro.verify.source` runs them module by
  module behind an incremental cache;
* :mod:`repro.verify.baseline` — record-and-suppress of pre-existing
  findings so new rules gate only new regressions;
* :mod:`repro.verify.emit` — text / JSON / SARIF output.

Entry points: :func:`verify_circuit`, :func:`verify_deck`,
:func:`verify_deck_file`, :func:`verify_source`,
:func:`verify_source_file` produce a :class:`Report`;
:func:`assert_clean` is the lint-before-simulate hook used by the cell
builders and characterization runners (disable globally with
``REPRO_LINT=0``, per-rule with ``REPRO_LINT_DISABLE=RV104,...``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from ..errors import ReproError, VerificationError
from .core import (
    REGISTRY,
    Diagnostic,
    Finding,
    Report,
    Rule,
    RuleRegistry,
    Severity,
    SourceLocation,
    VerifyConfig,
    rule,
    run_rules,
)
# Importing the rule modules registers their rules with REGISTRY.
from . import rules_circuit   # noqa: F401  (registration side effect)
from . import rules_power     # noqa: F401
from . import rules_mna       # noqa: F401
from . import rules_deck      # noqa: F401
from . import rules_source    # noqa: F401
from .baseline import (
    apply_baseline,
    baseline_fingerprint,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from .emit import render_json, render_sarif, render_text
from .rules_deck import DeckSource
from .source import (
    SourceModule,
    default_source_paths,
    module_name_for,
    verify_source,
    verify_source_file,
    verify_source_text,
)
from .stampcheck import (
    StampCheckResult,
    assert_stamps_clean,
    check_circuit_stamps,
    check_element_stamp,
)

__all__ = [
    "REGISTRY",
    "DeckSource",
    "Diagnostic",
    "Finding",
    "Report",
    "Rule",
    "RuleRegistry",
    "Severity",
    "SourceLocation",
    "SourceModule",
    "StampCheckResult",
    "VerificationError",
    "VerifyConfig",
    "apply_baseline",
    "assert_clean",
    "baseline_fingerprint",
    "assert_stamps_clean",
    "check_circuit_stamps",
    "check_element_stamp",
    "default_source_paths",
    "lint_enabled",
    "load_baseline",
    "module_name_for",
    "prune_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
    "run_rules",
    "verify_circuit",
    "verify_deck",
    "verify_deck_file",
    "verify_source",
    "verify_source_file",
    "verify_source_text",
    "write_baseline",
]


def lint_enabled() -> bool:
    """False when the ``REPRO_LINT`` escape hatch disables the hooks.

    Set ``REPRO_LINT=0`` (or ``off``/``false``/``no``) to bypass the
    lint-before-simulate checks, e.g. to reproduce a known-broken
    configuration on purpose.
    """
    value = os.environ.get("REPRO_LINT", "1").strip().lower()
    return value not in ("0", "off", "false", "no")


def verify_circuit(circuit, config: Optional[VerifyConfig] = None,
                   target: str = "") -> Report:
    """Run all circuit-scope rules against ``circuit``."""
    if config is None:
        config = VerifyConfig.from_env()
    name = target or circuit.title or "circuit"
    return run_rules(circuit, "circuit", target_name=name, config=config)


def verify_deck(text: str, path: str = "",
                config: Optional[VerifyConfig] = None,
                include_circuit: bool = True) -> Report:
    """Lint SPICE deck ``text``: deck-level rules plus, when the deck
    parses, the circuit-scope rules on the flattened netlist."""
    if config is None:
        config = VerifyConfig.from_env()
    source = DeckSource(text, path=path)
    name = path or source.title or "deck"
    report = run_rules(source, "deck", target_name=name, config=config)
    if include_circuit:
        from ..spice.parser import parse_deck
        try:
            parsed = parse_deck(text)
        except ReproError:
            return report   # RV300 already reported the rejection
        report.extend(verify_circuit(parsed.circuit, config=config,
                                     target=name))
    return report


def verify_deck_file(path, config: Optional[VerifyConfig] = None,
                     include_circuit: bool = True) -> Report:
    """Lint the deck file at ``path`` (see :func:`verify_deck`)."""
    p = Path(path)
    return verify_deck(p.read_text(), path=str(p), config=config,
                       include_circuit=include_circuit)


def assert_clean(circuit, target: str = "",
                 config: Optional[VerifyConfig] = None) -> Report:
    """Lint ``circuit`` and raise on error findings.

    The lint-before-simulate hook: cell builders and characterization
    runners call this so a mis-wired power switch or orphaned MTJ fails
    fast with rule codes instead of surfacing later as a convergence
    failure or a silently wrong energy figure.  Honors
    :func:`lint_enabled` — with ``REPRO_LINT=0`` it returns an empty
    report without running anything.

    Raises
    ------
    repro.errors.VerificationError
        If any error-severity diagnostic is found.
    """
    if not lint_enabled():
        return Report(target=target)
    report = verify_circuit(circuit, config=config, target=target)
    report.raise_on_errors()
    return report
