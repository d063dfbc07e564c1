"""Rule registry, diagnostics and the engine that runs checks.

The verify framework turns the ad-hoc linter of the seed tree into a
pluggable static-analysis pass:

* a :class:`Rule` couples a stable code (``RV001``...), a human-readable
  slug, a default :class:`Severity` and a check callable;
* checks yield lightweight :class:`Finding` objects; the engine wraps
  them into :class:`Diagnostic` records, running only the rules the
  per-run :class:`VerifyConfig` enables (disable and only lists);
* a :class:`Report` aggregates diagnostics for one or more targets and
  feeds the emitters in :mod:`repro.verify.emit`.

Rule codes are grouped by band:

======  =====================================================
band    meaning
======  =====================================================
RV0xx   generic netlist hygiene (migrated from the seed linter)
RV1xx   power-gating structure (VVDD islands, store paths...)
RV2xx   MNA structural solvability
RV3xx   SPICE-deck / text-level checks
RV4xx   the simulator's own Python source (AST checks)
======  =====================================================

Every rule sees one artifact at a time: a compiled circuit, a deck or
one Python module.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import VerificationError


class Severity(enum.Enum):
    """Diagnostic severity levels, ordered most severe first."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: 0 for errors, increasing for milder severities."""
        return ("error", "warning", "info").index(self.value)

    @classmethod
    def parse(cls, value: "str | Severity") -> "Severity":
        """Coerce a string (``"error"``) or instance into a Severity."""
        if isinstance(value, Severity):
            return value
        return cls(str(value).lower())


@dataclass(frozen=True)
class SourceLocation:
    """Position of a finding inside a source deck (1-based line)."""

    line: int
    text: str = ""


@dataclass(frozen=True)
class Finding:
    """Raw output of a rule check.

    Checks yield these; the engine attaches the rule code/name and the
    severity to produce a :class:`Diagnostic`.
    """

    subject: str
    message: str
    location: Optional[SourceLocation] = None
    #: Optional per-finding severity override (rare; most rules have a
    #: single natural severity declared on the rule itself).
    severity: Optional[Severity] = None


@dataclass(frozen=True)
class Diagnostic:
    """One fully-resolved static-analysis finding."""

    code: str               # stable rule code, e.g. "RV101"
    name: str               # rule slug, e.g. "islanded-node"
    severity: Severity
    message: str
    subject: str            # node or element name the finding anchors to
    target: str = ""        # what was analysed (deck path, bench name...)
    location: Optional[SourceLocation] = None

    def __str__(self) -> str:
        where = f":{self.location.line}" if self.location else ""
        prefix = f"{self.target}{where}: " if self.target else ""
        return (f"{prefix}[{self.severity.value}] {self.code} "
                f"{self.name}: {self.message}")

    def sort_key(self) -> Tuple:
        """Errors first, then by code and subject (stable output order)."""
        return (self.severity.rank, self.code, self.subject, self.message)


@dataclass(frozen=True)
class Rule:
    """A registered static-analysis rule.

    Attributes
    ----------
    code:
        Stable identifier (``RVnnn``); never reused once published.
    name:
        Kebab-case slug used in human output and disable lists.
    scope:
        ``"circuit"`` (checks a compiled :class:`repro.circuit.Circuit`),
        ``"deck"`` (checks a tokenised SPICE deck source),
        or ``"source"`` (checks a parsed Python module of the
        simulator itself — see :mod:`repro.verify.source`).
    severity:
        Default severity of findings from this rule.
    description:
        One-line summary (used by ``--list-rules`` and SARIF).
    rationale:
        Why the finding matters for this project's simulations.
    check:
        Callable ``check(target) -> Iterable[Finding]``.
    """

    code: str
    name: str
    scope: str
    severity: Severity
    description: str
    check: Callable[..., Iterable[Finding]]
    rationale: str = ""


class RuleRegistry:
    """Ordered collection of rules, addressable by code or name."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        """Add ``rule``; codes and names must be unique."""
        if rule.code in self._rules:
            raise ValueError(f"duplicate rule code: {rule.code}")
        if any(r.name == rule.name for r in self._rules.values()):
            raise ValueError(f"duplicate rule name: {rule.name}")
        self._rules[rule.code] = rule
        return rule

    def get(self, code_or_name: str) -> Rule:
        """Look a rule up by its code or its slug."""
        rule = self._rules.get(code_or_name.upper())
        if rule is not None:
            return rule
        for r in self._rules.values():
            if r.name == code_or_name.lower():
                return r
        raise KeyError(f"no such rule: {code_or_name}")

    def rules(self, scope: Optional[str] = None) -> List[Rule]:
        """All rules (optionally restricted to one scope), in code order."""
        out = [r for r in self._rules.values()
               if scope is None or r.scope == scope]
        return sorted(out, key=lambda r: r.code)

    def __contains__(self, code: str) -> bool:
        return code in self._rules

    def __len__(self) -> int:
        return len(self._rules)


#: The process-wide registry that the ``rules_*`` modules populate.
REGISTRY = RuleRegistry()


def rule(code: str, name: str, scope: str, severity: "str | Severity",
         description: str, rationale: str = "",
         registry: RuleRegistry = REGISTRY):
    """Decorator registering a check function as a :class:`Rule`.

    >>> @rule("RV999", "example", "circuit", "warning", "demo rule")
    ... def check_example(circuit):
    ...     yield from ()
    """
    def decorate(fn: Callable[..., Iterable[Finding]]):
        registry.register(Rule(
            code=code, name=name, scope=scope,
            severity=Severity.parse(severity),
            description=description, rationale=rationale, check=fn,
        ))
        return fn
    return decorate


@dataclass(frozen=True)
class VerifyConfig:
    """Per-run policy: which rules run.

    Attributes
    ----------
    disable:
        Rule codes or names to skip entirely.
    only:
        If non-empty, run *only* these rules (codes or names).
    """

    disable: frozenset = frozenset()
    only: frozenset = frozenset()

    @classmethod
    def from_env(cls) -> "VerifyConfig":
        """Build a config from ``REPRO_LINT_DISABLE`` (comma-separated)."""
        raw = os.environ.get("REPRO_LINT_DISABLE", "")
        disabled = frozenset(
            t.strip() for t in raw.split(",") if t.strip()
        )
        return cls(disable=disabled)

    def _matches(self, rule_: Rule, tokens: Iterable[str]) -> bool:
        wanted = {t.upper() for t in tokens} | {t.lower() for t in tokens}
        return rule_.code in wanted or rule_.name in wanted

    def rule_enabled(self, rule_: Rule) -> bool:
        """True if policy allows ``rule_`` to run."""
        if self.only and not self._matches(rule_, self.only):
            return False
        return not self._matches(rule_, self.disable)


@dataclass
class Report:
    """Aggregated diagnostics for one analysis run."""

    target: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, other: "Report") -> "Report":
        """Fold another report's diagnostics into this one."""
        self.diagnostics.extend(other.diagnostics)
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self

    def errors(self) -> List[Diagnostic]:
        """Error-severity diagnostics only."""
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        """Warning-severity diagnostics only."""
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        """True if any diagnostic is error-severity."""
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def counts(self) -> Dict[str, int]:
        """``{"error": n, "warning": n, "info": n}`` totals."""
        out = {s.value: 0 for s in Severity}
        for d in self.diagnostics:
            out[d.severity.value] += 1
        return out

    def raise_on_errors(self) -> None:
        """Raise :class:`~repro.errors.VerificationError` on any error."""
        errors = self.errors()
        if errors:
            raise VerificationError(
                f"static analysis of {self.target or 'netlist'} found "
                f"{len(errors)} error(s):\n"
                + "\n".join(f"  {d}" for d in errors),
                diagnostics=errors,
            )

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)


def run_rules(target_obj, scope: str, target_name: str = "",
              config: Optional[VerifyConfig] = None,
              registry: RuleRegistry = REGISTRY) -> Report:
    """Run every enabled rule of ``scope`` against ``target_obj``.

    Rules are independent: one rule crashing is a bug, not a lint
    finding, so exceptions propagate (keeping checks honest under test).
    """
    config = config or VerifyConfig()
    report = Report(target=target_name)
    for rule_ in registry.rules(scope):
        if not config.rule_enabled(rule_):
            continue
        for finding in rule_.check(target_obj):
            report.diagnostics.append(Diagnostic(
                code=rule_.code,
                name=rule_.name,
                severity=finding.severity or rule_.severity,
                message=finding.message,
                subject=finding.subject,
                target=target_name,
                location=finding.location,
            ))
    report.diagnostics.sort(key=Diagnostic.sort_key)
    return report
