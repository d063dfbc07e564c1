"""Source-level static analysis: lint the simulator's own Python code.

``repro.verify.source`` turns the rule registry inward: the RV4xx rules
(``scope="source"``) run Python-``ast`` checks over one module at a
time — float equality on physical quantities, NaN-unsafe reductions,
raw SPICE quantity strings, swallowed solver forensics, mutable
defaults, unused imports.  Modules are parsed serially on the calling
thread: CPython 3.11's AST constructor is not thread-safe.

The target object handed to every ``scope="source"`` rule is a
:class:`SourceModule`: the module text, its parsed AST and the
``# lint: skip=RVnnn`` pragma lines.  Entry points mirror the deck
linter: :func:`verify_source_text` / :func:`verify_source_file` lint
one module, :func:`verify_source` walks files and directories and
returns one merged :class:`~repro.verify.core.Report` whose per-file
diagnostics keep their own ``target`` (so SARIF locations point at the
right artifact).

Suppressing a finding:

* inline, for one line: ``x = spice_magic()  # lint: skip=RV404 reason``
  (comma-separated codes, then the reason; use sparingly — the pragma
  is the audit trail for a deliberate violation);
* for a whole run: ``--disable RV404`` or ``REPRO_LINT_DISABLE=RV404``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .core import Diagnostic, Report, SourceLocation, VerifyConfig, run_rules

#: Inline suppression pragma at the end of the offending line:
#: ``# lint: skip=RV401`` or ``# lint: skip=RV401,RV404``; whatever
#: follows the codes is the reason.
_PRAGMA_RE = re.compile(r"#\s*lint:\s*skip=\s*(RV\d{3}(?:\s*,\s*RV\d{3})*)",
                        re.IGNORECASE)


class SourceModule:
    """One Python module under analysis — the RV4xx rule target.

    Attributes
    ----------
    text:
        Raw module source.
    path:
        Display path of the module (report target, SARIF artifact URI).
    lines:
        ``text`` split into physical lines (1-based access via
        :meth:`line_text`).
    tree:
        Parsed AST, or ``None`` when the module does not parse —
        RV400 owns that finding and every other rule skips the module.
    syntax_error:
        The ``SyntaxError`` raised by :func:`ast.parse`, if any.
    pragmas:
        ``{line number: {rule codes}}`` of inline skip pragmas.
    """

    def __init__(self, text: str, path: str = ""):
        self.text = text
        self.path = path
        self.lines = text.splitlines()
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(text)
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = exc
        self.pragmas = self._scan_pragmas(self.lines)

    @staticmethod
    def _scan_pragmas(lines: Sequence[str]) -> Dict[int, Set[str]]:
        out: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match is not None:
                out[lineno] = {tok.strip().upper()
                               for tok in match.group(1).split(",")}
        return out

    def line_text(self, lineno: int) -> str:
        """Physical line ``lineno`` (1-based), or empty when out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def loc(self, node: ast.AST) -> SourceLocation:
        """Source location of an AST node, with the line's text."""
        lineno = getattr(node, "lineno", 0) or 0
        return SourceLocation(line=lineno, text=self.line_text(lineno))

    def suppressed_at(self, code: str, lineno: Optional[int]) -> bool:
        """True when a ``# lint: skip=`` pragma covers ``code`` there."""
        if lineno is None:
            return False
        return code.upper() in self.pragmas.get(lineno, ())


def iter_source_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files and directories into sorted ``*.py`` module paths.

    Directories are walked recursively; duplicate paths (a file listed
    directly and again via its directory) are yielded once.
    """
    seen: Set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def verify_source(paths: Iterable[str],
                  config: Optional[VerifyConfig] = None) -> Report:
    """Lint every module under ``paths``; one merged report.

    Each diagnostic keeps its own module path as ``target``, so the
    merged report renders and serialises with correct per-file
    locations.
    """
    if config is None:
        config = VerifyConfig.from_env()
    roots = [str(p) for p in paths]
    files: List[Path] = list(iter_source_files(roots))
    merged = Report(
        target=f"{', '.join(roots) or 'source'} ({len(files)} modules)")
    for path in files:
        merged.diagnostics.extend(verify_source_text(
            path.read_text(), path=str(path), config=config).diagnostics)
    merged.diagnostics.sort(key=Diagnostic.sort_key)
    return merged


def verify_source_text(text: str, path: str = "",
                       config: Optional[VerifyConfig] = None) -> Report:
    """Lint one module's text with the ``source`` rules, minus the
    findings its inline pragmas suppress."""
    if config is None:
        config = VerifyConfig.from_env()
    module = SourceModule(text, path=path)
    report = run_rules(module, "source", target_name=path or "<source>",
                       config=config)
    if module.pragmas:
        report.diagnostics = [
            d for d in report.diagnostics
            if not module.suppressed_at(
                d.code, d.location.line if d.location else None)
        ]
    return report


def verify_source_file(path, config: Optional[VerifyConfig] = None) -> Report:
    """Lint the Python module at ``path`` (see :func:`verify_source_text`)."""
    p = Path(path)
    return verify_source_text(p.read_text(), path=str(p), config=config)


def default_source_paths() -> List[str]:
    """The package's own source tree — what ``lint-source`` lints bare."""
    return [str(Path(__file__).resolve().parent.parent)]
