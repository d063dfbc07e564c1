"""Source-level static analysis: lint the simulator's own Python code.

``repro.verify.source`` turns the rule registry inward, in two layers:

* **per-module** (``scope="source"``): RV4xx rules run Python-``ast``
  checks over one module at a time — float equality on physical
  quantities, NaN-unsafe reductions, stamp-contract drift, raw SPICE
  quantity strings, swallowed solver forensics, mutable defaults;
* **whole-program** (``scope="project"``): RV6xx campaign purity,
  RV7xx perf inventory and RV9xx crash safety run
  each module against the assembled project symbol table, call graph
  and interprocedural facts (:mod:`repro.verify.callgraph`).

The engine is incremental: with a ``cache_dir``, every module's summary
and diagnostics persist keyed by content + policy hash, one
:mod:`repro.exec.envelope` entry per module; a warm run over an
unchanged tree parses nothing, and after an edit only the edited module
*and the modules whose interprocedural facts it shifted* (callers of a
callee whose allocations or effects changed, functions newly reachable
from a task) are re-checked.  Cold modules are parsed serially on the
calling thread: CPython 3.11's AST constructor is not thread-safe.

The target object handed to every ``scope="source"`` rule is a
:class:`SourceModule`: the module text, its parsed AST and the
``# lint: skip=RVnnn`` pragma lines.  Entry points mirror the deck
linter: :func:`verify_source_text` / :func:`verify_source_file` lint
one module (as a single-module project, so the interprocedural bands
run there too), :func:`verify_source` walks files and directories and
returns one merged :class:`~repro.verify.core.Report` whose per-file
diagnostics keep their own ``target`` (so SARIF locations point at the
right artifact).

Suppressing a finding:

* inline, for one line: ``x = spice_magic()  # lint: skip=RV404`` (use
  sparingly — the pragma is the audit trail for a deliberate violation);
* by policy, for a path: a ``"RV404:src/repro/legacy/*"`` entry in the
  shared ``suppress`` list (see :mod:`repro.verify.config`);
* run-over-run, for a whole tree: a baseline file
  (:mod:`repro.verify.baseline`) recording today's findings so only
  *new* ones fail CI.
"""

from __future__ import annotations

import ast
import hashlib
import re
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from ..exec import envelope
from .core import (
    Diagnostic,
    Report,
    Severity,
    SourceLocation,
    VerifyConfig,
    run_rules,
)

#: Inline suppression pragma: ``# lint: skip=RV401`` or
#: ``# lint: skip=RV401,RV403`` at the end of the offending line.
_PRAGMA_RE = re.compile(r"#\s*lint:\s*skip=([A-Za-z0-9_,\s]+)")

#: Schema of the lint-cache entries; bump when summary or diagnostic
#: serialisation changes shape.
#: v2: summary schema 2 (shape returns, nonloop allocs) + RV8xx band.
#: v3: summary schema 3 (effect signatures, global reads) + RV9xx band.
#: v4: spawn_tgt atoms are Process-only (Thread targets stay local).
#: v5: summary schema 4 (no shape returns) and no RV8xx band.
#: v6: summary schema 5 (no units facts, package-relative imports fixed).
CACHE_SCHEMA_VERSION = 6


def default_lint_cache_dir() -> Path:
    """The ``lint/`` subdirectory of :func:`repro.exec.envelope.cache_root`."""
    return envelope.cache_root() / "lint"


def entry_key(text: str, config_digest: str, path: str, name: str) -> str:
    """Lint-cache key of one module: its text, path and dotted name, the
    policy, the schema.  The path and name are part of the key because
    the cached findings and summary carry them."""
    blob = hashlib.sha256()
    for part in (text, config_digest, path, name):
        blob.update(part.encode())
        blob.update(b"\0")
    blob.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    return blob.hexdigest()[:24]


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
                codes = {tok.strip().upper()
                         for tok in match.group(1).split(",") if tok.strip()}
                if codes:
                    out[lineno] = codes
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
# diagnostic (de)serialisation for the incremental cache
# ---------------------------------------------------------------------------


def _diag_to_json(diag: Diagnostic) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "code": diag.code, "name": diag.name,
        "severity": diag.severity.value, "message": diag.message,
        "subject": diag.subject, "target": diag.target,
    }
    if diag.location is not None:
        out["line"] = diag.location.line
        out["text"] = diag.location.text
    return out


def _diag_from_json(data: Dict[str, Any]) -> Diagnostic:
    location = None
    if "line" in data:
        location = SourceLocation(line=int(data["line"]),
                                  text=str(data.get("text", "")))
    return Diagnostic(
        code=str(data["code"]), name=str(data["name"]),
        severity=Severity.parse(str(data["severity"])),
        message=str(data["message"]), subject=str(data["subject"]),
        target=str(data.get("target", "")), location=location,
    )


def _filter_pragmas(report: Report, module: SourceModule) -> None:
    if module.pragmas:
        report.diagnostics = [
            d for d in report.diagnostics
            if not module.suppressed_at(
                d.code, d.location.line if d.location else None)
        ]


# ---------------------------------------------------------------------------
# the incremental whole-program engine
# ---------------------------------------------------------------------------


class _Entry:
    """Per-module working state for one :func:`verify_source` run."""

    __slots__ = ("path", "text", "key", "name", "module", "summary",
                 "source_diags", "cached_project", "project_diags",
                 "dirty")

    def __init__(self, path: Path, text: str, key: str, name: str):
        self.path = path
        self.text = text
        self.key = key
        self.name = name
        self.module: Optional[SourceModule] = None
        self.summary: Optional[Dict[str, Any]] = None
        self.source_diags: List[Diagnostic] = []
        #: ``(facts_digest, [diag json])`` from the cache, if any.
        self.cached_project: Optional[Tuple[str, List[Dict[str, Any]]]] = None
        self.project_diags: List[Diagnostic] = []
        self.dirty = False      # needs a cache write at the end

    def ensure_parsed(self) -> SourceModule:
        if self.module is None:
            self.module = SourceModule(self.text, path=str(self.path))
        return self.module


def _analyse_cold(entry: _Entry, config: VerifyConfig) -> None:
    """Parse + summarise + source-scope lint one cache-missing module."""
    from .callgraph import summarize_module
    module = entry.ensure_parsed()
    entry.summary = summarize_module(module, entry.name)
    report = run_rules(module, "source", target_name=str(entry.path),
                       config=config)
    _filter_pragmas(report, module)
    entry.source_diags = report.diagnostics
    entry.dirty = True


def verify_source(paths: Iterable[str],
                  config: Optional[VerifyConfig] = None,
                  *,
                  cache_dir: Optional[Path] = None,
                  extra_task_refs: Iterable[str] = (),
                  project_rules: bool = True) -> Report:
    """Lint every module under ``paths``; one merged report.

    Runs the per-module ``source`` band and then the whole-program
    ``project`` bands over the assembled call graph.  Each diagnostic
    keeps its own module path as ``target``, so the merged report
    renders and serialises with correct per-file locations.

    Parameters
    ----------
    cache_dir:
        Directory for the incremental result cache; ``None`` (the
        default) disables caching.  The CLI passes
        :func:`default_lint_cache_dir`.
    extra_task_refs:
        Additional ``"module:function"`` task roots for the RV6xx band
        (the CLI seeds :func:`repro.exec.registry.task_function_refs`).
    project_rules:
        Set ``False`` to run only the per-module band (used by tools
        that lint snippets with no project context).
    """
    from .callgraph import SourceProject, ProjectModule, module_name_for

    if config is None:
        config = VerifyConfig.from_env()
    roots = [str(p) for p in paths]
    files: List[Path] = list(iter_source_files(roots))
    config_digest = config.digest() + f"|refs={sorted(extra_task_refs)!r}"

    entries: List[_Entry] = []
    for path in files:
        text = path.read_text()
        name = module_name_for(path)
        key = entry_key(text, config_digest, str(path), name)
        entries.append(_Entry(path, text, key, name))

    # 1. probe the cache; rebuild summaries/diags for hits without parsing
    cold: List[_Entry] = []
    for entry in entries:
        payload, _ = envelope.load(cache_dir, entry.key, CACHE_SCHEMA_VERSION)
        if payload is not None and isinstance(payload.get("summary"), dict):
            entry.summary = payload["summary"]
            entry.source_diags = [_diag_from_json(d)
                                  for d in payload.get("source_diags", ())]
            project = payload.get("project")
            if isinstance(project, dict):
                entry.cached_project = (
                    str(project.get("facts_digest", "")),
                    list(project.get("diags", ())))
        else:
            cold.append(entry)

    # 2. parse + summarise + source-lint the cold modules
    for entry in cold:
        _analyse_cold(entry, config)

    merged = Report(
        target=f"{', '.join(roots) or 'source'} ({len(files)} modules)")
    for entry in entries:
        merged.diagnostics.extend(entry.source_diags)

    # 3. assemble the project from summaries and run the whole-program
    #    bands on modules whose relevant facts changed
    if project_rules:
        project = SourceProject(
            [e.summary for e in entries if e.summary is not None],
            extra_task_refs=extra_task_refs)
        for entry in entries:
            if entry.summary is None:
                continue        # unreadable / unsummarisable module
            facts_digest = project.fact_digest(entry.name)
            if entry.cached_project is not None \
                    and entry.cached_project[0] == facts_digest \
                    and not entry.dirty:
                entry.project_diags = [_diag_from_json(d)
                                       for d in entry.cached_project[1]]
            else:
                module = entry.ensure_parsed()
                pm = ProjectModule(module, entry.name, entry.summary,
                                   project)
                report = run_rules(pm, "project",
                                   target_name=str(entry.path),
                                   config=config)
                _filter_pragmas(report, module)
                entry.project_diags = report.diagnostics
                entry.cached_project = (
                    facts_digest,
                    [_diag_to_json(d) for d in entry.project_diags])
                entry.dirty = True
            merged.diagnostics.extend(entry.project_diags)

    # 4. persist updated entries
    if cache_dir is not None:
        for entry in entries:
            if not entry.dirty or entry.summary is None:
                continue
            payload: Dict[str, Any] = {
                "path": str(entry.path),
                "name": entry.name,
                "summary": entry.summary,
                "source_diags": [_diag_to_json(d)
                                 for d in entry.source_diags],
            }
            if entry.cached_project is not None:
                payload["project"] = {
                    "facts_digest": entry.cached_project[0],
                    "diags": entry.cached_project[1],
                }
            envelope.store(cache_dir, entry.key, CACHE_SCHEMA_VERSION,
                           payload)

    merged.diagnostics.sort(key=Diagnostic.sort_key)
    return merged


def verify_source_text(text: str, path: str = "",
                       config: Optional[VerifyConfig] = None,
                       project_rules: bool = True) -> Report:
    """Lint one module's text: the ``source`` band plus, when the
    module parses, the ``project`` bands over a single-module project.

    Interprocedural facts are naturally thinner with one module — cross
    module findings need :func:`verify_source` — but signature checks,
    effect checks and lexical perf findings all fire, which is what
    the per-rule fixture tests exercise.
    """
    from .callgraph import SourceProject, ProjectModule, summarize_module

    if config is None:
        config = VerifyConfig.from_env()
    module = SourceModule(text, path=path)
    target = path or "<source>"
    report = run_rules(module, "source", target_name=target, config=config)
    if project_rules and module.tree is not None:
        name = Path(path).stem if path else "<module>"
        summary = summarize_module(module, name)
        project = SourceProject([summary])
        pm = ProjectModule(module, name, summary, project)
        report.extend(run_rules(pm, "project", target_name=target,
                                config=config))
    _filter_pragmas(report, module)
    return report


def verify_source_file(path, config: Optional[VerifyConfig] = None) -> Report:
    """Lint the Python module at ``path`` (see :func:`verify_source_text`)."""
    p = Path(path)
    return verify_source_text(p.read_text(), path=str(p), config=config)


def default_source_paths() -> List[str]:
    """The package's own source tree — what ``lint-source`` lints bare."""
    return [str(Path(__file__).resolve().parent.parent)]
