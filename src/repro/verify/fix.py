"""Finding-driven codemods: mechanical fixes for RV702/RV703/RV900.

The RV7xx band *inventories* the vectorization refactor's work;
this module closes the loop for the mechanical subset.  ``python -m
repro fix`` re-runs the source linter, keeps the findings a codemod
can prove safe, and rewrites them:

* **RV702** (dense allocation in a loop): a ``name = np.zeros(n)``
  style statement whose constructor arguments are loop-invariant is
  hoisted.  If ``name`` is never mutated in the loop the statement
  simply moves above it (*pure hoist*); if it is filled in place
  (``name[j] = ...``) the allocation becomes a pre-loop buffer and the
  in-loop statement becomes ``name = name_buf; name.fill(0.0)``
  (*buffer hoist*) — byte-for-byte the same values every iteration,
  zero per-iteration allocations.
* **RV703** (topology-invariant call in a loop): ``recv.elements()``
  et al. are evaluated once before the loop into a fresh local and the
  in-loop call site is replaced by that name.
* **RV900** (non-atomic durable write): a bare statement-level
  ``path.write_text(text)`` against a durable store becomes
  ``atomic_write_text(path, text)`` — the shared
  ``repro.exec.atomicio`` stage-fsync-rename helper — with the import
  inserted once per module.  ``open(..., "w")`` forms are inventoried
  but skipped: rewriting a with-block is not a span-local edit.

Everything else is *skipped with a reason* — the planner never guesses.
Edits are computed on original-file coordinates and applied
bottom-up, so a run is byte-exact and **idempotent**: once applied the
findings disappear, and a second run produces no diff.

Safety model: each fix only fires when the local proof obligations
hold (invariant arguments, no rebinding, no aliasing, no retention of
the hoisted array by non-NumPy/SciPy calls).  One documented
assumption remains — NumPy/SciPy routines the array is passed to do
not retain references (view-returning routines are blocklisted).  The
CLI therefore gates ``--apply`` behind the solver-equivalence suite
(``repro equiv run``) whenever a tier-1-relevant module was rewritten,
reverting the tree if the gate fails.
"""

from __future__ import annotations

import ast
import difflib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import callgraph, dataflow
from .core import Diagnostic, Report

#: Rule codes this engine knows how to rewrite.
FIXABLE_RULES = ("RV702", "RV703", "RV900")

#: Dense constructors a loop-allocation hoist understands.  ``arange``
#: and friends are deliberately absent: their *contents* usually depend
#: on loop state even when hoisting would parse.
_HOIST_CTORS = {"zeros": "0.0", "ones": "1.0", "empty": None, "full": ""}

#: NumPy/SciPy routines that may return a *view* of an argument; an
#: array passed to one of these must not be turned into a reused
#: buffer (a later ``fill`` would corrupt the view).
_VIEW_TAILS = frozenset({
    "ravel", "reshape", "transpose", "asarray", "asanyarray",
    "atleast_1d", "atleast_2d", "atleast_3d", "broadcast_to",
    "squeeze", "swapaxes", "moveaxis", "expand_dims", "view",
})

#: Builtins that read a value without retaining it.
_SAFE_BUILTINS = frozenset({
    "float", "int", "bool", "complex", "len", "abs", "min", "max",
    "sum", "round", "repr", "str", "print", "range", "enumerate",
    "zip", "sorted", "reversed", "any", "all", "isinstance",
})

#: Same set the RV703 rule recognises (kept in one place there).
_INVARIANT_TAILS = frozenset({"compile", "stamp_pattern", "row_labels",
                              "elements"})

#: RV703 tails whose return value survives being bound once and reused
#: across iterations in *any* context.  Everything else (notably
#: ``elements()``, which returns a one-shot iterator) is only hoistable
#: when the call is the iterable of a ``for`` statement, where a
#: ``list(...)`` wrapper materialises it safely.
_STABLE_VALUE_TAILS = frozenset({"compile", "stamp_pattern",
                                 "row_labels"})


@dataclass(frozen=True)
class Edit:
    """One textual change, in original-file coordinates.

    ``insert-before`` inserts ``text`` lines before ``line``;
    ``replace-lines`` replaces lines ``line..end_line`` (inclusive)
    with ``text``; ``replace-span`` replaces ``[col, end_col)`` on the
    single line ``line`` with ``span_text``.
    """

    kind: str
    line: int
    end_line: int = 0
    text: Tuple[str, ...] = ()
    col: int = -1
    end_col: int = -1
    span_text: str = ""


@dataclass
class FixPlan:
    """One finding's disposition: a concrete rewrite, or a reason not."""

    code: str
    path: str
    line: int
    message: str
    fixable: bool
    description: str = ""
    reason: str = ""
    edits: List[Edit] = field(default_factory=list)

    def render(self) -> str:
        verdict = self.description if self.fixable \
            else f"skipped: {self.reason}"
        return f"{self.path}:{self.line}: {self.code} — {verdict}"


def apply_edits(text: str, edits: Sequence[Edit]) -> str:
    """Apply ``edits`` (original-file coordinates) to ``text``.

    Span edits never change line numbering, so they go first; line
    edits are then applied bottom-up so earlier anchors stay valid.
    """
    trailing_newline = text.endswith("\n")
    lines = text.split("\n")
    if trailing_newline:
        lines = lines[:-1]
    for edit in [e for e in edits if e.kind == "replace-span"]:
        row = lines[edit.line - 1]
        lines[edit.line - 1] = (row[:edit.col] + edit.span_text
                                + row[edit.end_col:])
    line_edits = sorted((e for e in edits if e.kind != "replace-span"),
                        key=lambda e: e.line, reverse=True)
    for edit in line_edits:
        if edit.kind == "insert-before":
            lines[edit.line - 1:edit.line - 1] = list(edit.text)
        elif edit.kind == "replace-lines":
            lines[edit.line - 1:edit.end_line] = list(edit.text)
        else:                    # pragma: no cover - enum is closed
            raise ValueError(f"unknown edit kind {edit.kind!r}")
    out = "\n".join(lines)
    return out + "\n" if trailing_newline else out


def unified_diff(path: str, before: str, after: str) -> str:
    """Unified diff (``a/``/``b/`` prefixes) between two texts."""
    return "".join(difflib.unified_diff(
        before.splitlines(keepends=True), after.splitlines(keepends=True),
        fromfile=f"a/{path}", tofile=f"b/{path}"))


# ---------------------------------------------------------------------------
# Per-module planning context


class _ModuleCtx:
    """Parsed module plus the resolver scaffolding the planners need."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.lines = text.split("\n")
        self.tree = ast.parse(text)
        name = re.sub(r"\.py$", "", path).replace("\\", "/")
        name = re.sub(r"^.*?src/", "", name).replace("/", ".")
        self.module_name = name
        self._imports = callgraph._import_map(self.tree, name)
        self._top = callgraph._module_level_names(self.tree)
        self.functions = list(callgraph._collect_functions(self.tree))

    def resolver(self) -> "callgraph._Resolver":
        return callgraph._Resolver(self.module_name, self._imports,
                                   self._top)

    def segment(self, node: ast.AST) -> Optional[str]:
        return ast.get_source_segment(self.text, node)

    def find(self, line: int, kinds) -> Iterable[Tuple[ast.AST, tuple,
                                                       ast.AST, str]]:
        """``(node, enclosing_loops, func, class_ctx)`` at ``line``."""
        for _qual, class_ctx, func in self.functions:
            for node, loops in callgraph.body_nodes(func):
                if isinstance(node, kinds) \
                        and getattr(node, "lineno", None) == line:
                    yield node, loops, func, class_ctx

    def indent_of(self, node: ast.AST) -> Optional[str]:
        """Leading whitespace of the statement's first line — ``None``
        when the statement does not start the line (one-liner suites
        are not safe insertion anchors)."""
        row = self.lines[node.lineno - 1]
        prefix = row[:node.col_offset]
        return prefix if prefix.strip() == "" else None

    def fresh_name(self, func: ast.AST, stem: str) -> str:
        taken = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
        taken |= {a.arg for a in ast.walk(func)
                  if isinstance(a, ast.arg)}
        name = stem
        bump = 2
        while name in taken:
            name = f"{stem}{bump}"
            bump += 1
        return name


def _stored_names(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _loaded_names(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


# ---------------------------------------------------------------------------
# RV702: hoist a loop-invariant dense allocation


def _retention_reason(ctx: _ModuleCtx, loop: ast.AST, name: str,
                      alloc: ast.Assign,
                      resolver: "callgraph._Resolver",
                      class_ctx: str) -> Optional[str]:
    """Why ``name`` cannot become a reused pre-loop buffer, if any."""
    for node in ast.walk(loop):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = getattr(node, "value", None)
            if value is not None and name in _loaded_names(value):
                return f"{name} escapes the loop via return/yield"
        if isinstance(node, ast.Assign) and node is not alloc:
            if any(_is_name(t, name) for t in node.targets):
                return f"{name} is rebound elsewhere in the loop"
            if _is_name(node.value, name):
                return f"{name} is aliased inside the loop"
            for target in node.targets:
                if not isinstance(target, ast.Name) \
                        and name in _loaded_names(node.value):
                    return (f"{name} is stored into a container or "
                            "attribute inside the loop")
        if isinstance(node, ast.Call):
            args = list(node.args) + [kw.value for kw in node.keywords]
            if not any(_is_name(a, name) for a in args):
                continue
            dotted = dataflow._call_target(node)
            tail = dotted.rsplit(".", 1)[-1] if dotted else ""
            if tail in _VIEW_TAILS:
                return (f"{name} is passed to {tail}(), which may "
                        "return a view of it")
            if tail in _SAFE_BUILTINS:
                continue
            resolved = resolver.resolve(dotted, class_ctx) \
                if dotted else None
            if not (resolved or "").startswith(("numpy.", "scipy.")):
                return (f"{name} is passed to "
                        f"{dotted or 'a call'}(), which may retain it")
    return None


def _fill_value(ctx: _ModuleCtx, call: ast.Call,
                tail: str) -> Tuple[bool, Optional[str]]:
    """``(ok, fill source or None)`` — ``None`` means no fill needed."""
    spec = _HOIST_CTORS[tail]
    if spec is None:
        return True, None                         # empty: garbage anyway
    if spec:
        return True, spec                         # zeros / ones
    if len(call.args) >= 2:                       # full(shape, value)
        return True, ctx.segment(call.args[1])
    for kw in call.keywords:
        if kw.arg == "fill_value":
            return True, ctx.segment(kw.value)
    return False, None


def _mutated_in(loop: ast.AST, name: str) -> bool:
    """True when ``name[...]`` is written to anywhere in ``loop``."""
    for sub in ast.walk(loop):
        targets = []
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        for target in targets:
            if isinstance(target, ast.Subscript) \
                    and _is_name(target.value, name):
                return True
        if isinstance(sub, ast.Call) \
                and isinstance(sub.func, ast.Attribute) \
                and _is_name(sub.func.value, name) \
                and sub.func.attr in ("fill", "sort", "resize", "put",
                                      "setfield", "itemset"):
            return True
    return False


def _plan_rv702(ctx: _ModuleCtx, diag: Diagnostic) -> FixPlan:
    line = diag.location.line
    plan = FixPlan(code="RV702", path=ctx.path, line=line,
                   message=diag.message, fixable=False)
    if diag.message.startswith("loop calls"):
        plan.reason = ("the allocation lives in a callee; hoist it "
                       "there or thread a buffer through the call")
        return plan
    hit = None
    for node, loops, func, class_ctx in ctx.find(line, ast.Assign):
        if loops and isinstance(node.value, ast.Call):
            hit = (node, loops, func, class_ctx)
            break
    if hit is None:
        plan.reason = ("allocation is not a simple "
                       "`name = ctor(...)` statement")
        return plan
    node, loops, func, class_ctx = hit
    call = node.value
    dotted = dataflow._call_target(call) or ""
    tail = dotted.rsplit(".", 1)[-1]
    if tail not in _HOIST_CTORS:
        plan.reason = (f"{tail}() is not a mechanically hoistable "
                       "constructor (zeros/ones/empty/full)")
        return plan
    if len(node.targets) != 1 \
            or not isinstance(node.targets[0], ast.Name):
        plan.reason = "allocation target is not a single local name"
        return plan
    name = node.targets[0].id
    loop = loops[-1]
    loop_stores = _stored_names(loop)
    varying = sorted(_loaded_names(call) & loop_stores)
    if varying:
        plan.reason = ("constructor arguments depend on loop-varying "
                       + "/".join(varying))
        return plan
    indent = ctx.indent_of(loop)
    stmt_indent = ctx.indent_of(node)
    if indent is None or stmt_indent is None:
        plan.reason = "loop or allocation shares its line (one-liner)"
        return plan
    ctor_src = ctx.segment(call)
    if ctor_src is None or node.lineno != getattr(node, "end_lineno",
                                                  node.lineno):
        plan.reason = "allocation statement spans multiple lines"
        return plan
    resolver = ctx.resolver()
    target_node = node.targets[0]
    rebound = any(
        n is not target_node and isinstance(n, ast.Name)
        and n.id == name and isinstance(n.ctx, ast.Store)
        for n in ast.walk(loop))
    if not _mutated_in(loop, name) and not rebound:
        # Pure hoist: the array is read-only in the loop — the very
        # same object can simply be built once, above it.
        plan.fixable = True
        plan.description = (f"hoist `{name} = {ctor_src}` above the "
                            f"loop at line {loop.lineno} (read-only in "
                            "the loop)")
        plan.edits = [
            Edit(kind="insert-before", line=loop.lineno,
                 text=(f"{indent}{name} = {ctor_src}",)),
            Edit(kind="replace-lines", line=node.lineno,
                 end_line=node.lineno, text=()),
        ]
        return plan
    reason = _retention_reason(ctx, loop, name, node, resolver,
                               class_ctx)
    if reason is not None:
        plan.reason = reason
        return plan
    ok, fill = _fill_value(ctx, call, tail)
    if not ok:
        plan.reason = "cannot determine the fill value"
        return plan
    buf = ctx.fresh_name(func, f"{name}_buf")
    body = [f"{stmt_indent}{name} = {buf}"]
    if fill is not None:
        body.append(f"{stmt_indent}{name}.fill({fill})")
    plan.fixable = True
    plan.description = (f"preallocate `{buf} = {ctor_src}` above the "
                        f"loop at line {loop.lineno}; reset it in "
                        "place each iteration")
    plan.edits = [
        Edit(kind="insert-before", line=loop.lineno,
             text=(f"{indent}{buf} = {ctor_src}",)),
        Edit(kind="replace-lines", line=node.lineno,
             end_line=node.lineno, text=tuple(body)),
    ]
    return plan


# ---------------------------------------------------------------------------
# RV703: hoist a topology-invariant call out of the loop


def _plan_rv703(ctx: _ModuleCtx, diag: Diagnostic) -> FixPlan:
    line = diag.location.line
    plan = FixPlan(code="RV703", path=ctx.path, line=line,
                   message=diag.message, fixable=False)
    hit = None
    for node, loops, func, class_ctx in ctx.find(line, ast.Call):
        if loops and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _INVARIANT_TAILS:
            hit = (node, loops, func)
            break
    if hit is None:
        plan.reason = "no invariant call found at the reported line"
        return plan
    node, loops, func = hit
    tail = node.func.attr
    if node.args or node.keywords:
        plan.reason = f".{tail}() call has arguments"
        return plan
    recv = node.func.value
    probe = recv
    while isinstance(probe, ast.Attribute):
        probe = probe.value
    if not isinstance(probe, ast.Name):
        plan.reason = "receiver is not a simple name or dotted name"
        return plan
    loop = loops[-1]
    if probe.id in _stored_names(loop):
        plan.reason = (f"receiver {probe.id} is reassigned inside "
                       "the loop")
        return plan
    indent = ctx.indent_of(loop)
    if indent is None:
        plan.reason = "loop shares its line (one-liner)"
        return plan
    if node.lineno != getattr(node, "end_lineno", node.lineno):
        plan.reason = "call spans multiple lines"
        return plan
    # A hoisted value is consumed N times instead of once, so the call
    # must either be the iterable of a ``for`` statement (materialise
    # with ``list(...)`` — exhaustible iterators like ``elements()``
    # stay correct) or come from a tail known to return a stable value.
    for_stmt = next((f for f in ast.walk(func)
                     if isinstance(f, ast.For) and f.iter is node), None)
    if for_stmt is None and tail not in _STABLE_VALUE_TAILS:
        plan.reason = (f".{tail}() may return a one-shot iterator; "
                       "only hoistable as a for-loop iterable")
        return plan
    recv_src = ctx.segment(recv)
    call_src = f"{recv_src}.{tail}()"
    hoist_src = f"list({call_src})" if for_stmt is not None else call_src
    stem = re.sub(r"\W+", "_", recv_src or probe.id) + f"_{tail}"
    fresh = ctx.fresh_name(func, stem)
    plan.fixable = True
    plan.description = (f"evaluate `{fresh} = {hoist_src}` "
                        f"once above the loop at line {loop.lineno}")
    plan.edits = [
        Edit(kind="insert-before", line=loop.lineno,
             text=(f"{indent}{fresh} = {hoist_src}",)),
        Edit(kind="replace-span", line=node.lineno,
             col=node.col_offset, end_col=node.end_col_offset,
             span_text=fresh),
    ]
    return plan


# ---------------------------------------------------------------------------
# RV900: bare durable write_text to the shared atomic-write helper


_ATOMIC_IMPORT = "from repro.exec.atomicio import atomic_write_text"


def _has_atomic_import(ctx: _ModuleCtx) -> bool:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").endswith("exec.atomicio") \
                and any(a.name == "atomic_write_text"
                        for a in node.names):
            return True
    return False


def _import_anchor(ctx: _ModuleCtx) -> Tuple[int, str]:
    """``(line, indent)`` where a module-level import can be inserted.

    After the last top-level import when there is one (the idiomatic
    spot), else before the first non-docstring statement.
    """
    last_import = None
    for node in ctx.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            last_import = node
    if last_import is not None:
        end = getattr(last_import, "end_lineno", last_import.lineno)
        return end + 1, ""
    for node in ctx.tree.body:
        if isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue                              # module docstring
        return node.lineno, ""
    return 1, ""


def _plan_rv900(ctx: _ModuleCtx, diag: Diagnostic) -> FixPlan:
    line = diag.location.line
    plan = FixPlan(code="RV900", path=ctx.path, line=line,
                   message=diag.message, fixable=False)
    hit = None
    for node, _loops, _func, _cls in ctx.find(line, ast.Expr):
        call = node.value
        if isinstance(call, ast.Call) \
                and isinstance(call.func, ast.Attribute) \
                and call.func.attr == "write_text":
            hit = (node, call)
            break
    if hit is None:
        plan.reason = ("write is not a bare statement-level "
                       "`path.write_text(...)` (open()-based writers "
                       "need a structural rewrite)")
        return plan
    node, call = hit
    if node.lineno != getattr(node, "end_lineno", node.lineno):
        plan.reason = "statement spans multiple lines"
        return plan
    if len(call.args) not in (1, 2):
        plan.reason = "write_text call has an unexpected arity"
        return plan
    if any(kw.arg not in ("encoding",) for kw in call.keywords):
        plan.reason = ("write_text keywords beyond `encoding` have no "
                       "atomic_write_text equivalent")
        return plan
    recv = ctx.segment(call.func.value)
    text_src = ctx.segment(call.args[0])
    if recv is None or text_src is None:
        plan.reason = "cannot recover source text for the call"
        return plan
    pieces = [recv, text_src]
    if len(call.args) == 2:                       # write_text(t, enc)
        enc = ctx.segment(call.args[1])
        pieces.append(f"encoding={enc}")
    for kw in call.keywords:
        pieces.append(f"encoding={ctx.segment(kw.value)}")
    rewritten = f"atomic_write_text({', '.join(pieces)})"
    plan.fixable = True
    plan.description = (f"rewrite to `{rewritten}` (stage + fsync + "
                        "rename via repro.exec.atomicio)")
    plan.edits = [
        Edit(kind="replace-span", line=call.lineno,
             col=call.col_offset, end_col=call.end_col_offset,
             span_text=rewritten),
    ]
    if not _has_atomic_import(ctx):
        anchor, indent = _import_anchor(ctx)
        plan.edits.append(
            Edit(kind="insert-before", line=anchor,
                 text=(f"{indent}{_ATOMIC_IMPORT}",)))
    return plan


# ---------------------------------------------------------------------------
# Driver


_PLANNERS = {"RV702": _plan_rv702, "RV703": _plan_rv703,
             "RV900": _plan_rv900}


def plan_fixes(report: Report,
               rules: Optional[Iterable[str]] = None) -> List[FixPlan]:
    """Turn a lint report into per-finding fix plans.

    Only :data:`FIXABLE_RULES` are considered (optionally narrowed by
    ``rules``); every matching finding yields exactly one
    :class:`FixPlan` — fixable with edits, or skipped with a reason.
    Findings without a source location (or whose file cannot be
    re-parsed) are skipped, never guessed at.
    """
    wanted = set(rules) if rules is not None else set(FIXABLE_RULES)
    wanted &= set(FIXABLE_RULES)
    per_file: Dict[str, List[Diagnostic]] = {}
    for diag in report.diagnostics:
        if diag.code in wanted and diag.location is not None \
                and diag.target:
            per_file.setdefault(diag.target, []).append(diag)
    plans: List[FixPlan] = []
    for path in sorted(per_file):
        try:
            ctx = _ModuleCtx(path, open(path, encoding="utf-8").read())
        except (OSError, SyntaxError) as err:
            for diag in per_file[path]:
                plans.append(FixPlan(
                    code=diag.code, path=path, line=diag.location.line,
                    message=diag.message, fixable=False,
                    reason=f"cannot re-analyse module: {err}"))
            continue
        for diag in sorted(per_file[path],
                           key=lambda d: (d.location.line, d.code)):
            plans.append(_PLANNERS[diag.code](ctx, diag))
    return _dedupe_inserts(plans)


def _dedupe_inserts(plans: List[FixPlan]) -> List[FixPlan]:
    """Drop byte-identical insert-before edits across plans.

    Two findings in one loop can both hoist the same invariant line
    (e.g. the same ``recv.elements()`` flagged twice); keeping one
    insertion keeps the rewrite idempotent and collision-free.
    """
    seen: Set[Tuple[str, int, Tuple[str, ...]]] = set()
    for plan in plans:
        kept = []
        for edit in plan.edits:
            if edit.kind == "insert-before":
                key = (plan.path, edit.line, edit.text)
                if key in seen:
                    continue
                seen.add(key)
            kept.append(edit)
        plan.edits = kept
    return plans


def rewritten_texts(plans: Sequence[FixPlan]) -> Dict[str, Tuple[str,
                                                                 str]]:
    """``{path: (before, after)}`` for every path a plan changes."""
    per_file: Dict[str, List[Edit]] = {}
    for plan in plans:
        if plan.fixable:
            per_file.setdefault(plan.path, []).extend(plan.edits)
    out: Dict[str, Tuple[str, str]] = {}
    for path, edits in sorted(per_file.items()):
        before = open(path, encoding="utf-8").read()
        after = apply_edits(before, edits)
        if after != before:
            out[path] = (before, after)
    return out
