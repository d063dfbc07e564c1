"""Project symbol table, module summaries and the call graph.

This is the interprocedural substrate under the RV6xx/RV7xx/RV9xx rule
bands.  It has two halves with a deliberate seam between them:

* :func:`summarize_module` distils one parsed :class:`SourceModule`
  into a **module summary** — imports, the functions it defines, every
  call they make (with loop context), their purity atoms and effect
  signatures, and any ``"module:function"`` task references.
  Summaries are plain JSON, which is what makes the incremental lint
  cache work: a warm run rebuilds the whole project view from cached
  summaries without touching a single AST;
* :class:`SourceProject` assembles the summaries of every module into a
  symbol table and call graph, then computes the **project facts** the
  rule bands consume: task-root reachability with call chains (purity)
  and called-from-loop context (perf).  Per-module *fact slices* are
  content-hashed so the cache can tell "this module's findings are
  stale because a callee changed" from "nothing this module depends on
  moved" — dependency-aware invalidation through the call graph.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Set,
                    Tuple)

from . import effects as effects_mod

if TYPE_CHECKING:  # a runtime import would be circular: source.py
    from .source import SourceModule  # builds projects out of this module

#: Summary format version; bump to invalidate every cached summary.
#: v2: per-function ``shape_returns`` (array-shape exprs for the RV8xx
#: band) and ``nonloop_allocs`` (dense allocations outside any loop,
#: consumed by the caller-side RV702 attribution).
#: v3: per-function ``effects`` (filesystem/queue/process effect
#: signatures) and ``global_reads`` (module data read under spawn) for
#: the RV9xx band.
#: v4: per-function ``shape_returns`` dropped with the RV8xx band.
#: v5: ``returns``/``annotations`` dropped with the RV5xx band; relative
#: imports in a package ``__init__`` resolve against the package itself.
SUMMARY_SCHEMA = 5

#: Dense-array constructors (numpy/scipy dotted tails); shared by the
#: RV7xx band and the summary extractor.
DENSE_ALLOC_TAILS = frozenset({
    "zeros", "ones", "empty", "full", "eye", "identity", "arange",
    "linspace", "zeros_like", "ones_like", "empty_like", "full_like",
    "diag", "vander", "meshgrid",
})

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)


def body_nodes(func: ast.FunctionDef):
    """Yield ``(node, enclosing_loops)`` over a function's own body.

    ``enclosing_loops`` is the tuple of loop statements whose *bodies*
    lexically contain the node — which is a per-iteration notion, not a
    purely lexical one: a ``for`` statement's iterable and target
    evaluate once per loop *entry*, so they belong to the enclosing
    context, while a ``while`` condition re-evaluates every iteration
    and belongs to its own loop.  Nested function/class definitions
    are skipped (they are analysed as their own functions).
    """
    def visit(node: ast.AST, loops: tuple):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            if isinstance(child, (ast.For, ast.AsyncFor)):
                yield child, loops
                for once in (child.target, child.iter):
                    yield once, loops
                    yield from visit(once, loops)
                inner = loops + (child,)
                for stmt in child.body + child.orelse:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                        continue
                    yield stmt, inner
                    yield from visit(stmt, inner)
            elif isinstance(child, ast.While):
                yield child, loops
                inner = loops + (child,)
                yield child.test, inner
                yield from visit(child.test, inner)
                for stmt in child.body + child.orelse:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                        continue
                    yield stmt, inner
                    yield from visit(stmt, inner)
            else:
                yield child, loops
                yield from visit(child, loops)

    yield from visit(func, ())


def loop_target_names(loops) -> Set[str]:
    """Names bound by the targets of the given enclosing loops."""
    names: Set[str] = set()
    for loop in loops:
        target = getattr(loop, "target", None)
        if target is not None:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names

#: ``"module:function"`` task references (the campaign contract).
TASK_REF_RE = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+"
    r":[A-Za-z_][A-Za-z0-9_]*$"
)

# ---------------------------------------------------------------------------
# purity atom tables
# ---------------------------------------------------------------------------

#: Container methods that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "sort",
})

#: Module-level ``random`` functions drawing from the global generator.
_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "choice", "choices", "shuffle", "sample", "betavariate", "expovariate",
    "seed", "triangular", "vonmisesvariate",
})

#: Legacy ``numpy.random`` module functions (global RandomState).
_NP_RANDOM_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "normal",
    "uniform", "choice", "shuffle", "permutation", "seed", "standard_normal",
    "exponential", "poisson",
})

#: Wall-clock reads (``time.sleep`` deliberately excluded — it delays,
#: it does not leak nondeterminism into results).
_CLOCK_FNS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: Filesystem-writing callables by resolved dotted name.
_FS_FNS = frozenset({
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.makedirs",
    "os.mkdir", "os.rmdir", "os.removedirs", "os.symlink", "os.truncate",
    "shutil.copy", "shutil.copy2", "shutil.copyfile", "shutil.copytree",
    "shutil.move", "shutil.rmtree",
    "tempfile.mkstemp", "tempfile.mkdtemp", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryDirectory",
})

#: ``pathlib.Path`` (and file-like) methods that write to disk.
_PATH_WRITERS = frozenset({
    "write_text", "write_bytes", "mkdir", "unlink", "rmdir", "touch",
    "rename", "replace", "symlink_to", "hardlink_to",
})


def module_name_for(path: "str | Path") -> str:
    """Dotted module name of a file, walking ``__init__.py`` packages up.

    ``src/repro/pg/energy.py`` -> ``repro.pg.energy``; a loose file (no
    enclosing package) is just its stem.
    """
    p = Path(path)
    parts: List[str] = [] if p.name == "__init__.py" else [p.stem]
    directory = p.parent
    while (directory / "__init__.py").exists():
        parts.append(directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(reversed(parts)) or p.stem


# ---------------------------------------------------------------------------
# summary extraction
# ---------------------------------------------------------------------------


def call_target(node: ast.Call) -> Optional[str]:
    """Dotted name (``a.b.c``) of a call's callee, or None when computed."""
    parts: List[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return None


def _import_map(tree: ast.Module, modname: str,
                is_package: bool) -> Dict[str, str]:
    """Local alias -> fully dotted target for every top-level import.

    ``modname`` names a package ``__init__`` after the package itself
    (see :func:`module_name_for`), so there ``is_package`` makes a level-1
    relative import resolve against ``modname`` rather than its parent.
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    out[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = modname.split(".")
                # level 1 = the containing package, each extra level one up.
                cut = node.level - 1 if is_package else node.level
                base_parts = base_parts[:-cut] if cut else base_parts
                base = ".".join(base_parts)
            else:
                base = node.module or ""
            prefix = (f"{base}.{node.module}" if node.level and node.module
                      else (base if node.level else node.module or ""))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = (f"{prefix}.{alias.name}"
                              if prefix else alias.name)
    return out


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound at module top level (assignment targets and defs)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return names


class _Resolver:
    """Resolves local dotted names to project-global dotted names."""

    def __init__(self, modname: str, imports: Dict[str, str],
                 top_names: Set[str]):
        self.modname = modname
        self.imports = imports
        self.top_names = top_names

    def resolve(self, dotted: str, class_ctx: str = "") -> Optional[str]:
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls"):
            if class_ctx and rest:
                return f"{self.modname}.{class_ctx}.{rest}"
            return None
        if head in self.imports:
            target = self.imports[head]
            return f"{target}.{rest}" if rest else target
        if head in self.top_names:
            return f"{self.modname}.{dotted}"
        return dotted if "." in dotted else None


def _collect_functions(tree: ast.Module) -> List[Tuple[str, str,
                                                       ast.FunctionDef]]:
    """(qualname, enclosing class, node) for every function/method."""
    out: List[Tuple[str, str, ast.FunctionDef]] = []

    def visit(node: ast.AST, prefix: str, class_ctx: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                out.append((qual, class_ctx, child))
                visit(child, qual, class_ctx)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                visit(child, qual, child.name if not class_ctx else qual)

    visit(tree, "", "")
    return out


class _CallCollector(ast.NodeVisitor):
    """Call sites of one function body, with loop-nesting context."""

    def __init__(self) -> None:
        self.calls: List[Tuple[str, int, bool]] = []
        self._loop_depth = 0

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _visit_loop(self, node) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_FunctionDef(self, node) -> None:
        pass                        # nested functions summarised separately

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        dotted = call_target(node)
        if dotted is not None:
            self.calls.append((dotted, node.lineno, self._loop_depth > 0))
        self.generic_visit(node)


class _AtomCollector:
    """Purity atoms of one function body (for the RV6xx band)."""

    def __init__(self, func: ast.FunctionDef, resolver: _Resolver,
                 class_ctx: str):
        self.resolver = resolver
        self.class_ctx = class_ctx
        self.atoms: List[Tuple[str, str, int]] = []   # (kind, what, line)
        self.locals: Set[str] = set()
        self.globals_declared: Set[str] = set()
        self._collect_locals(func)
        self._scan(func)

    def _collect_locals(self, func: ast.FunctionDef) -> None:
        args = func.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            self.locals.add(arg.arg)
        if args.vararg:
            self.locals.add(args.vararg.arg)
        if args.kwarg:
            self.locals.add(args.kwarg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    # Only Store-context names bind: in SEEN[k] = v the
                    # container SEEN is a *load* of module state, not a
                    # new local.
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) \
                                and isinstance(sub.ctx, ast.Store):
                            self.locals.add(sub.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        self.locals.add(sub.id)
            elif isinstance(node, ast.withitem) and node.optional_vars:
                for sub in ast.walk(node.optional_vars):
                    if isinstance(sub, ast.Name):
                        self.locals.add(sub.id)
            elif isinstance(node, ast.comprehension):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        self.locals.add(sub.id)
        self.locals -= self.globals_declared

    def _is_module_state(self, name: str) -> bool:
        return ((name in self.resolver.top_names
                 or name in self.resolver.imports)
                and name not in self.locals)

    def _scan(self, func: ast.FunctionDef) -> None:
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    self._scan_target(target, node.lineno)
            elif isinstance(node, ast.Call):
                self._scan_call(node)

    def _scan_target(self, target: ast.AST, lineno: int) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self.atoms.append(("global_write", target.id, lineno))
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls"):
                    return
                if self._is_module_state(base.id):
                    self.atoms.append(("module_mutation", base.id, lineno))
                elif (isinstance(base, ast.Name) and base.id == "globals"):
                    self.atoms.append(("global_write", "globals()", lineno))
            elif (isinstance(base, ast.Call)
                  and isinstance(base.func, ast.Name)
                  and base.func.id == "globals"):
                self.atoms.append(("global_write", "globals()", lineno))

    def _scan_call(self, node: ast.Call) -> None:
        dotted = call_target(node)
        if dotted is None:
            # No dotted name means a computed receiver —
            # Path("x").write_text(...) style.  The writer-method name
            # alone is enough to classify the filesystem write.
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _PATH_WRITERS:
                self.atoms.append(
                    ("fs_write", f"(...).{node.func.attr}", node.lineno))
            return
        lineno = node.lineno
        head, _, _rest = dotted.partition(".")
        tail = dotted.rsplit(".", 1)[-1]

        # in-place mutation of module-level containers / registries
        if ("." in dotted and tail in _MUTATORS
                and self._is_module_state(head)):
            self.atoms.append(("module_mutation", dotted, lineno))

        resolved = self.resolver.resolve(dotted, self.class_ctx) or dotted

        if resolved.startswith("random.") and tail in _RANDOM_FNS:
            self.atoms.append(("nondet", resolved, lineno))
        elif ".random." in resolved or resolved.startswith("numpy.random"):
            np_tail = resolved.rsplit(".", 1)[-1]
            if np_tail in _NP_RANDOM_FNS:
                self.atoms.append(("nondet", resolved, lineno))
            elif np_tail == "default_rng" and not node.args \
                    and not node.keywords:
                self.atoms.append(
                    ("nondet", f"{resolved}() without a seed", lineno))
        elif resolved in _CLOCK_FNS:
            self.atoms.append(("clock", resolved, lineno))
        elif resolved in _FS_FNS:
            self.atoms.append(("fs_write", resolved, lineno))
        elif tail in _PATH_WRITERS and "." in dotted:
            self.atoms.append(("fs_write", dotted, lineno))
        elif tail == "open" or dotted == "open":
            mode = self._open_mode(node)
            if mode and any(flag in mode for flag in "wax+"):
                self.atoms.append(
                    ("fs_write", f"open(..., {mode!r})", lineno))

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value,
                                                    ast.Constant):
                return str(keyword.value.value)
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            return node.args[1].value
        return None


def _json_safe_default(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (str, int, float, bool, type(None)))
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return all(_json_safe_default(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return (all(k is not None and _json_safe_default(k)
                    for k in node.keys)
                and all(_json_safe_default(v) for v in node.values))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        return _json_safe_default(node.operand)
    return False


def _signature_info(func: ast.FunctionDef) -> Dict[str, object]:
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    names = [a.arg for a in positional if a.arg not in ("self", "cls")]
    n_defaults = len(args.defaults)
    required = len(names) - min(n_defaults, len(names))
    bad_defaults: List[Tuple[str, int, str]] = []
    defaulted = positional[len(positional) - n_defaults:]
    for arg, default in zip(defaulted, args.defaults):
        if not _json_safe_default(default):
            bad_defaults.append((arg.arg, default.lineno,
                                 ast.unparse(default)))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not _json_safe_default(default):
            bad_defaults.append((arg.arg, default.lineno,
                                 ast.unparse(default)))
    return {
        "params": names,
        "required": required,
        "vararg": args.vararg is not None,
        "kwarg": args.kwarg is not None,
        "kwonly_required": [a.arg for a, d in zip(args.kwonlyargs,
                                                  args.kw_defaults)
                            if d is None],
        "bad_defaults": bad_defaults,
    }


def _task_refs(module: SourceModule) -> List[Tuple[str, int]]:
    """Every ``"module:function"`` string literal in the module."""
    if module.tree is None:
        return []
    refs: List[Tuple[str, int]] = []
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and TASK_REF_RE.match(node.value)):
            refs.append((node.value, node.lineno))
    return refs


def summarize_module(module: SourceModule, modname: str) -> Dict[str, object]:
    """Distil one parsed module into its serialisable project summary."""
    summary: Dict[str, object] = {
        "schema": SUMMARY_SCHEMA,
        "name": modname,
        "path": module.path,
        "functions": {},
        "task_refs": [],
        "imports": {},
    }
    if module.tree is None:
        return summary
    imports = _import_map(module.tree, modname,
                          Path(module.path).name == "__init__.py")
    top_names = _module_level_names(module.tree)
    resolver = _Resolver(modname, imports, top_names)
    summary["imports"] = imports
    summary["task_refs"] = [[ref, line] for ref, line
                            in _task_refs(module)]
    mod_token = effects_mod.module_token(modname)
    data_names = effects_mod.module_data_names(module.tree)

    functions: Dict[str, Dict[str, object]] = {}
    for qual, class_ctx, func in _collect_functions(module.tree):
        collector = _CallCollector()
        for stmt in func.body:
            collector.visit(stmt)
        calls = []
        for dotted, line, in_loop in collector.calls:
            resolved = resolver.resolve(dotted, class_ctx)
            calls.append([resolved or dotted, line, in_loop])

        atoms = _AtomCollector(func, resolver, class_ctx)
        eff = effects_mod.EffectCollector(
            func, resolver, class_ctx, mod_token, data_names,
            atoms.locals | atoms.globals_declared)
        functions[qual] = {
            "line": func.lineno,
            "calls": calls,
            "nonloop_allocs": _nonloop_allocs(func, resolver, class_ctx),
            "atoms": [[k, w, ln] for k, w, ln in atoms.atoms],
            "effects": eff.atoms,
            "global_reads": eff.global_reads,
            "signature": _signature_info(func),
        }
    summary["functions"] = functions
    return summary


def _nonloop_allocs(func: ast.FunctionDef, resolver: _Resolver,
                    class_ctx: str) -> List[List[object]]:
    """Dense numpy/scipy allocations outside any loop: ``[[tail, line]]``.

    These are harmless where they sit — but a *caller* invoking this
    function from a loop turns each into a per-iteration allocation,
    which is what the caller-side RV702 attribution reports.
    """
    out: List[List[object]] = []
    for node, loops in body_nodes(func):
        if loops or not isinstance(node, ast.Call):
            continue
        dotted = call_target(node)
        if dotted is None:
            continue
        tail = dotted.rsplit(".", 1)[-1]
        if tail not in DENSE_ALLOC_TAILS:
            continue
        resolved = resolver.resolve(dotted, class_ctx) or ""
        if resolved.startswith("numpy.") or resolved.startswith("scipy."):
            out.append([tail, node.lineno])
    return out[:16]


# ---------------------------------------------------------------------------
# the assembled project
# ---------------------------------------------------------------------------


def _stable_digest(value: object) -> str:
    blob = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class SourceProject:
    """Symbol table, call graph and interprocedural facts for one tree."""

    def __init__(self, summaries: Iterable[Dict[str, object]],
                 extra_task_refs: Iterable[str] = ()):
        self.modules: Dict[str, Dict[str, object]] = {}
        for summary in summaries:
            self.modules[str(summary["name"])] = summary
        #: fid ("mod:qual") -> function summary dict
        self.functions: Dict[str, Dict[str, object]] = {}
        #: global dotted name ("mod.qual") -> fid
        self._by_dotted: Dict[str, str] = {}
        for modname, summary in self.modules.items():
            for qual, info in summary.get("functions", {}).items():  # type: ignore[union-attr]
                fid = f"{modname}:{qual}"
                self.functions[fid] = info
                self._by_dotted[f"{modname}.{qual}"] = fid
        self._resolve_cache: Dict[str, Optional[str]] = {}
        self.callees: Dict[str, List[Tuple[str, int, bool]]] = {}
        self._build_edges()
        self.task_roots: Dict[str, List[Tuple[str, str, int]]] = {}
        self.unresolved_refs: Dict[str, List[Tuple[str, int]]] = {}
        self._collect_roots(extra_task_refs)
        self.reach: Dict[str, Dict[str, str]] = {}
        self._reachability()
        self.loop_called: Dict[str, Tuple[str, int]] = {}
        self._loop_context()

    # -- symbol resolution ------------------------------------------------
    def module_of(self, fid: str) -> str:
        return fid.partition(":")[0]

    def resolve_dotted(self, dotted: str,
                       _depth: int = 0) -> Optional[str]:
        """Resolve a global dotted name to a function id, or None.

        Follows package re-exports (``from .source import verify_source``
        in an ``__init__``) a bounded number of hops.
        """
        if dotted in self._resolve_cache:
            return self._resolve_cache[dotted]
        self._resolve_cache[dotted] = None       # cycle guard
        result = self._resolve_uncached(dotted, _depth)
        self._resolve_cache[dotted] = result
        return result

    def _resolve_uncached(self, dotted: str,
                          _depth: int) -> Optional[str]:
        if _depth > 5:
            return None
        fid = self._by_dotted.get(dotted)
        if fid is not None:
            return fid
        # split into the longest module prefix + remainder
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            summary = self.modules.get(mod)
            if summary is None:
                continue
            rest = parts[cut:]
            imports = summary.get("imports", {})
            head = rest[0]
            if head in imports:                   # re-export: follow it
                target = imports[head]            # type: ignore[index]
                tail = ".".join(rest[1:])
                full = f"{target}.{tail}" if tail else str(target)
                return self.resolve_dotted(full, _depth + 1)
            candidate = f"{mod}:{'.'.join(rest)}"
            if candidate in self.functions:
                return candidate
            return None
        return None

    # -- graph ------------------------------------------------------------
    def _build_edges(self) -> None:
        for fid, info in self.functions.items():
            edges: List[Tuple[str, int, bool]] = []
            for call in info.get("calls", ()):    # type: ignore[union-attr]
                target, line, in_loop = call[0], int(call[1]), bool(call[2])
                resolved = self.resolve_dotted(str(target))
                if resolved is not None:
                    edges.append((resolved, line, in_loop))
            self.callees[fid] = edges

    def internal_callees(self, fid: str) -> List[str]:
        return sorted({target for target, _line, _loop
                       in self.callees.get(fid, ())})

    # -- purity facts -----------------------------------------------------
    def _collect_roots(self, extra_task_refs: Iterable[str]) -> None:
        refs: Dict[str, List[Tuple[str, str, int]]] = {}
        for modname, summary in self.modules.items():
            for ref, line in summary.get("task_refs", ()):  # type: ignore[union-attr]
                mod, _, fn = str(ref).partition(":")
                if mod not in self.modules:
                    continue                      # external reference
                fid = f"{mod}:{fn}"
                if fid in self.functions:
                    refs.setdefault(fid, []).append(
                        (str(ref), modname, int(line)))
                else:
                    self.unresolved_refs.setdefault(modname, []).append(
                        (str(ref), int(line)))
        for ref in extra_task_refs:
            mod, _, fn = str(ref).partition(":")
            fid = f"{mod}:{fn}"
            if mod in self.modules and fid in self.functions:
                refs.setdefault(fid, []).append((str(ref), mod, 0))
        self.task_roots = refs

    def _reachability(self) -> None:
        reach: Dict[str, Dict[str, str]] = {}
        for root in sorted(self.task_roots):
            chains: Dict[str, str] = {root: root.rsplit(":", 1)[-1]}
            queue = [root]
            while queue:
                current = queue.pop(0)
                for target in self.internal_callees(current):
                    if target in chains:
                        continue
                    chains[target] = (f"{chains[current]} -> "
                                      f"{target.rsplit(':', 1)[-1]}")
                    queue.append(target)
            for fid, chain in chains.items():
                reach.setdefault(fid, {})[root] = chain
        self.reach = reach

    # -- perf facts -------------------------------------------------------
    def _loop_context(self) -> None:
        out: Dict[str, Tuple[str, int]] = {}
        for fid in sorted(self.callees):
            for target, line, in_loop in self.callees[fid]:
                if in_loop and target not in out:
                    out[target] = (fid, line)
        self.loop_called = out

    # -- per-module fact slices (cache invalidation keys) -----------------
    def fact_slice(self, modname: str) -> Dict[str, object]:
        """Everything a module's project findings depend on, hashable.

        A module needs re-linting exactly when this slice changes: the
        callees' out-of-loop allocations (caller-side RV702) and effect
        signatures (RV9xx), and the task-roots reaching its functions
        with their chains (purity).
        """
        summary = self.modules.get(modname, {})
        function_ids = [f"{modname}:{qual}"
                        for qual in summary.get("functions", {})]  # type: ignore[union-attr]
        callees: Set[str] = set()
        for fid in function_ids:
            callees.update(self.internal_callees(fid))
        callee_allocs = {}
        effects = {}
        for callee in sorted(callees):
            info = self.functions.get(callee, {})
            allocs = info.get("nonloop_allocs") or []
            if allocs:
                callee_allocs[callee] = [list(a) for a in allocs]
            callee_effects = info.get("effects") or []
            if callee_effects:
                effects[callee] = [list(a) for a in callee_effects]
        purity = {}
        for fid in function_ids:
            if fid in self.reach:
                purity[fid] = {root: chain for root, chain
                               in sorted(self.reach[fid].items())}
        roots_here = {fid: sorted(r[0] for r in refs)
                      for fid, refs in self.task_roots.items()
                      if self.module_of(fid) == modname}
        return {
            "callee_allocs": callee_allocs,
            "callee_effects": effects,
            "purity": purity,
            "roots": roots_here,
            "unresolved": self.unresolved_refs.get(modname, []),
        }

    def fact_digest(self, modname: str) -> str:
        """Content hash of :meth:`fact_slice` for the lint cache."""
        return _stable_digest(self.fact_slice(modname))


class ProjectModule:
    """The target object handed to every ``scope="project"`` rule.

    Attributes
    ----------
    module:
        The parsed :class:`SourceModule` (AST available).
    name:
        Dotted module name.
    summary:
        This module's summary dict.
    project:
        The assembled :class:`SourceProject` with facts.
    """

    def __init__(self, module: SourceModule, name: str,
                 summary: Dict[str, object], project: SourceProject):
        self.module = module
        self.name = name
        self.summary = summary
        self.project = project
