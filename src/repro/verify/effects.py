"""Effect signatures: filesystem / process / queue effects per function.

The RV9xx band reasons about the repo's *durable-store protocols* — the
mkstemp→fsync→rename cache envelope, the append+fsync journal, spawn
workers fed by queues — so each function summary carries an **effect
signature** next to its purity atoms: what it opens, writes, renames
and fsyncs (with path provenance), which locks it holds, which queue
and process operations it issues in what order, and which module
globals it reads (visibility under ``spawn``).

Atoms are plain JSON 4-lists ``[kind, what, line, detail]``:

========== ============================================= =============
kind       what                                          detail
========== ============================================= =============
write      durable-path class (``cache``/``journal``/..) open mode
read       durable-path class                            ``""``
fsync      ``""``                                        ``""``
replace    durable-path class or ``""``                  ``""``
mkstemp    ``""``                                        ``""``
lock       lock expression                               ``""``
q_put      receiver                                      ``loop`` if in
                                                         a loop body
q_get      receiver                                      ``""``
q_join     receiver                                      ``""``
task_done  receiver                                      ``""``
p_join     receiver                                      ``""``
sig_reg    handler name (or ``<lambda>``)                signal expr
spawn_tgt  target name                                   ``nested`` if
                                                         not module
                                                         level
========== ============================================= =============

**Path provenance** is token-based with one level of local dataflow: a
path expression is *durable* when its source (or the right-hand side of
a local name it mentions, or the enclosing module's own name) contains
one of :data:`DURABLE_TOKENS`.  ``directory / f"{key}.json"`` with
``directory = Path(cache_dir)`` therefore classifies as ``cache``.
Heuristic by design — the band gates the repo's own stores, whose
paths are all named after what they are.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set

from . import callgraph

_WORD_RE = re.compile(r"[A-Za-z_]\w*")

#: Substrings that mark a path expression as one of the repo's durable
#: stores.  Matched lowercase against the expression source and the
#: RHS of local names it mentions.
DURABLE_TOKENS = ("journal", "cache", "baseline", "bench", "corpus",
                  "golden")

#: Constructor tails that make a local name queue-like / process-like.
_QUEUE_CTORS = frozenset({"Queue", "JoinableQueue", "SimpleQueue"})
_PROC_CTORS = frozenset({"Process", "Thread"})

#: Call tails acquiring an exclusive lock.
_LOCK_TAILS = frozenset({"flock", "lockf", "acquire"})

#: ``pathlib.Path`` write methods (text/bytes truncate-in-place).
_WRITE_TAILS = {"write_text": "text", "write_bytes": "bytes"}
_READ_TAILS = frozenset({"read_text", "read_bytes"})
_RENAME_TAILS = frozenset({"replace", "rename"})


def module_token(modname: str) -> str:
    """The durable-store class a module's *own name* implies, or ``""``.

    ``repro.exec.journal`` → ``journal``: paths built from ``self``
    attributes inside a store's own module classify by the module.
    """
    tail = modname.rsplit(".", 1)[-1].lower()
    for token in DURABLE_TOKENS:
        if token in tail:
            return token
    return ""


def module_data_names(tree: ast.Module) -> Set[str]:
    """Module-level *data* bindings (assignments, not defs/imports)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return names


class EffectCollector:
    """Effect atoms and global reads of one function body."""

    def __init__(self, func: ast.FunctionDef, resolver, class_ctx: str,
                 mod_token: str, data_names: Set[str],
                 locals_: Set[str]):
        self.resolver = resolver
        self.class_ctx = class_ctx
        self.mod_token = mod_token
        self.data_names = data_names
        self.locals = locals_
        self.atoms: List[List[object]] = []
        self.global_reads: List[List[object]] = []
        #: local name -> unparsed RHS of its (last) assignment, for the
        #: one-level provenance expansion in :meth:`_classify`.
        self._env: Dict[str, str] = {}
        self._queue_names: Set[str] = set()
        self._proc_names: Set[str] = set()
        self._nested_defs: Set[str] = set()
        self._collect_env(func)
        self._scan(func)

    # -- local environment -------------------------------------------------
    def _collect_env(self, func: ast.FunctionDef) -> None:
        args = func.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            self._env.setdefault(arg.arg, arg.arg)
        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not func:
                self._nested_defs.add(node.name)
                continue
            if not isinstance(node, ast.Assign):
                continue
            try:
                rhs = ast.unparse(node.value)
            except (ValueError, RecursionError):  # pragma: no cover
                continue
            tail = ""
            if isinstance(node.value, ast.Call):
                dotted = callgraph.call_target(node.value)
                tail = (dotted or "").rsplit(".", 1)[-1]
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                self._env[target.id] = rhs
                if isinstance(node.value, ast.Lambda):
                    self._nested_defs.add(target.id)
                if tail in _QUEUE_CTORS:
                    self._queue_names.add(target.id)
                elif tail in _PROC_CTORS:
                    self._proc_names.add(target.id)

    # -- path provenance ---------------------------------------------------
    def _expand(self, name: str, depth: int, seen: Set[str],
                pieces: List[str]) -> None:
        """Append the RHS chain of a local name (bounded dataflow)."""
        if depth <= 0 or name in seen or len(pieces) >= 16:
            return
        seen.add(name)
        rhs = self._env.get(name)
        if rhs is None or rhs == name:
            return
        pieces.append(rhs.lower())
        for word in _WORD_RE.findall(rhs):
            if word != name:
                self._expand(word, depth - 1, seen, pieces)

    def _classify(self, expr: Optional[ast.AST]) -> str:
        """Durable-store class of a path expression, or ``""``."""
        if expr is None:
            return ""
        try:
            src = ast.unparse(expr).lower()
        except (ValueError, RecursionError):  # pragma: no cover
            return ""
        pieces = [src]
        seen: Set[str] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                self._expand(node.id, 3, seen, pieces)
            elif isinstance(node, ast.Attribute):
                base = node.value
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if isinstance(base, ast.Name) \
                        and base.id in ("self", "cls") and self.mod_token:
                    # self.path inside repro.exec.journal: classify by
                    # the store's own module name.
                    pieces.append(self.mod_token)
        blob = " ".join(pieces)
        for token in DURABLE_TOKENS:
            if token in blob:
                return token
        return ""

    def _is_queueish(self, recv: str) -> bool:
        head = recv.split(".", 1)[0]
        return (head in self._queue_names
                or "queue" in recv.rsplit(".", 1)[-1].lower())

    def _is_processish(self, recv: str) -> bool:
        head = recv.split(".", 1)[0]
        tail = recv.rsplit(".", 1)[-1].lower()
        return (head in self._proc_names
                or any(t in tail for t in ("process", "proc", "thread",
                                           "worker")))

    # -- scan --------------------------------------------------------------
    def _scan(self, func: ast.FunctionDef) -> None:
        loop_stack: List[ast.AST] = []

        def walk(node: ast.AST, in_loop: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    continue        # nested functions summarised alone
                child_in_loop = in_loop or isinstance(
                    child, (ast.For, ast.AsyncFor, ast.While))
                if isinstance(child, ast.Call):
                    self._scan_call(child, in_loop)
                elif isinstance(child, ast.With):
                    self._scan_with(child)
                elif isinstance(child, ast.Name) \
                        and isinstance(child.ctx, ast.Load):
                    self._scan_name(child)
                walk(child, child_in_loop)

        walk(func, False)

    def _scan_name(self, node: ast.Name) -> None:
        name = node.id
        if (name in self.data_names and name not in self.locals
                and len(self.global_reads) < 64):
            self.global_reads.append([name, node.lineno])

    def _scan_with(self, node: ast.With) -> None:
        for item in node.items:
            expr = item.context_expr
            src = ""
            try:
                src = ast.unparse(expr)
            except (ValueError, RecursionError):  # pragma: no cover
                pass
            if "lock" in src.lower():
                self._add("lock", src[:60], expr.lineno)

    def _add(self, kind: str, what: str, line: int,
             detail: str = "") -> None:
        self.atoms.append([kind, what, line, detail])

    def _scan_call(self, node: ast.Call, in_loop: bool) -> None:
        line = node.lineno
        dotted = callgraph.call_target(node)
        func = node.func
        tail = ""
        recv_node: Optional[ast.AST] = None
        if isinstance(func, ast.Attribute):
            tail = func.attr
            recv_node = func.value
        elif isinstance(func, ast.Name):
            tail = func.id
        recv = ""
        if dotted and "." in dotted:
            recv = dotted.rsplit(".", 1)[0]
        elif recv_node is not None:
            try:
                recv = ast.unparse(recv_node)[:60]
            except (ValueError, RecursionError):  # pragma: no cover
                recv = "(...)"

        resolved = dotted
        if dotted:
            resolved = self.resolver.resolve(dotted, self.class_ctx) \
                or dotted

        # filesystem -------------------------------------------------------
        if tail in _WRITE_TAILS and recv_node is not None:
            cls = self._classify(recv_node)
            if cls:
                self._add("write", cls, line, _WRITE_TAILS[tail])
            return
        if tail in _READ_TAILS and recv_node is not None:
            cls = self._classify(recv_node)
            if cls:
                self._add("read", cls, line)
            return
        if tail == "open" or dotted == "open":
            imports = getattr(self.resolver, "imports", {})
            if isinstance(func, ast.Name) \
                    or (recv and recv.split(".", 1)[0] in imports):
                # open(path, mode) / gzip.open(path, mode)
                target = node.args[0] if node.args else None
                mode = _open_mode(node, arg_index=1)
            else:
                # path.open(mode): the receiver is the path
                target = recv_node
                mode = _open_mode(node, arg_index=0)
            cls = self._classify(target)
            if cls and mode and any(f in mode for f in "wxa+"):
                self._add("write", cls, line, mode)
            elif cls:
                self._add("read", cls, line)
            return
        if resolved in ("os.fsync", "os.fdatasync"):
            self._add("fsync", "", line)
            return
        if resolved in ("os.replace", "os.rename") \
                or (tail in _RENAME_TAILS and recv_node is not None
                    and not isinstance(recv_node, ast.Constant)
                    and len(node.args) == 1 and not node.keywords):
            # the one-arg form distinguishes Path.replace(target) from
            # str.replace(old, new)
            target = node.args[-1] if node.args else None
            cls = self._classify(target) or self._classify(recv_node)
            self._add("replace", cls, line)
            return
        if resolved == "tempfile.mkstemp" or tail == "mkstemp":
            self._add("mkstemp", "", line)
            return
        if tail in _LOCK_TAILS and (recv or tail in ("flock", "lockf")):
            self._add("lock", dotted or tail, line)
            return

        # queues / processes ----------------------------------------------
        if tail in ("put", "put_nowait") and self._is_queueish(recv):
            self._add("q_put", recv, line, "loop" if in_loop else "")
            return
        if tail in ("get", "get_nowait") and self._is_queueish(recv):
            self._add("q_get", recv, line)
            return
        if tail == "task_done" and self._is_queueish(recv):
            self._add("task_done", recv, line)
            return
        if tail == "join" and recv:
            if self._is_queueish(recv) and not node.args:
                self._add("q_join", recv, line)
            elif self._is_processish(recv):
                self._add("p_join", recv, line)
            return

        # signal handlers / spawn targets ---------------------------------
        if resolved == "signal.signal" and len(node.args) >= 2:
            handler = node.args[1]
            name = ""
            if isinstance(handler, ast.Name):
                name = handler.id
            elif isinstance(handler, ast.Lambda):
                name = "<lambda>"
            if name:
                try:
                    signame = ast.unparse(node.args[0])[:40]
                except (ValueError, RecursionError):  # pragma: no cover
                    signame = ""
                self._add("sig_reg", name, line, signame)
            return
        if tail in _PROC_CTORS:
            for kw in node.keywords:
                if kw.arg == "target":
                    if tail != "Process":
                        # Thread targets run in this process and may
                        # close over local state freely; only Process
                        # targets must pickle by import path.
                        continue
                    if isinstance(kw.value, ast.Lambda):
                        self._add("spawn_tgt", "<lambda>", line, "nested")
                    elif isinstance(kw.value, ast.Name):
                        # module-level defs and imported names pickle
                        # by import path; only targets provably bound
                        # to nested defs/lambdas are closure state
                        # spawn cannot ship
                        nm = kw.value.id
                        self._add("spawn_tgt", nm, line,
                                  "nested" if nm in self._nested_defs
                                  else "")
            return


def _open_mode(node: ast.Call, arg_index: int = 1) -> Optional[str]:
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value,
                                                ast.Constant):
            return str(keyword.value.value)
    if len(node.args) > arg_index \
            and isinstance(node.args[arg_index], ast.Constant) \
            and isinstance(node.args[arg_index].value, str):
        return str(node.args[arg_index].value)
    if len(node.args) <= arg_index:
        return "r"
    return None


# ---------------------------------------------------------------------------
# queries over serialised effect lists (used by the RV9xx rules)
# ---------------------------------------------------------------------------


def effects_of(info: Dict[str, object]) -> List[Sequence[object]]:
    """All effect atoms of one function summary (empty if none)."""
    return list(info.get("effects") or ())


def atoms_of_kind(info: Dict[str, object],
                  *kinds: str) -> List[Sequence[object]]:
    """The function's effect atoms whose kind is one of ``kinds``."""
    return [a for a in effects_of(info) if a and a[0] in kinds]


def has_write_protocol(info: Dict[str, object]) -> bool:
    """Does this function implement stage-then-rename itself?"""
    return (bool(atoms_of_kind(info, "mkstemp"))
            and bool(atoms_of_kind(info, "replace")))
