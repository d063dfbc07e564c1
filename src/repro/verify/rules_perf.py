"""RV7xx: hot-path performance inventory (project scope).

ROADMAP item 2 works through the per-element Python stamping loops
(the compiled netlist core; item 6 adds the batch axis).  This band
*inventories* the work: every
Python-level loop that stamps into MNA ndarrays, every dense ndarray
allocation executed per Newton iteration or sweep point (lexically
inside a loop, or — via the call graph — behind a call some loop makes
into an allocating function), and every reassembly of topology-
invariant structure inside a loop.  Findings are informational by
design: they are a worklist, not defects, and ``python -m repro
lint-source --format json`` is the machine-readable form the refactor
consumes.

======  =========================  =================================
code    name                       finding
======  =========================  =================================
RV701   per-element-stamp-loop     a Python loop stamping elements or
                                   filling A/b entry-by-entry
RV702   dense-alloc-in-loop        a dense ndarray allocation inside a
                                   loop — reported at the allocation,
                                   or (for allocations hidden in a
                                   callee) at the calling loop with
                                   the callee named in the message
RV703   invariant-reassembly       topology-invariant structure
                                   (compile/stamp_pattern/row_labels/
                                   elements) rebuilt inside a loop
======  =========================  =================================

Loop attribution is per-iteration, not lexical: a ``for`` statement's
iterable evaluates once per loop *entry*, so ``for e in c.elements()``
only counts as in-loop work when an *outer* loop re-executes it; a
``while`` condition re-evaluates every iteration and counts as its
own loop's work.  RV703 additionally skips calls whose receiver is
bound by an enclosing loop target (``for e in ...: e.stamp_pattern()``
varies per iteration — nothing to hoist).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from . import callgraph
from .callgraph import DENSE_ALLOC_TAILS as _DENSE_ALLOCS
from .callgraph import body_nodes, loop_target_names
from .core import Finding, rule

#: Stamper-object primitives (see ``analysis/mna.py``): a call to one
#: of these on a receiver whose name mentions "stamp", inside a loop,
#: is per-element matrix filling.
_STAMP_PRIMS = frozenset({"conductance", "current", "vccs", "matrix",
                          "rhs"})

#: Topology-invariant assembly: same result every iteration for a fixed
#: circuit, so a loop re-calling them is wasted work.
_INVARIANT_TAILS = frozenset({"compile", "stamp_pattern", "row_labels",
                              "elements"})


def _is_matrix_fill(node: ast.AugAssign) -> bool:
    """``A[i, j] += g`` / ``b[k] -= i`` style per-entry system fill."""
    target = node.target
    if not isinstance(target, ast.Subscript):
        return False
    base = target.value
    name = None
    if isinstance(base, ast.Name):
        name = base.id
    elif isinstance(base, ast.Attribute):
        name = base.attr
    return name in ("A", "b", "G", "rhs", "jacobian")


def _receiver_names(node: ast.Call) -> Set[str]:
    """Root names the call's receiver expression reads."""
    if not isinstance(node.func, ast.Attribute):
        return set()
    return {sub.id for sub in ast.walk(node.func.value)
            if isinstance(sub, ast.Name)}


class _PerfScan:
    """One pass over a module's functions collecting RV7xx findings."""

    def __init__(self, pm: "callgraph.ProjectModule"):
        self.pm = pm
        self.findings: List[Tuple[str, Finding]] = []
        self._seen: Set[Tuple[str, int]] = set()

    def run(self) -> List[Tuple[str, Finding]]:
        tree = self.pm.module.tree
        if tree is None:
            return []
        imports = self.pm.summary["imports"]
        top = callgraph._module_level_names(tree)
        for qual, class_ctx, func in callgraph._collect_functions(tree):
            resolver = callgraph._Resolver(self.pm.name, imports, top)
            self._scan_function(qual, class_ctx, func, resolver)
        return self.findings

    def _emit(self, code: str, subject: str, node: ast.AST,
              message: str) -> None:
        line = getattr(node, "lineno", 0)
        if (code, line) in self._seen:
            return
        self._seen.add((code, line))
        self.findings.append((code, Finding(
            subject=subject, message=message,
            location=self.pm.module.loc(node))))

    def _scan_function(self, qual: str, class_ctx: str,
                       func: ast.FunctionDef,
                       resolver: "callgraph._Resolver") -> None:
        fid = f"{self.pm.name}:{qual}"
        stamp_loops: Set[ast.AST] = set()
        loop_reason: dict = {}

        for node, loops in body_nodes(func):
            loop = loops[-1] if loops else None
            if isinstance(node, ast.Call):
                dotted = callgraph.call_target(node)
                self._scan_call(fid, node, dotted, loop, loops, resolver,
                                class_ctx, stamp_loops, loop_reason)
            elif isinstance(node, ast.AugAssign) and loop is not None \
                    and _is_matrix_fill(node):
                stamp_loops.add(loop)
                loop_reason.setdefault(
                    loop, "fills the system matrix entry-by-entry")

        for loop in sorted(stamp_loops, key=lambda n: n.lineno):
            self._emit(
                "RV701", fid, loop,
                f"per-element Python stamping loop ({loop_reason[loop]}); "
                "vectorization worklist for the batched solver")

    def _scan_call(self, fid, node, dotted, loop, loops, resolver,
                   class_ctx, stamp_loops, loop_reason) -> None:
        if dotted is None:
            return
        tail = dotted.rsplit(".", 1)[-1]
        receiver = dotted.rsplit(".", 1)[0] if "." in dotted else ""

        if loop is not None:
            if tail == "stamp":
                stamp_loops.add(loop)
                loop_reason.setdefault(
                    loop, "calls element .stamp() per element")
            elif tail in _STAMP_PRIMS and "stamp" in receiver.lower():
                stamp_loops.add(loop)
                loop_reason.setdefault(
                    loop, f"drives stamper primitive .{tail}() per entry")
            if tail in _INVARIANT_TAILS \
                    and not (_receiver_names(node)
                             & loop_target_names(loops)):
                self._emit(
                    "RV703", fid, node,
                    f"topology-invariant call .{tail}() inside a loop; "
                    "hoist it — the result is identical every iteration")
            self._scan_loop_called_alloc(fid, node, dotted, loop,
                                         resolver, class_ctx)

        if tail in _DENSE_ALLOCS:
            resolved = resolver.resolve(dotted, class_ctx) or ""
            if not (resolved.startswith("numpy.")
                    or resolved.startswith("scipy.")):
                return
            if loop is not None:
                self._emit(
                    "RV702", fid, node,
                    f"dense allocation {tail}() inside a loop; "
                    "preallocate outside and fill in place")

    def _scan_loop_called_alloc(self, fid, node, dotted, loop,
                                resolver, class_ctx) -> None:
        """Caller-side RV702: this loop calls a function whose body
        allocates dense arrays (outside its own loops) — so the loop
        pays one allocation per iteration.  Reported at the calling
        loop, like RV701, with the callee in the message."""
        resolved = resolver.resolve(dotted, class_ctx)
        if resolved is None:
            return
        target = self.pm.project.resolve_dotted(resolved)
        if target is None:
            return
        allocs = self.pm.project.functions.get(target, {}) \
            .get("nonloop_allocs") or []
        if not allocs:
            return
        described = ", ".join(f"{tail}() at line {line}"
                              for tail, line in list(allocs)[:3])
        self._emit(
            "RV702", fid, loop,
            f"loop calls {target} per iteration, which allocates "
            f"{described} in its body; hoist the allocation or pass a "
            "buffer in")


def _perf_findings(pm, code: str) -> Iterator[Finding]:
    cached = getattr(pm, "_rv7_findings", None)
    if cached is None:
        cached = _PerfScan(pm).run()
        pm._rv7_findings = cached
    for found_code, finding in cached:
        if found_code == code:
            yield finding


@rule("RV701", "per-element-stamp-loop", "project", "info",
      "a Python loop stamps elements or fills the MNA system "
      "entry-by-entry",
      rationale="each transient step re-runs these loops; they are the "
                "inventory ROADMAP item 2's compiled netlist core "
                "works through.")
def check_stamp_loops(pm) -> Iterator[Finding]:
    """RV701: per-element stamping loops (the vectorization worklist)."""
    yield from _perf_findings(pm, "RV701")


@rule("RV702", "dense-alloc-in-loop", "project", "info",
      "a dense ndarray is allocated inside a loop (directly, or in a "
      "callee some loop invokes per iteration)",
      rationale="Newton iterations and sweep points dominate runtime; "
                "per-iteration allocation churns the allocator and "
                "defeats cache reuse.")
def check_dense_alloc(pm) -> Iterator[Finding]:
    """RV702: dense ndarray allocations executed per loop iteration."""
    yield from _perf_findings(pm, "RV702")


@rule("RV703", "invariant-reassembly", "project", "info",
      "topology-invariant structure is rebuilt inside a loop",
      rationale="compile()/stamp_pattern()/row_labels()/elements() "
                "depend only on the circuit; rebuilding them per "
                "iteration is pure overhead.")
def check_invariant_reassembly(pm) -> Iterator[Finding]:
    """RV703: topology-invariant structure rebuilt inside loops."""
    yield from _perf_findings(pm, "RV703")
