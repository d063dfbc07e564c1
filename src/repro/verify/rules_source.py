"""RV4xx rules: ``ast``-based checks over the simulator's own source.

Netlist lint (RV0xx–RV3xx) guards what the simulator is *given*; these
rules guard what the simulator *is*.  Each rule encodes a failure mode
this codebase has by construction:

* RV400 — the module does not parse (owns the finding; the other rules
  skip modules whose AST is unavailable);
* RV401 — float ``==``/``!=`` against a non-zero float literal.
  Physical quantities (volts, amps, seconds) are never exactly equal
  after arithmetic; comparisons to literal ``0.0`` (sentinel / exact
  default checks) and the ``x != x`` NaN idiom are whitelisted;
* RV402 — NaN/skip hazards: ``dc_sweep(on_error="skip")`` renders
  failed points as NaN in every accessor, and ``min``/``max``/
  ``argmin``/ordering comparisons silently mis-rank NaN.  Reductions
  over sweep-accessor data in functions that neither use a ``nan*``
  reduction nor consult the skip accounting are flagged;
* RV404 — raw SPICE quantity strings (``"10n"``, ``"1.5meg"``) used
  where floats are expected instead of going through
  :func:`repro.units.parse_quantity`;
* RV405 — bare or overbroad ``except`` that swallows
  ``ConvergenceError``/``TimestepError`` forensics without re-raising;
* RV406 — mutable default arguments in public APIs;
* RV407 — module-level imports the module never reads.
"""

from __future__ import annotations

import ast
import contextlib
import os
import re
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .core import Finding, Severity, rule
from .source import SourceModule

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _scope_index(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """``(start, end, qualname)`` for every def/class, innermost-resolvable.

    Used to attach findings to the function or class they live in.
    """
    spans: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                spans.append((child.lineno,
                              child.end_lineno or child.lineno, qual))
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, "")
    return spans


def _scope_of(spans: Sequence[Tuple[int, int, str]], lineno: int) -> str:
    """Qualname of the innermost def/class containing ``lineno``."""
    best = "module"
    best_span = None
    for start, end, qual in spans:
        if start <= lineno <= end:
            span = end - start
            if best_span is None or span <= best_span:
                best, best_span = qual, span
    return best


def _functions(tree: ast.Module) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Every (qualname, function node), classes included in the name."""

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield qual, child
                yield from visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield from visit(child, qual)
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")  # type: ignore[misc]


# ---------------------------------------------------------------------------
# RV400 — syntax
# ---------------------------------------------------------------------------


@rule("RV400", "source-syntax", "source", "error",
      "The module does not parse as Python",
      "A module the package ships but cannot import is dead code at "
      "best and an ImportError landmine at worst; surfacing the parse "
      "failure as a located diagnostic keeps the rest of the source "
      "lint honest (every other RV4xx rule skips unparseable modules).")
def check_source_syntax(module: SourceModule) -> Iterator[Finding]:
    """Report the ``SyntaxError`` from :func:`ast.parse`, if any."""
    if module.syntax_error is None:
        return
    exc = module.syntax_error
    lineno = exc.lineno or 1
    from .core import SourceLocation
    yield Finding(
        subject=module.path or "module",
        message=f"syntax error: {exc.msg}",
        location=SourceLocation(line=lineno, text=module.line_text(lineno)),
    )


# ---------------------------------------------------------------------------
# RV401 — float equality on physical quantities
# ---------------------------------------------------------------------------


def _is_nonzero_float_literal(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value == node.value      # not NaN
            and node.value != 0.0)


@rule("RV401", "float-equality", "source", "warning",
      "== / != against a non-zero float literal",
      "Physical quantities (volts, amps, seconds) never compare exactly "
      "equal after arithmetic: 'v == 0.65' silently misses the solved "
      "0.6499999 V rail and the branch it guards goes untested.  Use a "
      "tolerance (math.isclose, abs(a-b) < tol).  Comparisons to "
      "literal 0.0 (exact-default / sentinel checks) and the 'x != x' "
      "NaN idiom are whitelisted.")
def check_float_equality(module: SourceModule) -> Iterator[Finding]:
    """Flag ``Eq``/``NotEq`` comparisons with non-zero float literals."""
    if module.tree is None:
        return
    spans = _scope_index(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if ast.dump(lhs) == ast.dump(rhs):
                continue   # x != x NaN idiom (and the degenerate x == x)
            literal = next((c for c in (lhs, rhs)
                            if _is_nonzero_float_literal(c)), None)
            if literal is None:
                continue
            symbol = "==" if isinstance(op, ast.Eq) else "!="
            yield Finding(
                subject=_scope_of(spans, node.lineno),
                message=(f"exact float {symbol} against "
                         f"{literal.value!r}: physical quantities never "
                         "compare exactly equal after arithmetic; use a "
                         "tolerance (math.isclose / abs(a-b) < tol)"),
                location=module.loc(node),
            )


# ---------------------------------------------------------------------------
# RV402 — NaN/skip hazards over partial sweep results
# ---------------------------------------------------------------------------

#: SweepResult accessors that render skipped points as NaN.
_SWEEP_ACCESSORS = frozenset({"measure", "voltage", "branch_current"})

#: Functions that create partial-result sweeps.
_SWEEP_MAKERS = frozenset({"dc_sweep"})

#: Any reference to these names/attributes marks the function as
#: NaN-aware (it guards, or it consults the skip accounting).
_NAN_GUARDS = frozenset({
    "isnan", "isfinite", "nanmin", "nanmax", "nanargmin", "nanargmax",
    "nan_to_num", "nansum", "nanmean", "num_skipped", "skips",
})

_HAZARD_BUILTINS = frozenset({"min", "max", "sorted"})
_HAZARD_ATTRS = frozenset({"min", "max", "argmin", "argmax",
                           "amin", "amax"})
_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_sweep_maker(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _SWEEP_MAKERS
    if isinstance(func, ast.Attribute):
        return func.attr in _SWEEP_MAKERS
    return False


def _function_is_nan_aware(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in _NAN_GUARDS:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _NAN_GUARDS:
            return True
    return False


class _SweepTaint:
    """Forward taint over one function body: sweep -> accessor -> arrays."""

    def __init__(self, func: ast.AST):
        self.sweep_vars: Set[str] = set()
        self.tainted_names: Set[str] = set()
        self._seed(func)

    def _seed(self, func: ast.AST) -> None:
        # Two passes reach the common assignment chains
        # (sweep = dc_sweep(...); x = sweep.measure(...); y = np.abs(x)).
        for _ in range(3):
            changed = False
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign):
                    continue
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                if not targets:
                    continue
                if (isinstance(node.value, ast.Call)
                        and _is_sweep_maker(node.value)):
                    for name in targets:
                        if name not in self.sweep_vars:
                            self.sweep_vars.add(name)
                            changed = True
                elif self.expr_tainted(node.value):
                    for name in targets:
                        if name not in self.tainted_names:
                            self.tainted_names.add(name)
                            changed = True
            if not changed:
                break

    def _is_accessor_call(self, node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SWEEP_ACCESSORS):
            return False
        receiver = node.func.value
        if isinstance(receiver, ast.Name):
            return receiver.id in self.sweep_vars
        if isinstance(receiver, ast.Call):
            return _is_sweep_maker(receiver)
        return False

    def expr_tainted(self, expr: ast.AST) -> bool:
        """True when any subexpression carries sweep-accessor data."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in self.tainted_names:
                return True
            if self._is_accessor_call(node):
                return True
        return False


@rule("RV402", "nan-skip-hazard", "source", "error",
      "NaN-unsafe reduction/comparison over partial sweep results",
      "dc_sweep(on_error='skip') renders every failed point as NaN in "
      "the accessors (.measure/.voltage/.branch_current).  np.min/np.max "
      "propagate NaN, np.argmin/argmax and ordering comparisons silently "
      "ignore or mis-rank it — the easiest way to corrupt an E_cyc or "
      "BET figure without an error message.  Use the nan* reductions or "
      "consult .skips/.num_skipped first.")
def check_nan_skip_hazard(module: SourceModule) -> Iterator[Finding]:
    """Taint sweep accessors; flag unguarded reductions/comparisons."""
    if module.tree is None:
        return
    for qualname, func in _functions(module.tree):
        taint = _SweepTaint(func)
        if not taint.sweep_vars:
            continue
        if _function_is_nan_aware(func):
            continue
        for node in ast.walk(func):
            hazard: Optional[str] = None
            if isinstance(node, ast.Call):
                fn = node.func
                if (isinstance(fn, ast.Name)
                        and fn.id in _HAZARD_BUILTINS
                        and any(taint.expr_tainted(a) for a in node.args)):
                    hazard = f"{fn.id}()"
                elif isinstance(fn, ast.Attribute) and \
                        fn.attr in _HAZARD_ATTRS and (
                            taint.expr_tainted(fn.value)
                            or any(taint.expr_tainted(a)
                                   for a in node.args)):
                    hazard = f".{fn.attr}()"
            elif isinstance(node, ast.Compare) and any(
                    isinstance(op, _ORDERING_OPS) for op in node.ops):
                sides = [node.left] + list(node.comparators)
                if any(taint.expr_tainted(s) for s in sides):
                    hazard = "ordering comparison"
            if hazard is not None:
                yield Finding(
                    subject=qualname,
                    message=(f"{hazard} over sweep-accessor data without "
                             "a NaN guard: on_error='skip' points are "
                             "NaN and will be dropped or mis-ranked "
                             "silently; use np.nanmin/np.nanmax/"
                             "np.nanargmin or check .num_skipped/"
                             "np.isnan first"),
                    location=module.loc(node),
                )


# ---------------------------------------------------------------------------
# RV404 — raw SPICE quantity strings where floats are expected
# ---------------------------------------------------------------------------

_QUANTITY_RE = re.compile(
    r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
    r"(?:meg|[tgkmunpfaµ])$",
    re.IGNORECASE,
)

#: Calls whose arguments are floats in this codebase (element and
#: waveform constructors plus the builtin coercion).
_FLOAT_SINKS = frozenset({
    "Resistor", "Capacitor", "VoltageSource", "CurrentSource",
    "FinFET", "MTJ", "VoltageControlledSwitch",
    "Constant", "Pulse", "PiecewiseLinear", "float",
})

_ARITH_OPS = (ast.Sub, ast.Div, ast.Pow)


def _is_quantity_string(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and bool(_QUANTITY_RE.match(node.value)))


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@rule("RV404", "raw-spice-quantity", "source", "error",
      "A raw SPICE quantity string is used where a float is expected",
      "'10n' is a string: passed to an element constructor or used in "
      "arithmetic it raises at best and, via duck-typing accidents, "
      "silently computes nonsense at worst.  Route SPICE-style values "
      "through repro.units.parse_quantity, which is where the "
      "multiplier table lives.")
def check_raw_quantity_strings(module: SourceModule) -> Iterator[Finding]:
    """Flag SPICE quantity strings in float-expecting positions."""
    if module.tree is None:
        return
    spans = _scope_index(module.tree)

    def finding(node: ast.AST, value: str, context: str) -> Finding:
        return Finding(
            subject=_scope_of(spans, node.lineno),
            message=(f"SPICE quantity string {value!r} {context}; "
                     "convert it with units.parse_quantity(...) instead"),
            location=module.loc(node),
        )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and _call_name(node) in _FLOAT_SINKS:
            name = _call_name(node)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if _is_quantity_string(arg):
                    yield finding(arg, arg.value,  # type: ignore[attr-defined]
                                  f"passed to {name}(), which expects "
                                  "floats")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
            for side in (node.left, node.right):
                if _is_quantity_string(side):
                    yield finding(side, side.value,  # type: ignore
                                  "used in arithmetic")
        elif isinstance(node, ast.Compare):
            sides = [node.left] + list(node.comparators)
            numeric = any(isinstance(s, ast.Constant)
                          and isinstance(s.value, (int, float))
                          and not isinstance(s.value, bool)
                          for s in sides)
            if not numeric:
                continue
            for side in sides:
                if _is_quantity_string(side):
                    yield finding(side, side.value,  # type: ignore
                                  "compared against a number")


# ---------------------------------------------------------------------------
# RV405 — swallowed solver forensics
# ---------------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _broad_exception_name(type_node: Optional[ast.AST]) -> Optional[str]:
    if type_node is None:
        return None   # bare except is handled separately
    candidates: List[ast.AST] = (list(type_node.elts)
                                 if isinstance(type_node, ast.Tuple)
                                 else [type_node])
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and \
                candidate.id in _BROAD_EXCEPTIONS:
            return candidate.id
        if isinstance(candidate, ast.Attribute) and \
                candidate.attr in _BROAD_EXCEPTIONS:
            return candidate.attr
    return None


@rule("RV405", "swallowed-forensics", "source", "warning",
      "A bare/overbroad except swallows solver forensics",
      "ConvergenceError and TimestepError carry the recovery-ladder "
      "forensics (rung traces, residual history) that repro.recovery "
      "renders for diagnosis.  'except:' or 'except Exception:' without "
      "a re-raise absorbs them (and KeyboardInterrupt, for the bare "
      "form) into silence; catch the specific error or re-raise.")
def check_swallowed_forensics(module: SourceModule) -> Iterator[Finding]:
    """Flag bare/broad handlers with no ``raise`` in the body."""
    if module.tree is None:
        return
    spans = _scope_index(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            reraises = any(isinstance(inner, ast.Raise)
                           for inner in ast.walk(handler))
            if handler.type is None:
                if not reraises:
                    yield Finding(
                        subject=_scope_of(spans, handler.lineno),
                        message=("bare 'except:' swallows everything "
                                 "including ConvergenceError/"
                                 "TimestepError forensics and "
                                 "KeyboardInterrupt; catch the specific "
                                 "error or re-raise"),
                        severity=Severity.ERROR,
                        location=module.loc(handler),
                    )
                continue
            broad = _broad_exception_name(handler.type)
            if broad is not None and not reraises:
                yield Finding(
                    subject=_scope_of(spans, handler.lineno),
                    message=(f"'except {broad}:' without re-raise "
                             "swallows ConvergenceError/TimestepError "
                             "forensics; catch the specific error or "
                             "re-raise after handling"),
                    location=module.loc(handler),
                )


# ---------------------------------------------------------------------------
# RV406 — mutable default arguments in public APIs
# ---------------------------------------------------------------------------


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set") and not node.args
    return False


@rule("RV406", "mutable-default", "source", "warning",
      "A public function has a mutable default argument",
      "Default values are evaluated once at def time: a list/dict/set "
      "default is shared across every call, so one caller's append "
      "leaks into the next — state that survives between "
      "characterisation runs is exactly the bug class this simulator "
      "cannot afford.  Use None and create the container inside.")
def check_mutable_defaults(module: SourceModule) -> Iterator[Finding]:
    """Flag ``def f(x=[])``-style defaults on public functions."""
    if module.tree is None:
        return
    for qualname, func in _functions(module.tree):
        if any(part.startswith("_") for part in qualname.split(".")):
            continue
        defaults = list(func.args.defaults) + [
            d for d in func.args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_default(default):
                yield Finding(
                    subject=qualname,
                    message=("mutable default argument "
                             f"'{ast.unparse(default)}' is shared across "
                             "calls; default to None and build the "
                             "container in the body"),
                    location=module.loc(default),
                )


# ---------------------------------------------------------------------------
# RV407 — unused imports
# ---------------------------------------------------------------------------


def _names_read(tree: ast.AST) -> Set[str]:
    """Every name ``tree`` reads, names inside string annotations too."""
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            for leaf in ast.walk(annotation) if annotation else ():
                text = leaf.value if isinstance(leaf, ast.Constant) else None
                if isinstance(text, str):
                    with contextlib.suppress(SyntaxError):
                        read |= _names_read(ast.parse(text, mode="eval"))
    return read


@rule("RV407", "unused-import", "source", "warning",
      "A module-level import is never used",
      "An unused import is a false dependency: it costs import time on "
      "every run and outlives the code that needed it.  Package "
      "__init__ modules are exempt: a package root may re-export "
      "what it imports, as repro.verify does.")
def check_unused_imports(module: SourceModule) -> Iterator[Finding]:
    """Flag top-level imports whose bound name the module never reads."""
    if module.tree is None or os.path.basename(module.path) == "__init__.py":
        return
    read = _names_read(module.tree) | {"*"}   # a star import binds no name
    for stmt in module.tree.body:
        if (isinstance(stmt, (ast.Import, ast.ImportFrom))
                and getattr(stmt, "module", None) != "__future__"):
            unused = [alias.asname or alias.name for alias in stmt.names
                      if (alias.asname or alias.name.partition(".")[0])
                      not in read]
            if unused:
                yield Finding(subject="module", location=module.loc(stmt),
                              message=("imported but never used: "
                                       + ", ".join(unused)))
