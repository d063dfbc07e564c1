"""Outside-in tracer for the end-to-end benchmark.

The tracer measures the layers of ``repro`` without editing it: it
replaces public functions and methods with ``perf_counter_ns`` wrappers
and rebinds every module attribute that refers to the originals (so a
caller that did ``from ..analysis import transient`` is traced too),
except in this module.

Two wrapper kinds:

* **spans** (:data:`SPANS`) record one entry per call — id, parent,
  name, start, end, repetition id, self time, an optional tag taken from
  the call, and whether the call raised;
* **leaves** (:data:`LEAVES`) are the hot calls (about 2.5M stamps in a
  cold ``repro all``); they are only aggregated per parent span as
  calls, total time and self time.

A layer's self time is its duration minus the time its traced children
(spans and leaves) cover.  :func:`layer_metrics` turns the spans of one
repetition into the ``<layer>.<what>`` per-layer metrics.

Use it from a fresh interpreter::

    tracer = Tracer()
    tracer.install()
    tracer.repetition(1, run_the_workload)
    tracer.uninstall()
    metrics = layer_metrics(tracer.spans_of(1))
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


class TraceError(RuntimeError):
    """The traced run did not have the structure the metrics assume."""


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _tag_kind(args, kwargs, result):
    return kwargs["kind"] if "kind" in kwargs else args[0]


def _tag_cache(args, kwargs, result):
    if result is not None:
        return "hit"
    cache_dir = kwargs["cache_dir"] if "cache_dir" in kwargs else args[0]
    return "off" if cache_dir is None else "miss"


def _tag_steps(args, kwargs, result):
    return [int(result.stats["accepted_steps"]),
            int(result.stats["rejected_steps"]), len(result.events)]


def _tag_rung(args, kwargs, result):
    return None if result is None else result.rung


#: Figure runners that ``python -m repro all`` drives (``run_summary``
#: and the per-figure ``run_*`` it calls).
RUNNERS = (
    ("repro.experiments.summary", "run_summary"),
    ("repro.experiments.table1", "run_table1"),
    ("repro.experiments.fig1", "run_fig1"),
    ("repro.experiments.fig3", "run_fig3"),
    ("repro.experiments.fig4", "run_fig4"),
    ("repro.experiments.fig5", "run_fig5"),
    ("repro.experiments.fig7", "run_fig7a"),
    ("repro.experiments.fig7", "run_fig7b"),
    ("repro.experiments.fig8", "run_fig8"),
    ("repro.experiments.fig9", "run_fig9"),
)

#: span name -> (module, attribute or ``Class.method``, tag function)
SPANS: Dict[str, Tuple[str, str, Optional[Callable]]] = {
    **{f"experiments.{attr}": (module, attr, None)
       for module, attr in RUNNERS},
    "characterize.cell": ("repro.characterize.runner", "characterize_cell",
                          _tag_kind),
    "characterize.cache.load": ("repro.characterize.cache", "load",
                                _tag_cache),
    "characterize.cache.store": ("repro.characterize.cache", "store", None),
    "analysis.transient": ("repro.analysis.transient", "transient",
                           _tag_steps),
    "analysis.operating_point": ("repro.analysis.dc", "operating_point",
                                 None),
    "recovery.recover_dc": ("repro.recovery.ladder", "recover_dc",
                            _tag_rung),
    "recovery.recover_transient_step": ("repro.recovery.ladder",
                                        "recover_transient_step", _tag_rung),
    "analysis.newton_solve": ("repro.analysis.solver", "newton_solve", None),
    "pg.e_cyc": ("repro.pg.energy", "CellEnergyModel.e_cyc", None),
    "pg.break_even_time": ("repro.pg.bet", "break_even_time", None),
}

#: Element types whose ``stamp`` is wrapped.  The shipped workloads
#: build no resistor or current source, so those two never stamp.
STAMPS = {
    "finfet": ("repro.devices.finfet", "FinFET.stamp"),
    "mtj": ("repro.devices.mtj", "MTJ.stamp"),
    "switch": ("repro.circuit.switches", "VoltageControlledSwitch.stamp"),
    "vsource": ("repro.circuit.sources", "VoltageSource.stamp"),
    "capacitor": ("repro.circuit.passives", "Capacitor.stamp"),
}

#: leaf name -> (module, attribute or ``Class.method``)
LEAVES: Dict[str, Tuple[str, str]] = {
    **{f"devices.stamp.{kind}": target for kind, target in STAMPS.items()},
    "analysis.mna.clear": ("repro.analysis.mna", "Stamper.clear"),
    "linalg.solve": ("numpy.linalg", "solve"),
    "analysis.trust.certify": ("repro.analysis.trust", "certify"),
}

#: Leaves that can call other leaves (``certify``'s defenses re-solve
#: through ``numpy.linalg.solve``); they get a frame so the inner calls
#: come out of their self time.
NESTING_LEAVES = frozenset({"analysis.trust.certify"})

#: Leaf aggregates are a flat list per span: ``calls, total_ns, self_ns``
#: for each leaf in this order (a list index is cheaper than a dict).
LEAF_NAMES = tuple(LEAVES)
_SLOTS = 3 * len(LEAF_NAMES)

#: The extraction phases of ``characterize_cell``, in the order its
#: docstring gives: operating points first, then one transient each.
TRANSIENT_PHASES = ("read", "write", "store", "restore")
PHASES = ("static",) + TRANSIENT_PHASES
TRANSIENTS_PER_CELL = {"nv": 4, "6t": 2}


def _resolve(module_name: str, attr: str) -> Tuple[Any, str, Any]:
    """``(owner, name, original)`` for a module function or class method."""
    owner: Any = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

#: Span record fields, in tuple order.
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "rep", "self_ns",
               "tag", "ok", "leaves")


class Tracer:
    """Wraps the targets, keeps spans in memory, restores on uninstall.

    A frame on the stack is ``[span_id, child_ns, slots]``: the id of the
    enclosing span, the time traced children covered so far, and the
    enclosing span's leaf aggregate.  The root frame (id 0) catches work
    outside any repetition.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.rep = 0
        self._next_id = 1
        self._stack: List[list] = [[0, 0, [0] * _SLOTS]]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target; raises if one of them no longer exists."""
        if self._patches:
            raise TraceError("tracer already installed")
        for name, (module, attr, tag) in SPANS.items():
            self._patch(module, attr,
                        functools.partial(self._span_wrapper, name, tag))
        for name, (module, attr) in LEAVES.items():
            self._patch(module, attr,
                        functools.partial(self._leaf_wrapper, name))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        owner, name, original = _resolve(module, attr)
        wrapper = functools.update_wrapper(make(original), original)
        if isinstance(owner, type):
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            namespace = getattr(mod, "__dict__", None)
            if mod_name == __name__ or not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, name: str, tag: Optional[Callable],
                      fn: Callable) -> Callable:
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0, [0] * _SLOTS]
            stack.append(frame)
            ok, result = False, None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                spans.append((sid, parent[0], name, t0, t1, self.rep,
                              t1 - t0 - frame[1],
                              tag(args, kwargs, result) if tag and ok
                              else None, ok, frame[2]))

        return wrapper

    def _leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        # Positional arguments only: every call site of a leaf passes
        # them so, and ``**kwargs`` would double the wrapper's cost.
        stack, clock = self._stack, time.perf_counter_ns
        calls = 3 * LEAF_NAMES.index(name)
        total, own = calls + 1, calls + 2
        if name.startswith("devices.stamp."):
            # ``Element.stamp(stamper, ctx)`` under its own signature: the
            # 2.5M hottest calls skip the argument packing of ``*args``,
            # about 2 points of tracing overhead on cell-cold.
            def stamp_wrapper(element, stamper, ctx):
                t0 = clock()
                try:
                    return fn(element, stamper, ctx)
                finally:
                    dt = clock() - t0
                    frame = stack[-1]
                    frame[1] += dt
                    slots = frame[2]
                    slots[calls] += 1
                    slots[total] += dt

            return stamp_wrapper
        if name not in NESTING_LEAVES:
            # Nothing traced runs inside: no frame of its own, so the
            # hottest wrapper stays as cheap as it can be.
            def wrapper(*args):
                t0 = clock()
                try:
                    return fn(*args)
                finally:
                    dt = clock() - t0
                    frame = stack[-1]
                    frame[1] += dt
                    slots = frame[2]
                    slots[calls] += 1
                    slots[total] += dt

            return wrapper

        def nesting_wrapper(*args):
            parent = stack[-1]
            frame = [parent[0], 0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                slots = frame[2]
                slots[calls] += 1
                slots[total] += dt
                slots[own] += dt - frame[1]

        return nesting_wrapper

    def repetition(self, rep: int, fn: Callable[[], Any]) -> Any:
        """Call ``fn()`` as repetition ``rep``, under a ``rep`` span."""
        self.rep = rep
        return self._span_wrapper("rep", None, fn)()

    def spans_of(self, rep: int) -> List[tuple]:
        return [s for s in self.spans if s[5] == rep]

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                record = dict(zip(SPAN_FIELDS, span))
                record["leaves"] = leaf_records(span)
                fh.write(json.dumps(record) + "\n")


def leaf_records(span: tuple) -> Dict[str, Tuple[int, int, int]]:
    """``{leaf: (calls, total_ns, self_ns)}`` of the leaves under ``span``."""
    slots = span[9]
    out = {}
    for k, name in enumerate(LEAF_NAMES):
        calls, total, own = slots[3 * k:3 * k + 3]
        if calls:
            out[name] = (calls, total,
                         own if name in NESTING_LEAVES else total)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _catalogue() -> Dict[str, Tuple[str, str]]:
    cat: Dict[str, Tuple[str, str]] = {
        "experiments.self_s": ("s", "lower"),
        "characterize.cells": ("count", "lower"),
        "characterize.self_s": ("s", "lower"),
        "characterize.cache.hits": ("count", "higher"),
        "characterize.cache.misses": ("count", "lower"),
        "characterize.cache.load_s": ("s", "lower"),
        "characterize.cache.store_s": ("s", "lower"),
    }
    for phase in PHASES:
        cat[f"characterize.phase.{phase}.s"] = ("s", "lower")
        for what in ("accepted_steps", "rejected_steps", "newton_solves"):
            cat[f"characterize.phase.{phase}.{what}"] = ("count", "lower")
    cat.update({
        "analysis.transient.calls": ("count", "lower"),
        "analysis.transient.self_s": ("s", "lower"),
        "analysis.transient.accepted_steps": ("count", "lower"),
        "analysis.transient.rejected_steps": ("count", "lower"),
        "analysis.transient.accept_ratio": ("ratio", "higher"),
        "analysis.transient.events": ("count", "lower"),
        "analysis.operating_point.calls": ("count", "lower"),
        "analysis.operating_point.self_s": ("s", "lower"),
        "recovery.recover_dc.calls": ("count", "lower"),
        "recovery.recover_dc.self_s": ("s", "lower"),
        "recovery.recover_transient_step.calls": ("count", "lower"),
        "recovery.rungs_fired": ("count", "lower"),
        "analysis.newton_solve.calls": ("count", "lower"),
        "analysis.newton_solve.self_s": ("s", "lower"),
        "analysis.newton_solve.failed": ("count", "lower"),
        "analysis.mna.restamps": ("count", "lower"),
        "analysis.newton.iters_per_solve": ("iter/solve", "lower"),
    })
    for kind in STAMPS:
        cat[f"devices.stamp.{kind}.calls"] = ("count", "lower")
        cat[f"devices.stamp.{kind}.self_s"] = ("s", "lower")
    cat.update({
        "assembly.self_s": ("s", "lower"),
        "linalg.solve.calls": ("count", "lower"),
        "linalg.solve.s": ("s", "lower"),
        "analysis.trust.certify.calls": ("count", "lower"),
        "analysis.trust.certify.self_s": ("s", "lower"),
        "pg.e_cyc.calls": ("count", "lower"),
        "pg.e_cyc.self_s": ("s", "lower"),
        "pg.break_even_time.calls": ("count", "lower"),
        "pg.break_even_time.self_s": ("s", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    return cat


#: Per-layer metric catalogue: name -> (unit, better), the ``per_layer``
#: list of ``BENCHMARK.json``.
CATALOGUE = _catalogue()


def _phase_spans(spans: List[tuple]) -> Dict[str, List[tuple]]:
    """Label the direct children of every ``characterize_cell`` span.

    Operating points directly under the cell are ``static`` and must all
    precede the transients, which are ``read``, ``write``, ``store`` and
    ``restore`` in that order.  A cell that did not come from the cache
    must run exactly :data:`TRANSIENTS_PER_CELL` transients.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    phases: Dict[str, List[tuple]] = {p: [] for p in PHASES}
    for cell in (s for s in spans if s[2] == "characterize.cell"):
        kids = sorted(children.get(cell[0], []), key=lambda s: s[3])
        if any(s[2] == "characterize.cache.load" and s[7] == "hit"
               for s in kids):
            continue
        steps = [s for s in kids if s[2] in ("analysis.operating_point",
                                             "analysis.transient")]
        transients = [s for s in steps if s[2] == "analysis.transient"]
        n_static = len(steps) - len(transients)
        if any(s[2] != "analysis.operating_point" for s in steps[:n_static]):
            raise TraceError(
                f"characterize_cell({cell[7]!r}) ran a transient before "
                "its static operating points")
        want = TRANSIENTS_PER_CELL.get(cell[7])
        if len(transients) != want:
            raise TraceError(
                f"characterize_cell({cell[7]!r}) ran {len(transients)} "
                f"transients, expected {want}")
        phases["static"].extend(steps[:n_static])
        for phase, span in zip(TRANSIENT_PHASES, transients):
            phases[phase].append(span)
    return phases


def layer_metrics(spans: List[tuple]) -> Dict[str, float]:
    """Per-layer metrics of the spans of one repetition.

    ``trace.overhead_frac`` needs an untraced run and is filled in by the
    ``run.py``; it is absent here.
    """
    out: Dict[str, float] = {k: 0.0 for k in CATALOGUE
                             if k != "trace.overhead_frac"}
    by_name: Dict[str, List[tuple]] = {}
    children: Dict[int, List[tuple]] = {}
    leaves: Dict[str, List[int]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
        children.setdefault(span[1], []).append(span)
        for leaf, rec in leaf_records(span).items():
            acc = leaves.setdefault(leaf, [0, 0, 0])
            for k in range(3):
                acc[k] += rec[k]

    def named(name: str) -> List[tuple]:
        return by_name.get(name, [])

    def self_s(name: str) -> float:
        return sum(s[6] for s in named(name)) / 1e9

    def dur_s(items) -> float:
        return sum(s[4] - s[3] for s in items) / 1e9

    out["experiments.self_s"] = sum(
        s[6] for s in spans if s[2].startswith("experiments.")) / 1e9
    out["characterize.cells"] = len(named("characterize.cell"))
    out["characterize.self_s"] = self_s("characterize.cell")
    loads = named("characterize.cache.load")
    out["characterize.cache.hits"] = sum(s[7] == "hit" for s in loads)
    out["characterize.cache.misses"] = sum(s[7] == "miss" for s in loads)
    out["characterize.cache.load_s"] = dur_s(loads)
    out["characterize.cache.store_s"] = dur_s(named("characterize.cache.store"))

    def subtree_count(root: tuple, name: str) -> int:
        count, todo = 0, [root]
        while todo:
            span = todo.pop()
            count += span[2] == name
            todo.extend(children.get(span[0], ()))
        return count

    for phase, items in _phase_spans(spans).items():
        prefix = f"characterize.phase.{phase}"
        out[f"{prefix}.s"] = dur_s(items)
        out[f"{prefix}.accepted_steps"] = sum(
            s[7][0] for s in items if s[2] == "analysis.transient")
        out[f"{prefix}.rejected_steps"] = sum(
            s[7][1] for s in items if s[2] == "analysis.transient")
        out[f"{prefix}.newton_solves"] = sum(
            subtree_count(s, "analysis.newton_solve") for s in items)

    tran = [s for s in named("analysis.transient") if s[8]]
    accepted = sum(s[7][0] for s in tran)
    rejected = sum(s[7][1] for s in tran)
    out["analysis.transient.calls"] = len(named("analysis.transient"))
    out["analysis.transient.self_s"] = self_s("analysis.transient")
    out["analysis.transient.accepted_steps"] = accepted
    out["analysis.transient.rejected_steps"] = rejected
    out["analysis.transient.accept_ratio"] = (
        accepted / (accepted + rejected) if accepted + rejected else 0.0)
    out["analysis.transient.events"] = sum(s[7][2] for s in tran)

    out["analysis.operating_point.calls"] = len(
        named("analysis.operating_point"))
    out["analysis.operating_point.self_s"] = self_s("analysis.operating_point")
    out["recovery.recover_dc.calls"] = len(named("recovery.recover_dc"))
    out["recovery.recover_dc.self_s"] = self_s("recovery.recover_dc")
    out["recovery.recover_transient_step.calls"] = len(
        named("recovery.recover_transient_step"))
    out["recovery.rungs_fired"] = sum(
        1 for name in ("recovery.recover_dc", "recovery.recover_transient_step")
        for s in named(name) if s[7])

    solves = named("analysis.newton_solve")
    out["analysis.newton_solve.calls"] = len(solves)
    out["analysis.newton_solve.self_s"] = self_s("analysis.newton_solve")
    out["analysis.newton_solve.failed"] = sum(not s[8] for s in solves)
    out["analysis.mna.restamps"] = leaves.get("analysis.mna.clear", [0])[0]
    clears = 3 * LEAF_NAMES.index("analysis.mna.clear")
    solve_restamps = sum(s[9][clears] for s in solves)
    out["analysis.newton.iters_per_solve"] = (
        solve_restamps / len(solves) if solves else 0.0)

    for kind in STAMPS:
        calls, _, self_ns = leaves.get(f"devices.stamp.{kind}", (0, 0, 0))
        out[f"devices.stamp.{kind}.calls"] = calls
        out[f"devices.stamp.{kind}.self_s"] = self_ns / 1e9
    out["assembly.self_s"] = sum(out[f"devices.stamp.{k}.self_s"]
                                 for k in STAMPS)
    calls, total, _ = leaves.get("linalg.solve", (0, 0, 0))
    out["linalg.solve.calls"] = calls
    out["linalg.solve.s"] = total / 1e9
    calls, _, self_ns = leaves.get("analysis.trust.certify", (0, 0, 0))
    out["analysis.trust.certify.calls"] = calls
    out["analysis.trust.certify.self_s"] = self_ns / 1e9

    for name in ("pg.e_cyc", "pg.break_even_time"):
        out[f"{name}.calls"] = len(named(name))
        out[f"{name}.self_s"] = self_s(name)
    return out

