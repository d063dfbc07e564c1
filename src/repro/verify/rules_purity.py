"""RV6xx: campaign task purity (project scope).

PR 4's executor guarantees bit-identical results across serial,
parallel and resumed runs — but only if every task function shipped to
a worker is *pure enough*: deterministic given its params, free of
module-state mutation, and writing nothing outside the journal/cache
APIs.  This band turns that tested property into a statically enforced
contract: task roots are every function referenced by a
``"module:function"`` string (the :class:`repro.exec.campaign.Campaign`
``fn`` contract) plus the named builders in
:mod:`repro.exec.registry`, and each check walks the call graph
*transitively* — an impure helper three calls deep is reported in the
helper's module, with the root and call chain in the message.

======  =====================  =====================================
code    name                   finding
======  =====================  =====================================
RV600   unresolved-task-ref    a ``"module:function"`` reference into
                               a linted module that has no such
                               function
RV601   task-state-mutation    a task-reachable function mutates a
                               global or module-level object
RV602   task-nondeterminism    a task-reachable function draws from
                               the global ``random``/legacy
                               ``numpy.random`` generators, calls
                               ``default_rng()`` unseeded, or reads
                               the wall clock
RV603   task-fs-write          a task-reachable function writes to the
                               filesystem outside the journal/cache
                               modules
RV604   task-signature         a task root's signature is not "one
                               JSON dict param": extra required
                               params, ``*args``/``**kwargs``, or
                               non-JSON-safe defaults
======  =====================  =====================================
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .core import Finding, SourceLocation, rule

#: Modules whose filesystem writes are the sanctioned persistence layer.
#: Matching is by dotted-name suffix so the rule works on fixture trees.
FS_EXEMPT_SUFFIXES = ("exec.journal", "exec.atomicio", "exec.envelope")

_ATOM_LABELS = {
    "global_write": "writes global {what}",
    "module_mutation": "mutates module-level state via {what}",
    "nondet": "draws nondeterminism from {what}",
    "clock": "reads the wall clock via {what}",
    "fs_write": "writes to the filesystem via {what}",
}


def _loc(pm, line: int) -> SourceLocation:
    return SourceLocation(line=line, text=pm.module.line_text(line))


def _reachable_atoms(pm, kinds: Tuple[str, ...]) -> Iterator[
        Tuple[str, str, str, int, str]]:
    """(fid, kind, what, line, chain) for task-reachable atoms here."""
    project = pm.project
    for qual in sorted(pm.summary.get("functions", ())):
        fid = f"{pm.name}:{qual}"
        roots = project.reach.get(fid)
        if not roots:
            continue
        root, chain = sorted(roots.items())[0]
        info = project.functions[fid]
        for atom in info.get("atoms", ()):
            kind, what, line = str(atom[0]), str(atom[1]), int(atom[2])
            if kind in kinds:
                yield fid, kind, what, line, chain


def _atom_findings(pm, kinds: Tuple[str, ...]) -> Iterator[Finding]:
    for fid, kind, what, line, chain in _reachable_atoms(pm, kinds):
        detail = _ATOM_LABELS[kind].format(what=what)
        via = f" (task entry: {chain})" if " -> " in chain else \
            " (this is a task entry point)"
        yield Finding(
            subject=fid,
            message=f"task-reachable function {detail}{via}; campaign "
                    "results must be a pure function of the task params",
            location=_loc(pm, line),
        )


@rule("RV600", "unresolved-task-ref", "project", "error",
      "a 'module:function' task reference points at a function that "
      "does not exist",
      rationale="a campaign whose fn string dangles fails only at "
                "dispatch time, inside a worker; resolve it statically.")
def check_unresolved_task_ref(pm) -> Iterator[Finding]:
    """RV600: dangling 'module:function' task references."""
    for ref, line in pm.project.unresolved_refs.get(pm.name, ()):
        yield Finding(
            subject=str(ref),
            message=f"task reference {ref!r} names a module in this tree "
                    "but no such function exists there",
            location=_loc(pm, int(line)),
        )


@rule("RV601", "task-state-mutation", "project", "error",
      "a function reachable from a campaign task mutates global or "
      "module-level state",
      rationale="workers sharing a process would see each other's "
                "mutations; resume would replay against drifted state — "
                "the bit-identical serial/parallel/resume guarantee dies.")
def check_task_state_mutation(pm) -> Iterator[Finding]:
    """RV601: task-reachable global/module-state mutation."""
    yield from _atom_findings(pm, ("global_write", "module_mutation"))


@rule("RV602", "task-nondeterminism", "project", "error",
      "a function reachable from a campaign task draws unseeded "
      "randomness or reads the wall clock",
      rationale="every sample in the paper's Monte-Carlo yield figures "
                "must be reproducible from (task id, seed); global RNGs "
                "and clocks make reruns silently diverge.")
def check_task_nondeterminism(pm) -> Iterator[Finding]:
    """RV602: task-reachable unseeded randomness or clock reads."""
    yield from _atom_findings(pm, ("nondet", "clock"))


@rule("RV603", "task-fs-write", "project", "error",
      "a function reachable from a campaign task writes to the "
      "filesystem outside the journal/cache APIs",
      rationale="two workers writing the same side file race; resumed "
                "runs double-write.  All task persistence goes through "
                "the append-only journal or the hardened cache.")
def check_task_fs_write(pm) -> Iterator[Finding]:
    """RV603: task-reachable filesystem writes outside journal/cache."""
    if pm.name.endswith(FS_EXEMPT_SUFFIXES):
        return
    yield from _atom_findings(pm, ("fs_write",))


@rule("RV604", "task-signature", "project", "warning",
      "a campaign task function does not take exactly one JSON-safe "
      "params argument",
      rationale="the executor calls fn(params) with a dict decoded from "
                "the journal; extra required params or exotic defaults "
                "fail only on dispatch.")
def check_task_signature(pm) -> Iterator[Finding]:
    """RV604: task roots whose signature breaks the params contract."""
    project = pm.project
    for fid in sorted(project.task_roots):
        if project.module_of(fid) != pm.name:
            continue
        info = project.functions[fid]
        sig = info.get("signature", {})
        line = int(info.get("line", 0))
        problems: List[str] = []
        if int(sig.get("required", 0)) != 1:
            problems.append(
                f"takes {sig.get('required', 0)} required positional "
                "parameter(s), the executor passes exactly one params dict")
        if sig.get("vararg") or sig.get("kwarg"):
            problems.append("*args/**kwargs cannot be populated from a "
                            "journaled params dict")
        for name in sig.get("kwonly_required", ()):
            problems.append(f"keyword-only parameter {name!r} has no "
                            "default")
        for bad in sig.get("bad_defaults", ()):
            problems.append(f"default {bad[2]} for {bad[0]!r} is not "
                            "JSON-safe")
        for problem in problems:
            yield Finding(subject=fid,
                          message=f"task function {problem}",
                          location=_loc(pm, line))
