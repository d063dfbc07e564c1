"""Fault injection: stress the recovery ladder with broken circuits.

The NV-SRAM corner sweeps only matter if the solver survives pathological
inputs, so this harness deliberately breaks decks the way silicon (and
variation models) break them:

* ``vth_shift`` — a FinFET threshold pushed far off its card;
* ``device_open`` — a FinFET's current factor collapsed to ~zero (an
  open device: floating gates and cut-off stacks downstream);
* ``mtj_drift`` — an MTJ RA product scaled orders of magnitude (toward
  open or short);
* ``node_short`` — a low-ohmic short from an internal node to ground;
* ``node_bridge`` — a low-ohmic bridge between two internal nodes;
* ``bad_ic`` — a corrupted initial-condition entry (e.g. a storage node
  "remembered" outside the rails).

:func:`chaos_operating_points` is the chaos mode used by the stress
tests and the ``python -m repro chaos`` CLI: every injected fault must
either converge (possibly via a ladder rung) or produce a structured
:class:`~repro.recovery.partial.SkipRecord` — never an unhandled
exception, never a silent abort of the remaining points.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuit import Resistor
from ..devices.finfet import FinFET
from ..devices.mtj import MTJ
from ..errors import AnalysisError
from .forensics import chaos_report
from .partial import SkipRecord

#: All fault kinds the sampler draws from.
FAULT_KINDS = ("vth_shift", "device_open", "mtj_drift", "node_short",
               "node_bridge", "bad_ic")

#: Resistance of injected shorts/bridges (ohms).
_R_SHORT = 1.0

#: Newton iterations per step of a faulted chaos store transient.  Tight
#: on purpose: under the default budget no step of those runs fails
#: Newton, so the suite would never reach the transient recovery ladder
#: (docs/ROBUSTNESS.md).
_TRANSIENT_NEWTON_BUDGET = 3


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    ``target`` names an element (parameter faults) or a node (shorts,
    corrupted ICs); ``aux`` carries the second node of a bridge.
    """

    kind: str
    target: str
    magnitude: float = 0.0
    aux: str = ""

    def describe(self) -> str:
        if self.kind == "vth_shift":
            return f"vth of {self.target} shifted {self.magnitude:+.2f} V"
        if self.kind == "device_open":
            return f"{self.target} opened (i_spec x {self.magnitude:g})"
        if self.kind == "mtj_drift":
            return f"{self.target} RA product x {self.magnitude:g}"
        if self.kind == "node_short":
            return f"{self.target} shorted to ground ({_R_SHORT:g} ohm)"
        if self.kind == "node_bridge":
            return f"{self.target} bridged to {self.aux} ({_R_SHORT:g} ohm)"
        if self.kind == "bad_ic":
            return f"ic[{self.target}] corrupted to {self.magnitude:.2f} V"
        return f"{self.kind} on {self.target}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "target": self.target,
                "magnitude": self.magnitude, "aux": self.aux,
                "description": self.describe()}


def _fets(circuit) -> List[FinFET]:
    return [e for e in circuit.elements() if isinstance(e, FinFET)]


def _mtjs(circuit) -> List[MTJ]:
    return [e for e in circuit.elements() if isinstance(e, MTJ)]


def _internal_nodes(circuit) -> List[str]:
    """Nodes that belong to the cell under test, not the ideal sources."""
    circuit.compile()
    driven = set()
    for element in circuit.elements():
        if type(element).__name__ == "VoltageSource":
            driven.add(element.node_names[0])
    return [n for n in circuit.node_names() if n not in driven]


def sample_fault(circuit, rng: np.random.Generator,
                 kinds: Sequence[str] = FAULT_KINDS) -> FaultSpec:
    """Draw one random fault applicable to ``circuit``."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    for kind in kinds:
        spec = _try_sample(circuit, rng, kind)
        if spec is not None:
            return spec
    raise ValueError("no fault kind applicable to this circuit")


def _try_sample(circuit, rng: np.random.Generator,
                kind: str) -> Optional[FaultSpec]:
    if kind == "vth_shift":
        fets = _fets(circuit)
        if not fets:
            return None
        shift = float(rng.uniform(0.15, 0.45)) * (1 if rng.random() < 0.5
                                                  else -1)
        return FaultSpec(kind, str(rng.choice([f.name for f in fets])),
                         magnitude=shift)
    if kind == "device_open":
        fets = _fets(circuit)
        if not fets:
            return None
        return FaultSpec(kind, str(rng.choice([f.name for f in fets])),
                         magnitude=1e-9)
    if kind == "mtj_drift":
        mtjs = _mtjs(circuit)
        if not mtjs:
            return None
        scale = float(10.0 ** rng.uniform(1.0, 3.0))
        if rng.random() < 0.5:
            scale = 1.0 / scale
        return FaultSpec(kind, str(rng.choice([m.name for m in mtjs])),
                         magnitude=scale)
    if kind == "node_short":
        nodes = _internal_nodes(circuit)
        if not nodes:
            return None
        return FaultSpec(kind, str(rng.choice(nodes)))
    if kind == "node_bridge":
        nodes = _internal_nodes(circuit)
        if len(nodes) < 2:
            return None
        a, b = rng.choice(nodes, size=2, replace=False)
        return FaultSpec(kind, str(a), aux=str(b))
    if kind == "bad_ic":
        nodes = _internal_nodes(circuit)
        if not nodes:
            return None
        level = float(rng.uniform(-0.9, 1.8))
        return FaultSpec(kind, str(rng.choice(nodes)), magnitude=level)
    return None


_FAULT_COUNTER = 0


def inject_fault(circuit, fault: FaultSpec) -> Dict[str, float]:
    """Apply ``fault`` to ``circuit`` in place.

    Returns an initial-condition override map (non-empty only for
    ``bad_ic`` faults) the caller must merge into its ``ic`` mapping.
    """
    global _FAULT_COUNTER
    if fault.kind == "vth_shift":
        element = circuit[fault.target]
        element.params = element.params.with_(
            vth0=max(element.params.vth0 + fault.magnitude, 0.01))
        return {}
    if fault.kind == "device_open":
        element = circuit[fault.target]
        element.params = element.params.with_(
            i_spec=element.params.i_spec * fault.magnitude)
        return {}
    if fault.kind == "mtj_drift":
        element = circuit[fault.target]
        element.params = element.params.with_(
            ra_product=element.params.ra_product * fault.magnitude)
        return {}
    if fault.kind in ("node_short", "node_bridge"):
        _FAULT_COUNTER += 1
        other = fault.aux if fault.kind == "node_bridge" else "0"
        circuit.add(Resistor(f"rfault{_FAULT_COUNTER}", fault.target,
                             other, _R_SHORT))
        return {}
    if fault.kind == "bad_ic":
        return {fault.target: fault.magnitude}
    raise ValueError(f"unknown fault kind: {fault.kind}")


# ---------------------------------------------------------------------------
# solver chaos: faults against the circuit
# ---------------------------------------------------------------------------

def _chaos_testbench(target: str, cond=None, domain=None):
    """Fresh ``(bench, circuit)`` for a chaos target (lazy heavy imports).

    The NV-FF bench has no cell-testbench wrapper, so its ``bench`` is
    ``None``.
    """
    from ..characterize.ff_runner import build_ff_testbench
    from ..characterize.testbench import build_cell_testbench

    if target in ("nv", "6t"):
        bench = build_cell_testbench(target, cond, domain)
        return bench, bench.circuit
    if target == "nvff":
        return None, build_ff_testbench(cond)[0]
    raise ValueError(f"unknown chaos target: {target}")


def _solver_suite(suite: str, target: str, n_faults: int, seed: int,
                  kinds: Sequence[str], build, solve) -> dict:
    """The sample → inject → solve → classify loop of both solver suites.

    ``build()`` returns a fresh ``(bench, circuit)``; ``solve(bench,
    circuit, ic_override)`` runs the suite's analyses and returns the
    last recovery rung that fired (``None`` when none did).  Analysis
    failures become skip records, so the loop never aborts early: a
    record is ok once its fault is handled — converged, recovered by a
    rung, or skipped with a structured
    :class:`~repro.recovery.partial.SkipRecord` — and any other
    exception escapes the suite instead of hiding in the report.
    """
    rng = np.random.default_rng(seed)
    records = []
    for index in range(n_faults):
        bench, circuit = build()
        fault = sample_fault(circuit, rng, kinds)
        ic_override = inject_fault(circuit, fault)
        rung, skip = None, None
        try:
            rung = solve(bench, circuit, ic_override)
        except AnalysisError as err:
            skip = SkipRecord.from_error(
                err, index=index, label=fault.describe(),
                stage=f"chaos:{target}", fault=fault.to_dict()).to_dict()
        if skip is not None:
            actual, detail = "skipped", f"{skip['error_type']}: {skip['reason']}"
        elif rung is not None:
            actual, detail = "recovered", f"rung: {rung}"
        else:
            actual, detail = "converged", ""
        records.append({"name": fault.describe(),
                        "expected": "converged, recovered or skipped",
                        "actual": actual, "ok": True, "detail": detail,
                        "fault": fault.to_dict(), "rung": rung,
                        "skip": skip})
    return chaos_report(suite, records, n_faults, target=target, seed=seed)


def chaos_operating_points(
    target: str = "nv",
    n_faults: int = 20,
    seed: int = 2015,
    cond=None,
    domain=None,
    kinds: Sequence[str] = FAULT_KINDS,
) -> dict:
    """Inject ``n_faults`` faults into fresh decks and solve each one.

    For the cell targets (``"nv"``, ``"6t"``) every faulted deck is
    solved in the standby mode and — NV only — the H-store mode, the two
    DC corners the Fig. 3–4 sweeps hammer; the NV-FF bench gets one
    plain operating point.  Returns the ``solver-dc``
    :func:`~repro.recovery.forensics.chaos_report` with one record per
    fault.
    """
    from ..analysis import operating_point
    from ..characterize.testbench import STORE_STEPS
    from ..pg.modes import Mode

    modes = {"nv": [Mode.STANDBY, Mode.STORE_H],
             "6t": [Mode.STANDBY]}.get(target, [None])

    def solve(bench, circuit, ic_override) -> Optional[str]:
        rung = None
        for mode in modes:
            ic = None
            if mode is not None:
                if mode in STORE_STEPS:
                    bench.store_step(mode)
                else:
                    bench.apply_mode(mode)
                ic = {**bench.initial_conditions(True), **ic_override}
            rung = operating_point(circuit, ic=ic).recovery_rung or rung
        return rung

    return _solver_suite("solver-dc", target, n_faults, seed, kinds,
                         lambda: _chaos_testbench(target, cond, domain),
                         solve)


def chaos_store_transient(
    n_faults: int = 5,
    seed: int = 2015,
    cond=None,
    domain=None,
    kinds: Sequence[str] = FAULT_KINDS,
) -> dict:
    """Transient chaos: a shortened two-step store on faulted NV decks.

    Each step is solved under a ``_TRANSIENT_NEWTON_BUDGET``-iteration
    Newton budget, so a fault that slows convergence climbs
    :func:`~repro.recovery.ladder.recover_transient_step`.  Heavier than
    :func:`chaos_operating_points` (each fault costs a transient), so
    the stress suite and the ``--transient`` CLI flag use small fault
    counts.  Returns the ``solver-transient`` chaos report.
    """
    from ..analysis import transient
    from ..analysis.solver import NewtonOptions
    from ..analysis.transient import TransientOptions
    from ..pg.modes import Mode, OperatingConditions
    from ..pg.scheduler import Schedule, ScheduleStep

    cond = cond or OperatingConditions()

    def solve(tb, circuit, ic_override) -> Optional[str]:
        schedule = Schedule(
            [ScheduleStep(Mode.STANDBY, 0.5e-9),
             ScheduleStep(Mode.STORE_H, cond.t_store_step / 4),
             ScheduleStep(Mode.STORE_L, cond.t_store_step / 4)],
            cond, volatile=False,
        )
        tb.apply_waveforms(schedule.line_waveforms())
        tb.set_mtj_data(False)
        ic = {**tb.initial_conditions(True), **ic_override}
        options = TransientOptions(dt_initial=20e-12, newton=NewtonOptions(
            max_iterations=_TRANSIENT_NEWTON_BUDGET))
        result = transient(circuit, schedule.total_duration, ic=ic,
                           options=options)
        return result.recoveries[-1]["rung"] if result.recoveries else None

    return _solver_suite("solver-transient", "nv:store-transient", n_faults,
                         seed, kinds,
                         lambda: _chaos_testbench("nv", cond, domain), solve)


# ---------------------------------------------------------------------------
# executor chaos: faults against the campaign engine itself
# ---------------------------------------------------------------------------

#: Process-level fault kinds injected into :mod:`repro.exec` workers by
#: the executor chaos harness (``repro chaos --executor``).  These break
#: the *execution substrate*, not the circuit: the campaign engine must
#: classify each one and still deliver an N-in/N-out accounting.
EXEC_FAULT_KINDS = ("worker_crash", "worker_hang", "slow_task",
                    "flaky_crash", "task_error", "conv_skip")

#: The terminal state the executor must drive each fault kind to.
#: ``None`` (healthy) and ``slow_task`` complete; a ``flaky_crash``
#: completes *after* a retry; deterministic convergence failures are
#: record-and-skip; hard crashes/hangs exhaust the retry budget and
#: poison errors quarantine immediately.
EXEC_FAULT_EXPECTED = {
    None: "completed",
    "slow_task": "completed",
    "flaky_crash": "completed",
    "conv_skip": "skipped",
    "worker_crash": "quarantined",
    "worker_hang": "quarantined",
    "task_error": "quarantined",
}


def build_executor_chaos_campaign(scratch, n_healthy: int = 4,
                                  seed: int = 2015,
                                  kinds: Sequence[str] = EXEC_FAULT_KINDS):
    """Campaign mixing healthy tasks with one task per executor fault.

    ``scratch`` is a writable directory the ``flaky_crash`` tasks use
    for their crash-once markers; it also namespaces the campaign key.
    The ``worker_hang`` task carries its own 1 s watchdog: it counts
    from the worker's start message, so the spawn import is not
    charged, and the hung task is still killed on every attempt and
    quarantined without the run waiting out the campaign-wide
    ``task_timeout``.
    """
    from ..exec import Campaign, make_task

    tasks = []
    index = 0
    for kind in kinds:
        params = {"index": index, "fault": kind, "scratch": str(scratch)}
        if kind == "slow_task":
            params["delay"] = 0.2
        timeout = 1.0 if kind == "worker_hang" else None
        tasks.append(make_task(params, label=f"fault:{kind}",
                               timeout=timeout))
        index += 1
    rng = np.random.default_rng(seed)
    for _ in range(n_healthy):
        tasks.append(make_task(
            {"index": index, "fault": None, "scratch": str(scratch),
             "work": round(float(rng.uniform(0.0, 0.05)), 4)},
            label=f"healthy {index}"))
        index += 1
    return Campaign(name="exec-chaos", fn="repro.exec.tasks:chaos_task",
                    tasks=tasks)


def chaos_executor(scratch, n_healthy: int = 4, workers: int = 2,
                   seed: int = 2015, task_timeout: float = 5.0,
                   max_retries: int = 1,
                   kinds: Sequence[str] = EXEC_FAULT_KINDS,
                   progress=None) -> dict:
    """Run the executor chaos campaign and audit the outcomes.

    Every injected fault must land in exactly the terminal state of
    :data:`EXEC_FAULT_EXPECTED` — N tasks in, N classified outcomes out,
    no unhandled exception, no lost task.  Returns the ``executor``
    :func:`~repro.recovery.forensics.chaos_report`, one record per task
    outcome (``attempts`` says how often it ran).
    """
    from ..exec import CampaignOptions, run_campaign

    # The flaky_crash task writes its crash-once marker here.
    Path(scratch).mkdir(parents=True, exist_ok=True)
    campaign = build_executor_chaos_campaign(scratch, n_healthy, seed,
                                             kinds)
    options = CampaignOptions(
        workers=workers,
        task_timeout=task_timeout,
        max_retries=max_retries,
        backoff_base=0.05,
        backoff_cap=0.5,
        progress=progress,
    )
    result = run_campaign(campaign, options)

    records = []
    for task in campaign.tasks:
        outcome = result.outcome(task.task_id)
        if outcome is None:
            continue            # a lost task: n_out falls short of n_in
        fault = task.params.get("fault")
        expected = EXEC_FAULT_EXPECTED.get(fault, "completed")
        ok = outcome.status == expected
        if fault == "flaky_crash":
            ok = ok and outcome.attempts >= 2   # must have actually retried
        records.append({"name": task.label, "expected": expected,
                        "actual": outcome.status, "ok": ok,
                        "detail": f"{outcome.attempts} attempt(s)",
                        "attempts": outcome.attempts})
    return chaos_report("executor", records, len(campaign.tasks),
                        retries=result.retries)
