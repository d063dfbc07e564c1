"""Differential / metamorphic solver-equivalence harness.

The numerical-trust layer (:mod:`repro.analysis.trust`) certifies each
*individual* solve; this module certifies the *solver as a whole*
against two independent oracles:

1. **A frozen golden corpus** — DC operating points and transient
   store/restore traces of the paper's cells (6T, NV-SRAM, NVFF, and
   the power-gating rail testbench), committed as content-hashed JSON
   under ``equiv_corpus/``.  ``equiv run`` re-simulates every case and
   compares each extracted quantity against the golden value through a
   per-quantity-kind tolerance model.  Any future solver (e.g. a
   batched core) must reproduce this corpus before it can land.

2. **Metamorphic invariants** — transformations of a deck whose effect
   on the solution is known exactly: relabeling/permuting nodes (a row
   permutation of the MNA system), rescaling every impedance by a
   power of two (voltages invariant, source powers scale by 1/k),
   driving sources through ``Context.source_scale`` versus scaling the
   source levels themselves (identical for linear decks), and
   perturbing gmin within its floor decade (bounded voltage shift on a
   low-impedance deck).  These need no corpus: the deck is its own
   oracle.

Command line::

    python -m repro equiv run [--strict] [--case NAME]... [--json OUT]
    python -m repro equiv update [--case NAME]...
    python -m repro equiv diff [--case NAME]...

``run --strict`` is the CI gate: it fails on any tolerance violation,
any failed invariant, any missing/corrupt corpus entry, and any corpus
hash mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..exec.atomicio import atomic_write_text

#: Corpus file format version; bump on incompatible layout changes.
CORPUS_SCHEMA = 1


class EquivError(ReproError):
    """The equivalence harness cannot run (bad case name, corrupt corpus)."""


# ---------------------------------------------------------------------------
# tolerance model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerance:
    """Symmetric absolute + relative tolerance for one quantity kind."""

    atol: float
    rtol: float

    def allows(self, got: float, want: float) -> bool:
        if not (np.isfinite(got) and np.isfinite(want)):
            return False
        if got == want:
            return True
        return abs(got - want) <= self.atol + self.rtol * abs(want)

    def margin(self, got: float, want: float) -> float:
        """|got - want| as a multiple of the allowance (>1 = violation)."""
        allowance = self.atol + self.rtol * abs(want)
        if allowance == 0.0:
            return 0.0 if got == want else float("inf")
        return abs(got - want) / allowance


#: Per-quantity-kind tolerances.  Voltages are the primary observable
#: (node potentials at a settled operating point are robust to solver
#: reorderings); energies integrate an adaptive-timestep trace, so they
#: get a looser relative band; counts and flags must match exactly.
TOLERANCES: Dict[str, Tolerance] = {
    "voltage": Tolerance(atol=1e-5, rtol=1e-4),
    "power": Tolerance(atol=1e-14, rtol=1e-3),
    "energy": Tolerance(atol=1e-17, rtol=2e-3),
    "time": Tolerance(atol=5e-12, rtol=5e-3),
    "count": Tolerance(atol=0.0, rtol=0.0),
    "flag": Tolerance(atol=0.0, rtol=0.0),
}


@dataclass(frozen=True)
class Quantity:
    """One extracted observable: a value plus its tolerance kind."""

    value: float
    kind: str

    def __post_init__(self):
        if self.kind not in TOLERANCES:
            raise EquivError(f"unknown quantity kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"value": float(self.value), "kind": self.kind}


# ---------------------------------------------------------------------------
# corpus cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """A reproducible simulation whose observables are frozen as golden."""

    name: str
    description: str
    runner: Callable[[], Dict[str, Quantity]]


def _cell_dc_case(kind: str, mode_name: str) -> Dict[str, Quantity]:
    """Operating point of the single-cell testbench in one mode."""
    from ..characterize.testbench import build_cell_testbench
    from ..pg.modes import Mode

    tb = build_cell_testbench(kind)
    sol = tb.settle(Mode(mode_name))
    out = {
        f"v({node})": Quantity(sol.voltage(node), "voltage")
        for node in (tb.cell.q, tb.cell.qb, "vvdd", "bl", "blb")
    }
    out["p(supply)"] = Quantity(tb.supply_power(sol), "power")
    return out


def _nvff_dc_case() -> Dict[str, Quantity]:
    """Operating point of the NV flip-flop bench holding a 1."""
    from ..characterize.ff_runner import build_ff_testbench, powered_ic
    from ..pg.modes import OperatingConditions
    from ..analysis import operating_point

    cond = OperatingConditions()
    circuit, ff = build_ff_testbench(cond)
    sol = operating_point(circuit, ic=powered_ic(ff, cond))
    return {
        f"v({node})": Quantity(sol.voltage(node), "voltage")
        for node in (ff.q, ff.s, ff.s3, "vvdd")
    } | {
        "p(vdd)": Quantity(circuit["vdd"].delivered_power(sol), "power"),
        "q-high": Quantity(float(ff.read_q(sol, cond.vdd)), "flag"),
    }


def _nv_store_case() -> Dict[str, Quantity]:
    """Two-step store transient of the NV-SRAM cell (H then L store)."""
    from ..characterize.runner import run_store, window_energy
    from ..characterize.testbench import build_cell_testbench

    tb = build_cell_testbench("nv")
    result, win_h, win_l = run_store(tb)
    final = result.final_solution()
    return {
        "e(store_h)": Quantity(window_energy(result, win_h), "energy"),
        "e(store_l)": Quantity(window_energy(result, win_l), "energy"),
        "v(q,final)": Quantity(final.voltage(tb.cell.q), "voltage"),
        "v(qb,final)": Quantity(final.voltage(tb.cell.qb), "voltage"),
        "mtj-events": Quantity(float(len(result.events)), "count"),
        "stored-1": Quantity(
            float(tb.nv_cell.stored_data(tb.circuit) is True), "flag"),
    }


def _nv_restore_case() -> Dict[str, Quantity]:
    """Collapsed-rail wake-up recall of the NV-SRAM cell."""
    from ..characterize.runner import run_restore, window_energy
    from ..characterize.testbench import build_cell_testbench

    tb = build_cell_testbench("nv")
    result, window = run_restore(tb)
    final = result.final_solution()
    return {
        "e(restore)": Quantity(window_energy(result, window), "energy"),
        "v(q,final)": Quantity(final.voltage(tb.cell.q), "voltage"),
        "v(qb,final)": Quantity(final.voltage(tb.cell.qb), "voltage"),
        "restored-1": Quantity(
            float(tb.cell.read_data(final, tb.cond.vdd)), "flag"),
    }


def _pg_rail_case() -> Dict[str, Quantity]:
    """Virtual-rail decay after a super-cutoff shutdown (6T bench).

    The floating-VVDD trace is the conditioning-hostile corner the
    trust layer defends; freezing it pins both the rail dynamics and
    the DC leakage divider a batched solver must reproduce.
    """
    from ..characterize.testbench import build_cell_testbench
    from ..circuit.waveforms import PiecewiseLinear
    from ..pg.modes import Mode
    from ..analysis import transient
    from ..analysis.transient import TransientOptions

    tb = build_cell_testbench("6t")
    cond = tb.cond
    tb.apply_mode(Mode.STANDBY)
    # Super-cutoff the header switch 1 ns in (100 ps gate ramp).
    tb.circuit["vpg"].set_waveform(PiecewiseLinear(
        [(0.0, 0.0), (1e-9, 0.0), (1.1e-9, cond.v_pg_super)]))
    result = transient(tb.circuit, 8e-9, ic=tb.initial_conditions(True),
                       options=TransientOptions(dt_max=0.2e-9))
    out = {
        f"v(vvdd,{t * 1e9:g}ns)": Quantity(
            float(result.sample("vvdd", t)), "voltage")
        for t in (0.5e-9, 2e-9, 4e-9, 8e-9)
    }
    out["v(q,final)"] = Quantity(
        result.final_solution().voltage(tb.cell.q), "voltage")
    return out


CASES: Dict[str, Case] = {
    case.name: case for case in (
        Case("6t-standby-op",
             "6T cell testbench, normal-mode operating point",
             lambda: _cell_dc_case("6t", "standby")),
        Case("6t-sleep-op",
             "6T cell testbench, 0.7 V retention-sleep operating point",
             lambda: _cell_dc_case("6t", "sleep")),
        Case("nv-standby-op",
             "NV-SRAM cell testbench, normal-mode operating point",
             lambda: _cell_dc_case("nv", "standby")),
        Case("nv-shutdown-op",
             "NV-SRAM cell testbench, super-cutoff floating-VVDD point",
             lambda: _cell_dc_case("nv", "shutdown")),
        Case("nvff-op",
             "NV flip-flop bench, powered operating point holding a 1",
             _nvff_dc_case),
        Case("nv-store-tran",
             "NV-SRAM two-step store transient (both MTJs flip)",
             _nv_store_case),
        Case("nv-restore-tran",
             "NV-SRAM collapsed-rail restore transient",
             _nv_restore_case),
        Case("pg-rail-tran",
             "6T bench virtual-rail decay after super-cutoff shutdown",
             _pg_rail_case),
    )
}


# ---------------------------------------------------------------------------
# corpus storage
# ---------------------------------------------------------------------------

def default_corpus_dir() -> Path:
    """The committed golden corpus shipped inside the package."""
    return Path(__file__).resolve().parent / "equiv_corpus"


def content_hash(payload: Dict[str, object]) -> str:
    """sha256 of the canonical JSON encoding (sans the hash field)."""
    body = {k: payload[k] for k in sorted(payload) if k != "hash"}
    blob = json.dumps(body, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def golden_payload(case: Case,
                   quantities: Dict[str, Quantity]) -> Dict[str, object]:
    """Serialisable corpus entry for ``case``, content hash included."""
    payload: Dict[str, object] = {
        "schema": CORPUS_SCHEMA,
        "case": case.name,
        "description": case.description,
        "quantities": {name: q.to_dict()
                       for name, q in sorted(quantities.items())},
    }
    payload["hash"] = content_hash(payload)
    return payload


def load_golden(name: str, corpus_dir: Path) -> Dict[str, Quantity]:
    """Read and integrity-check one golden corpus entry."""
    path = corpus_dir / f"{name}.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise EquivError(f"no golden corpus entry for {name!r} "
                         f"(expected {path}); run 'repro equiv update'")
    except json.JSONDecodeError as exc:
        raise EquivError(f"corrupt corpus entry {path}: {exc}") from exc
    if payload.get("schema") != CORPUS_SCHEMA:
        raise EquivError(f"{path}: corpus schema "
                         f"{payload.get('schema')!r} != {CORPUS_SCHEMA}")
    if payload.get("hash") != content_hash(payload):
        raise EquivError(f"{path}: content hash mismatch — the golden "
                         "entry was edited by hand or truncated; "
                         "regenerate it with 'repro equiv update'")
    return {
        name_: Quantity(float(entry["value"]), str(entry["kind"]))
        for name_, entry in payload.get("quantities", {}).items()
    }


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Delta:
    """One quantity compared against its golden value."""

    name: str
    kind: str
    got: float
    want: float
    ok: bool
    margin: float

    def render(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return (f"    {status} {self.name:<22} got {self.got: .9g}  "
                f"want {self.want: .9g}  ({self.kind}, "
                f"{self.margin:.2f}x allowance)")


@dataclass
class CaseReport:
    """Outcome of one corpus case: drift deltas or a harness error."""

    case: str
    deltas: List[Delta] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(d.ok for d in self.deltas)

    @property
    def failures(self) -> List[Delta]:
        return [d for d in self.deltas if not d.ok]


def compare(quantities: Dict[str, Quantity],
            golden: Dict[str, Quantity]) -> List[Delta]:
    """Per-quantity deltas; quantities added/removed fail exactly."""
    deltas: List[Delta] = []
    for name in sorted(set(quantities) | set(golden)):
        got = quantities.get(name)
        want = golden.get(name)
        if got is None or want is None:
            present = got or want
            deltas.append(Delta(
                name=name, kind=present.kind,
                got=float("nan") if got is None else got.value,
                want=float("nan") if want is None else want.value,
                ok=False, margin=float("inf"),
            ))
            continue
        tol = TOLERANCES[want.kind]
        deltas.append(Delta(
            name=name, kind=want.kind, got=got.value, want=want.value,
            ok=tol.allows(got.value, want.value),
            margin=tol.margin(got.value, want.value),
        ))
    return deltas


# ---------------------------------------------------------------------------
# metamorphic invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _ladder_deck(rename: Callable[[str], str], scale: float = 1.0):
    """A fixed five-resistor ladder with a FinFET follower.

    ``rename`` maps every internal node name (relabeling invariance);
    ``scale`` multiplies every impedance — resistances up, the FinFET's
    specific current down — so the whole deck, nonlinearity included,
    is exactly rescale-invariant in its node voltages.  The element mix
    (linear ladder + one nonlinear device) exercises both the LU path
    and the Newton linearisation.
    """
    from ..circuit import Circuit, Resistor, VoltageSource
    from ..devices import FinFET, NFET_20NM_HP

    c = Circuit("equiv-ladder")
    n = [rename(name) for name in ("a", "b", "mid", "tail", "out")]
    card = NFET_20NM_HP.with_(i_spec=NFET_20NM_HP.i_spec / scale)
    c.add(VoltageSource("vs", n[0], "0", dc=0.9))
    c.add(Resistor("r1", n[0], n[1], 1e3 * scale))
    c.add(Resistor("r2", n[1], n[2], 2e3 * scale))
    c.add(Resistor("r3", n[2], "0", 4e3 * scale))
    c.add(Resistor("r4", n[2], n[3], 8e3 * scale))
    c.add(Resistor("r5", n[3], "0", 1e3 * scale))
    c.add(FinFET("m1", n[4], n[2], "0", card))
    c.add(Resistor("rload", n[0], n[4], 20e3 * scale))
    return c, n


def _check_relabel() -> CheckResult:
    """Renaming every node permutes MNA rows; voltages must not move."""
    from ..analysis import operating_point

    base, nodes = _ladder_deck(lambda s: s)
    # Reversed-sorting names permutes the compiled node order.
    relabeled, renamed = _ladder_deck(lambda s: f"zz_{s[::-1]}")
    sol_a = operating_point(base)
    sol_b = operating_point(relabeled)
    worst = max(abs(sol_a.voltage(a) - sol_b.voltage(b))
                for a, b in zip(nodes, renamed))
    return CheckResult("node-relabel", worst <= 1e-9,
                       f"worst voltage shift {worst:.3g} V (<= 1e-9)")


def _check_unit_rescale() -> CheckResult:
    """x1024 impedance rescale: voltages fixed, source power / 1024."""
    from ..analysis import operating_point

    k = 1024.0
    base, nodes = _ladder_deck(lambda s: s)
    scaled, _ = _ladder_deck(lambda s: s, scale=k)
    sol_a = operating_point(base)
    sol_b = operating_point(scaled)
    worst_v = max(abs(sol_a.voltage(n) - sol_b.voltage(n)) for n in nodes)
    p_a = base["vs"].delivered_power(sol_a)
    p_b = scaled["vs"].delivered_power(sol_b)
    # gmin does not rescale (it is the solver's own floor): on the
    # scaled 20 MOhm branch it injects ~V*gmin/g ~ 2e-5 V, bounding the
    # attainable exactness.  These bands still catch any real unit bug.
    power_ok = abs(p_b * k - p_a) <= 1e-3 * abs(p_a)
    ok = worst_v <= 5e-5 and power_ok
    return CheckResult(
        "unit-rescale", ok,
        f"worst voltage shift {worst_v:.3g} V (<= 5e-5); "
        f"power ratio {p_a / p_b if p_b else float('inf'):.1f} (want ~{k:g})")


def _check_supply_scale() -> CheckResult:
    """``Context.source_scale`` must equal scaling the levels directly."""
    from ..analysis import operating_point
    from ..analysis.mna import Context
    from ..analysis.solver import newton_solve

    alpha = 0.5
    deck, nodes = _ladder_deck(lambda s: s)
    deck.compile()
    ctx = Context(source_scale=alpha)
    x = newton_solve(deck, ctx, np.zeros(deck.size))

    manual, _ = _ladder_deck(lambda s: s)
    manual["vs"].set_level(0.9 * alpha)
    sol = operating_point(manual)
    worst = max(abs(x[deck.index_of(n)] - sol.voltage(n)) for n in nodes)
    return CheckResult("supply-scale", worst <= 1e-6,
                       f"worst voltage shift {worst:.3g} V (<= 1e-6)")


def _check_gmin_perturbation() -> CheckResult:
    """A decade of gmin must not move a low-impedance deck's voltages."""
    from ..analysis.mna import Context
    from ..analysis.solver import NewtonOptions, newton_solve

    deck, nodes = _ladder_deck(lambda s: s)
    deck.compile()
    x_lo = newton_solve(deck, Context(), np.zeros(deck.size),
                        NewtonOptions(gmin=1e-12))
    x_hi = newton_solve(deck, Context(), np.zeros(deck.size),
                        NewtonOptions(gmin=1e-11))
    worst = max(abs(x_lo[deck.index_of(n)] - x_hi[deck.index_of(n)])
                for n in nodes)
    # Bound: dV <= V * R_node * dgmin; kOhm nodes at 0.9 V give ~1e-8.
    return CheckResult("gmin-perturbation", worst <= 1e-6,
                       f"worst voltage shift {worst:.3g} V (<= 1e-6)")


METAMORPHIC_CHECKS: Tuple[Callable[[], CheckResult], ...] = (
    _check_relabel,
    _check_unit_rescale,
    _check_supply_scale,
    _check_gmin_perturbation,
)


def run_metamorphic_checks() -> List[CheckResult]:
    """Run every metamorphic invariant; needs no golden data."""
    return [check() for check in METAMORPHIC_CHECKS]


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

@dataclass
class EquivReport:
    """Full outcome of an ``equiv run``/``diff`` invocation."""

    cases: List[CaseReport] = field(default_factory=list)
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (all(c.ok for c in self.cases)
                and all(c.ok for c in self.checks))

    def render(self, verbose: bool = False) -> str:
        lines = ["solver-equivalence gate"]
        for report in self.cases:
            if report.error is not None:
                lines.append(f"  ERROR {report.case}: {report.error}")
                continue
            n_fail = len(report.failures)
            status = "ok" if report.ok else f"{n_fail} FAILING"
            lines.append(f"  {'ok  ' if report.ok else 'FAIL'} "
                         f"{report.case:<18} "
                         f"{len(report.deltas)} quantities, {status}")
            shown = report.deltas if verbose else report.failures
            lines.extend(d.render() for d in shown)
        for check in self.checks:
            lines.append(f"  {'ok  ' if check.ok else 'FAIL'} "
                         f"{check.name:<18} {check.detail}")
        lines.append("gate: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        # bool()/float() coercion: comparison results computed from numpy
        # scalars arrive as np.bool_/np.float64, which json.dumps rejects.
        return {
            "ok": bool(self.ok),
            "cases": [
                {
                    "case": r.case,
                    "ok": bool(r.ok),
                    "error": r.error,
                    "deltas": [
                        {"name": d.name, "kind": d.kind,
                         "got": float(d.got), "want": float(d.want),
                         "ok": bool(d.ok), "margin": float(d.margin)}
                        for d in r.deltas
                    ],
                }
                for r in self.cases
            ],
            "checks": [
                {"name": c.name, "ok": bool(c.ok), "detail": c.detail}
                for c in self.checks
            ],
        }


def select_cases(names: Optional[Sequence[str]] = None) -> List[Case]:
    """Resolve case names to :class:`Case` objects (all when empty)."""
    if not names:
        return list(CASES.values())
    missing = [n for n in names if n not in CASES]
    if missing:
        known = ", ".join(sorted(CASES))
        raise EquivError(f"unknown case(s) {missing}; known: {known}")
    return [CASES[n] for n in names]


def run_suite(case_names: Optional[Sequence[str]] = None,
              corpus_dir: Optional[Path] = None,
              checks: bool = True) -> EquivReport:
    """Re-simulate the selected cases and diff them against the corpus.

    Harness-level problems (missing/corrupt corpus entries, a case that
    raises) land in :attr:`CaseReport.error` rather than aborting the
    whole run, so one broken case cannot hide drift in the others.
    """
    corpus = corpus_dir or default_corpus_dir()
    report = EquivReport()
    for case in select_cases(case_names):
        entry = CaseReport(case=case.name)
        report.cases.append(entry)
        try:
            golden = load_golden(case.name, corpus)
            quantities = case.runner()
        except (EquivError, ReproError) as exc:
            entry.error = str(exc)
            continue
        entry.deltas = compare(quantities, golden)
    if checks:
        report.checks = run_metamorphic_checks()
    return report


def update_corpus(case_names: Optional[Sequence[str]] = None,
                  corpus_dir: Optional[Path] = None) -> List[Path]:
    """Re-simulate the selected cases and (re)write their golden files."""
    corpus = corpus_dir or default_corpus_dir()
    corpus.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for case in select_cases(case_names):
        payload = golden_payload(case, case.runner())
        path = corpus / f"{case.name}.json"
        atomic_write_text(path,
                          json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
        written.append(path)
    return written
