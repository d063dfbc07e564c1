"""Power-gating-aware structural rules (RV1xx).

These checks encode the paper's cell topologies: NVPG/NOF cells hang a
PS-FinFET + MTJ retention branch off each latch node, and every cell
sits behind a header power switch creating a virtual-VDD rail.  The
classic wiring mistakes each have a rule:

* **RV101 islanded-node** — a group of nodes with no DC conduction path
  to any rail: it floats in *every* mode, not just sleep.
* **RV102 orphan-mtj** — an MTJ that is not wired into any transistor
  store path: store currents can never be steered through it.
* **RV103 always-on-store-path** — an MTJ sitting directly on a latch
  storage node with no PS-FinFET in between: the store path loads the
  latch permanently, which defeats the NVPG separation (and burns
  store-class current during normal operation).
* **RV104 undriven-retention-gate** — a PS-FinFET whose gate is not a
  driven control line, so the store path can never be activated (or
  never deactivated).
* **RV105 pg-bypass** — an ungateable DC path from a power switch's
  supply rail into its gated domain: leakage flows around the switch,
  invalidating every shutdown-power and break-even-time figure.
"""

from __future__ import annotations

from typing import Iterator, Set

from ..circuit.netlist import Circuit
from ..circuit.passives import Capacitor
from ..devices.finfet import FinFET
from ..devices.mtj import MTJ
from .core import Finding, rule
from .topology import (
    GROUND,
    adjacency,
    canon,
    conduction_edges,
    finfets,
    hard_rail_nodes,
    mtjs,
    power_switches,
    reachable,
    storage_nodes,
)
from .rules_circuit import _compiles


@rule("RV101", "islanded-node", "circuit", "error",
      "A node group has no DC conduction path to any rail",
      "An island keeps no defined potential: during sleep or shutdown "
      "it drifts with leakage and gmin, and any 'energy' computed from "
      "it is noise.  Islands of one purely-capacitive node are left to "
      "RV002 (a deliberate dynamic node is only a warning).")
def check_islands(circuit: Circuit) -> Iterator[Finding]:
    """Group nodes into conduction components; flag rail-less ones."""
    if not _compiles(circuit):
        return
    rails = hard_rail_nodes(circuit)
    adj = adjacency(conduction_edges(circuit))
    nodes = [canon(n) for n in circuit.node_names()]
    seen: Set[str] = set()
    for start in nodes:
        if start in seen or start in rails:
            continue
        component = _component(start, adj)
        seen |= component
        if component & rails or GROUND in component:
            continue
        members = sorted(component)
        if len(members) == 1 and _only_capacitors(circuit, members[0]):
            continue   # RV002's case: a single dynamic node
        yield Finding(
            subject=members[0],
            message=("node" + ("s " if len(members) > 1 else " ")
                     + ", ".join(repr(m) for m in members)
                     + " have no DC path to any supply rail or ground; "
                       "the island floats in every operating mode"
                     if len(members) > 1 else
                     f"node {members[0]!r} has no DC path to any supply "
                     f"rail or ground; it floats in every operating mode"),
        )


def _component(start: str, adj) -> Set[str]:
    """Connected component of ``start`` in the conduction graph."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for edge in adj.get(node, ()):
            peer = edge.b if edge.a == node else edge.a
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return seen


def _only_capacitors(circuit: Circuit, node: str) -> bool:
    """True when every element touching ``node`` is a capacitor."""
    touching = [e for e in circuit.elements()
                if node in (canon(n) for n in e.node_names)]
    return bool(touching) and all(isinstance(e, Capacitor)
                                  for e in touching)


@rule("RV102", "orphan-mtj", "circuit", "error",
      "An MTJ is not wired into any transistor store path",
      "The paper's store operation steers latch current through a "
      "PS-FinFET into the MTJ; an MTJ whose terminals never reach a "
      "FinFET channel can neither be written nor read back, so the cell "
      "silently loses nonvolatility.")
def check_orphan_mtjs(circuit: Circuit) -> Iterator[Finding]:
    """Flag MTJs dangling off the store path.

    The reach-a-FinFET-channel part only applies when the circuit has
    FinFETs at all: a transistor-less netlist is a device-level bench
    (MTJ driven straight by a source), not a mis-wired cell.
    """
    if not _compiles(circuit):
        return
    rails = hard_rail_nodes(circuit)
    adj = adjacency(conduction_edges(circuit))
    has_fets = bool(finfets(circuit))
    for mtj in mtjs(circuit):
        free, pinned = (canon(n) for n in mtj.node_names)
        dangling = [
            node for node in (free, pinned)
            if node != GROUND and node not in rails
            and not _has_noncap_neighbor(circuit, mtj, node)
        ]
        if dangling:
            yield Finding(
                subject=mtj.name,
                message=(f"MTJ {mtj.name} terminal node "
                         f"{dangling[0]!r} connects to nothing but "
                         "capacitors; the junction is orphaned"),
            )
            continue
        if has_fets and not _reaches_finfet_channel(mtj, (free, pinned),
                                                    adj, rails):
            yield Finding(
                subject=mtj.name,
                message=(f"MTJ {mtj.name} ({free!r} - {pinned!r}) has no "
                         "conduction path to any FinFET channel: no "
                         "PS-FinFET can steer store current through it"),
            )


def _has_noncap_neighbor(circuit: Circuit, mtj: MTJ, node: str) -> bool:
    """True if ``node`` touches an element besides ``mtj`` and caps."""
    for element in circuit.elements():
        if element is mtj or isinstance(element, Capacitor):
            continue
        if node in (canon(n) for n in element.node_names):
            return True
    return False


def _reaches_finfet_channel(mtj: MTJ, terminals, adj, rails) -> bool:
    """Does either MTJ terminal reach a FinFET channel terminal?

    The walk crosses resistors/switches but stops at rails and ground:
    a path to the latch through the testbench supply is not a store
    path.
    """
    for terminal in terminals:
        if terminal == GROUND or terminal in rails:
            # Rails host control lines (CTRL), not store paths; but a
            # FinFET channel directly on the terminal still counts.
            region = {terminal}
        else:
            region = reachable(terminal, adj, stop_at=set(rails),
                               skip_elements=(mtj,))
        for node in region:
            for edge in adj.get(node, ()):
                if edge.element is mtj:
                    continue
                if isinstance(edge.element, FinFET):
                    return True
    return False


@rule("RV103", "always-on-store-path", "circuit", "error",
      "An MTJ connects directly to a latch storage node",
      "Without a PS-FinFET separating them, the MTJ loads the bistable "
      "core in every mode: normal-operation SNM degrades and the "
      "store-energy bookkeeping of E_cyc no longer isolates the store "
      "phase — an always-on store path is exactly what NVPG's SR line "
      "exists to prevent.")
def check_always_on_store_path(circuit: Circuit) -> Iterator[Finding]:
    """Flag MTJs touching storage nodes without a PS-FinFET between."""
    if not _compiles(circuit):
        return
    latch_nodes = storage_nodes(circuit)
    for mtj in mtjs(circuit):
        for node in (canon(n) for n in mtj.node_names):
            if node in latch_nodes:
                yield Finding(
                    subject=mtj.name,
                    message=(f"MTJ {mtj.name} sits directly on storage "
                             f"node {node!r}; the store path bypasses "
                             "the PS-FinFET and is permanently on"),
                )


@rule("RV104", "undriven-retention-gate", "circuit", "warning",
      "A PS-FinFET gate is not a driven control line",
      "The SR line must switch the retention branch on for store/"
      "restore and off for normal operation; a gate left on a floating "
      "or cell-internal node cannot do either.")
def check_retention_gate(circuit: Circuit) -> Iterator[Finding]:
    """Flag PS-FinFETs (FinFETs adjacent to an MTJ) with undriven gates."""
    if not _compiles(circuit):
        return
    rails = hard_rail_nodes(circuit)
    # Adjacency is judged through non-rail terminals only: an MTJ whose
    # pinned layer sits on ground (a device bench) must not turn every
    # ground-connected pull-down into a "PS-FinFET".
    mtj_nodes = {
        canon(n) for m in mtjs(circuit) for n in m.node_names
    } - rails - {GROUND}
    if not mtj_nodes:
        return
    for fet in finfets(circuit):
        d, g, s = (canon(n) for n in fet.node_names)
        if d not in mtj_nodes and s not in mtj_nodes:
            continue
        if g not in rails and g != GROUND:
            yield Finding(
                subject=fet.name,
                message=(f"PS-FinFET {fet.name} gate node {g!r} is not a "
                         "driven control line; the store path cannot be "
                         "switched"),
            )


@rule("RV105", "pg-bypass", "circuit", "error",
      "An ungateable DC path bypasses a power switch",
      "Shutdown leakage is supposed to be throttled by the header "
      "switch; a resistive/source path from the supply rail into the "
      "gated domain keeps feeding the domain with the switch off, so "
      "measured P_shutdown and every BET derived from it are fiction.")
def check_pg_bypass(circuit: Circuit) -> Iterator[Finding]:
    """Search for non-gateable paths around each power switch."""
    if not _compiles(circuit):
        return
    rails = hard_rail_nodes(circuit)
    edges = conduction_edges(circuit)
    adj_all = adjacency(edges)
    adj_fixed = adjacency(edges, gateable_ok=False)
    for sw in power_switches(circuit, rails):
        domain = reachable(sw.virtual, adj_all, stop_at=rails,
                           skip_elements=(sw.element,))
        # Walk from the supply rail over *non-gateable* edges only,
        # skipping the switch itself; hitting the domain means leakage
        # cannot be cut off.
        region = reachable(sw.rail, adj_fixed, stop_at=set(),
                           skip_elements=(sw.element,))
        leaks = sorted((region - {sw.rail}) & domain)
        if leaks:
            yield Finding(
                subject=sw.element.name,
                message=(f"power switch {sw.element.name} "
                         f"({sw.rail!r} -> {sw.virtual!r}) is bypassed: "
                         f"an always-on DC path reaches gated node"
                         f" {leaks[0]!r} from the supply rail"),
            )
