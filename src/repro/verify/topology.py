"""Netlist topology views shared by the power-gating-aware rules.

These helpers look at a compiled :class:`~repro.circuit.netlist.Circuit`
through the lens the power-gating checks need:

* *hard rails* — nodes pinned to ground through chains of ideal voltage
  sources (the testbench-owned supply/control lines);
* the *conduction graph* — element edges that can carry DC current
  (capacitors and current sources excluded), each tagged with whether a
  control terminal can turn it off (FinFET channels, VC switches);
* *power switches* — gating elements whose channel joins a hard rail to
  an undriven node (the virtual rail) under a driven control node;
* *storage nodes* — nodes that both drive FinFET gates and sit on FinFET
  channels, i.e. the cross-coupled latch nodes a retention branch must
  tap through a PS-FinFET.

All functions normalise ground-alias spellings to ``"0"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..circuit.netlist import Circuit, Element, is_ground
from ..circuit.passives import Capacitor, Resistor
from ..circuit.sources import CurrentSource, VoltageSource
from ..circuit.switches import VoltageControlledSwitch
from ..devices.finfet import FinFET
from ..devices.mtj import MTJ

#: Canonical spelling used for every ground alias in graph node sets.
GROUND = "0"


def canon(node: str) -> str:
    """Collapse every ground alias onto :data:`GROUND`."""
    return GROUND if is_ground(node) else node


@dataclass(frozen=True)
class ConductionEdge:
    """One DC-capable connection between two nodes.

    ``gateable`` is True when a control terminal can cut the path
    (FinFET channel, voltage-controlled switch); a non-gateable edge
    (resistor, MTJ, voltage source) conducts unconditionally.
    """

    a: str
    b: str
    element: Element
    gateable: bool


def conduction_edges(circuit: Circuit) -> List[ConductionEdge]:
    """Edges of the DC conduction graph, ground-normalised.

    Capacitors (open at DC) and current sources (infinite DC impedance)
    contribute no edge.
    """
    edges: List[ConductionEdge] = []
    for element in circuit.elements():
        if isinstance(element, (Capacitor, CurrentSource)):
            continue
        if isinstance(element, FinFET):
            d, _, s = element.node_names
            edges.append(ConductionEdge(canon(d), canon(s), element, True))
        elif isinstance(element, VoltageControlledSwitch):
            p, n = element.node_names[:2]
            edges.append(ConductionEdge(canon(p), canon(n), element, True))
        elif isinstance(element, (Resistor, VoltageSource, MTJ)):
            p, n = element.node_names[:2]
            edges.append(ConductionEdge(canon(p), canon(n), element, False))
        else:
            # Unknown element kinds are assumed to conduct (conservative:
            # fewer false "island" findings) and to be non-gateable.
            names = [canon(n) for n in element.node_names[:2]]
            if len(names) == 2:
                edges.append(ConductionEdge(names[0], names[1],
                                            element, False))
    return edges


def adjacency(edges: Iterable[ConductionEdge],
              gateable_ok: bool = True) -> Dict[str, List[ConductionEdge]]:
    """Node -> incident edges map (optionally non-gateable edges only)."""
    adj: Dict[str, List[ConductionEdge]] = {}
    for edge in edges:
        if not gateable_ok and edge.gateable:
            continue
        adj.setdefault(edge.a, []).append(edge)
        adj.setdefault(edge.b, []).append(edge)
    return adj


def hard_rail_nodes(circuit: Circuit) -> Set[str]:
    """Nodes tied to ground through voltage sources alone.

    These are the "driven" nodes: supplies and ideal control lines whose
    potential the testbench pins directly.  Ground itself is excluded
    from the returned set.
    """
    adj: Dict[str, Set[str]] = {}
    for element in circuit.elements():
        if isinstance(element, VoltageSource):
            p, n = (canon(x) for x in element.node_names)
            adj.setdefault(p, set()).add(n)
            adj.setdefault(n, set()).add(p)
    seen = {GROUND}
    frontier = [GROUND]
    while frontier:
        node = frontier.pop()
        for peer in adj.get(node, ()):
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    seen.discard(GROUND)
    return seen


def reachable(start: str, adj: Dict[str, List[ConductionEdge]],
              stop_at: Set[str],
              skip_elements: Tuple[Element, ...] = ()) -> Set[str]:
    """Nodes reachable from ``start`` without expanding through
    ``stop_at`` nodes or traversing ``skip_elements`` edges.

    ``stop_at`` nodes are *not* included in the result and are not
    expanded: they bound the region (rails keep their own supply, so a
    region that touches one ends there).
    """
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for edge in adj.get(node, ()):
            if edge.element in skip_elements:
                continue
            peer = edge.b if edge.a == node else edge.a
            if peer in seen or peer in stop_at or peer == GROUND:
                continue
            seen.add(peer)
            frontier.append(peer)
    return seen


def independent_loops(pairs: Iterable[Tuple[str, str]]) -> List[List[str]]:
    """A cycle basis of the simple graph whose edges are ``pairs``.

    Walks the distinct node pairs in order and grows a spanning forest:
    a pair whose two ends are already connected closes one loop,
    returned as the forest path between its ends (the pair itself joins
    the last node back to the first).  That gives E - V + C loops.
    """
    forest: Dict[str, List[str]] = {}
    loops: List[List[str]] = []
    for a, b in pairs:
        parent: Dict[str, Optional[str]] = {a: None}
        frontier = [a]
        while frontier and b not in parent:
            node = frontier.pop()
            for peer in forest.get(node, ()):
                if peer not in parent:
                    parent[peer] = node
                    frontier.append(peer)
        if b not in parent:
            forest.setdefault(a, []).append(b)
            forest.setdefault(b, []).append(a)
            continue
        path: List[str] = []
        node: Optional[str] = b
        while node is not None:
            path.append(node)
            node = parent[node]
        loops.append(path[::-1])
    return loops


def storage_nodes(circuit: Circuit) -> Set[str]:
    """Nodes that are both a FinFET gate and a FinFET channel terminal.

    In every cell of this project that combination identifies the
    bistable latch nodes (Q/QB and the slave-latch nodes of the NV-FF):
    the cross-coupled inverters put each latch node on the channel of its
    own devices and on the gate of the opposite pair.
    """
    gates: Set[str] = set()
    channels: Set[str] = set()
    for element in circuit.elements():
        if isinstance(element, FinFET):
            d, g, s = (canon(n) for n in element.node_names)
            gates.add(g)
            channels.update((d, s))
    out = gates & channels
    out.discard(GROUND)
    return out


@dataclass(frozen=True)
class PowerSwitchInfo:
    """A detected power-gating element.

    Attributes
    ----------
    element:
        The gating element (header FinFET or VC switch).
    rail:
        The hard-rail node on the supply side.
    virtual:
        The undriven node on the gated side (the virtual rail).
    """

    element: Element
    rail: str
    virtual: str


def power_switches(circuit: Circuit,
                   rails: Optional[Set[str]] = None) -> List[PowerSwitchInfo]:
    """Detect power-switch-style gating elements.

    A FinFET qualifies when exactly one channel terminal is a non-ground
    hard rail, the other is undriven, and its gate is driven; a
    voltage-controlled switch qualifies likewise via its control node.
    (Cell pass-gates never qualify: neither of their channel terminals
    is a hard rail.)
    """
    rails = hard_rail_nodes(circuit) if rails is None else rails
    out: List[PowerSwitchInfo] = []
    for element in circuit.elements():
        if isinstance(element, FinFET):
            d, g, s = (canon(n) for n in element.node_names)
            pair, control = (d, s), g
        elif isinstance(element, VoltageControlledSwitch):
            p, n, cp, _ = (canon(x) for x in element.node_names)
            pair, control = (p, n), cp
        else:
            continue
        if control not in rails and control != GROUND:
            continue
        a, b = pair
        a_rail = a in rails
        b_rail = b in rails
        if a_rail == b_rail or GROUND in pair:
            continue
        rail, virtual = (a, b) if a_rail else (b, a)
        out.append(PowerSwitchInfo(element=element, rail=rail,
                                   virtual=virtual))
    return out


def mtjs(circuit: Circuit) -> List[MTJ]:
    """All MTJ elements of the circuit."""
    return [e for e in circuit.elements() if isinstance(e, MTJ)]


def finfets(circuit: Circuit) -> List[FinFET]:
    """All FinFET elements of the circuit."""
    return [e for e in circuit.elements() if isinstance(e, FinFET)]
