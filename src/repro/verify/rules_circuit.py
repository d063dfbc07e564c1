"""Generic netlist-hygiene rules (RV0xx).

These are the five checks of the seed's netlist linter, migrated onto
the rule registry, plus the compile gate.  The voltage-source topology
checks now operate on the *multigraph* directly, fixing the seed bug
where two distinct sources between the same node pair collapsed into
one edge and their loops with a third path went unreported.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..circuit.netlist import Circuit
from ..circuit.passives import Capacitor
from ..circuit.sources import VoltageSource
from ..errors import NetlistError
from .core import Finding, rule
from .topology import canon, independent_loops


@rule("RV006", "netlist-compile", "circuit", "error",
      "The circuit fails to compile (no ground, empty netlist...)",
      "Nothing downstream is meaningful if node indices cannot be "
      "assigned; surfacing the compile error as a diagnostic lets deck "
      "lint report it alongside other findings instead of crashing.")
def check_compile(circuit: Circuit) -> Iterator[Finding]:
    """Report :class:`~repro.errors.NetlistError` from compilation."""
    try:
        circuit.compile()
    except NetlistError as exc:
        yield Finding(subject=circuit.title or "circuit", message=str(exc))


def _compiles(circuit: Circuit) -> bool:
    """True when the circuit compiles; rules below skip when it cannot."""
    try:
        circuit.compile()
    except NetlistError:
        return False
    return True


@rule("RV001", "floating-node", "circuit", "warning",
      "A node touches only one element terminal",
      "A single-terminal node is almost always a typo'd net name; the "
      "solver's gmin will pin it to an arbitrary level instead of "
      "failing loudly.")
def check_floating_nodes(circuit: Circuit) -> Iterator[Finding]:
    """Flag nodes with exactly one element terminal attached."""
    if not _compiles(circuit):
        return
    counts: Dict[str, int] = {}
    for element in circuit.elements():
        for node in element.node_names:
            counts[node] = counts.get(node, 0) + 1
    for node in circuit.node_names():
        if counts.get(node, 0) == 1:
            touching = circuit.nodes_touching(node)
            culprit = touching[0].name if touching else "?"
            yield Finding(
                subject=node,
                message=(f"node {node!r} touches only one terminal "
                         f"(element {culprit}); likely a typo"),
            )


@rule("RV002", "no-dc-path", "circuit", "warning",
      "A node has only capacitive connections",
      "With every connection capacitive the node's DC level is set by "
      "gmin alone; legitimate for dynamic nodes, usually a missing "
      "leaker or typo.")
def check_no_dc_path(circuit: Circuit) -> Iterator[Finding]:
    """Flag nodes whose every connection is a capacitor."""
    if not _compiles(circuit):
        return
    for node in circuit.node_names():
        touching = circuit.nodes_touching(node)
        if touching and all(isinstance(e, Capacitor) for e in touching):
            yield Finding(
                subject=node,
                message=(f"node {node!r} has only capacitive connections; "
                         "its DC level is defined by gmin alone"),
            )


@rule("RV003", "shorted-element", "circuit", "warning",
      "Both main terminals of an element share one node",
      "A self-shorted element contributes nothing but usually signals a "
      "copy-paste error in a cell builder or deck.")
def check_shorted_elements(circuit: Circuit) -> Iterator[Finding]:
    """Flag two-terminal elements wired node-to-same-node."""
    if not _compiles(circuit):
        return
    for element in circuit.elements():
        names = element.node_names
        if len(names) >= 2 and len({canon(n) for n in names[:2]}) == 1:
            yield Finding(
                subject=element.name,
                message=(f"element {element.name} has both main terminals "
                         f"on node {names[0]!r}"),
            )


def _voltage_source_edges(circuit: Circuit) -> List[Tuple[str, str, str]]:
    """``(p, n, name)`` of every ideal voltage source, ground aliases
    merged."""
    edges = []
    for element in circuit.elements():
        if isinstance(element, VoltageSource):
            p, n = (canon(x) for x in element.node_names)
            edges.append((p, n, element.name))
    return edges


def _parallel_groups(edges: List[Tuple[str, str, str]]
                     ) -> Dict[Tuple[str, str], List[str]]:
    """Node pairs joined by two or more distinct sources."""
    pairs: Dict[Tuple[str, str], List[str]] = {}
    for p, n, name in edges:
        if p == n:
            continue
        pairs.setdefault(tuple(sorted((p, n))), []).append(name)
    return {pair: sorted(names) for pair, names in pairs.items()
            if len(names) > 1}


@rule("RV004", "voltage-loop", "circuit", "error",
      "Ideal voltage sources form a closed loop",
      "A pure voltage-source cycle over-determines the branch currents: "
      "the MNA system is numerically singular no matter what gmin does.")
def check_voltage_loops(circuit: Circuit) -> Iterator[Finding]:
    """Flag every independent cycle in the voltage-source multigraph.

    The cycle space of the multigraph decomposes into (a) self-loop
    sources, (b) one loop per extra parallel source on a node pair, and
    (c) a cycle basis of the graph with parallel sources collapsed.
    Group (b) is reported by ``parallel-sources`` (RV005), so here it
    is only *counted*, keeping the two rules deduplicated while no loop
    goes unreported — the seed linter collapsed the multigraph and
    silently dropped group (a) and miscounted (b).
    """
    if not _compiles(circuit):
        return
    edges = _voltage_source_edges(circuit)

    # (a) self-loops: a source with both terminals on one node.
    for p, n, name in edges:
        if p == n:
            yield Finding(
                subject=name,
                message=(f"voltage source {name} is shorted on "
                         f"node {p!r}: a one-element voltage loop"),
            )

    # (c) the collapsed node pairs in element order.  Parallel pairs
    # (group (b)) are RV005's findings and are not repeated here.
    collapsed = dict.fromkeys(tuple(sorted((p, n)))
                              for p, n, _ in edges if p != n)
    for loop in independent_loops(collapsed):
        yield Finding(
            subject=min(loop),
            message=("voltage sources form a loop through nodes "
                     + " -> ".join(repr(n) for n in loop)),
        )


@rule("RV005", "parallel-sources", "circuit", "error",
      "Two or more voltage sources share one node pair",
      "Parallel ideal sources make the branch-current split "
      "indeterminate (singular MNA rows) even when their levels agree.")
def check_parallel_sources(circuit: Circuit) -> Iterator[Finding]:
    """Flag groups of sources wired across the same two nodes."""
    if not _compiles(circuit):
        return
    edges = _voltage_source_edges(circuit)
    for (p, n), names in sorted(_parallel_groups(edges).items()):
        yield Finding(
            subject=names[0],
            message=(f"voltage sources {', '.join(names)} are in "
                     f"parallel between {p!r} and {n!r}"),
        )
