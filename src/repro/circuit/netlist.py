"""Netlist container and the element interface consumed by analyses.

A :class:`Circuit` is a flat bag of named :class:`Element` objects wired to
string-named nodes.  ``"0"``, ``"gnd"`` and ``"GND"`` all denote ground.
Hierarchy is provided by :mod:`repro.circuit.subcircuit`, which flattens
into this representation.

The element interface
---------------------

Analyses communicate with elements through three methods:

``stamp(stamper, ctx)``
    Add the element's (linearised) contribution to the MNA matrix and RHS
    for the solution iterate in ``ctx``.  Must not mutate element state:
    Newton calls it repeatedly for the same timepoint.  Terminal
    voltages come from ``ctx.xlist`` (a Python list of the iterate in
    which ground, index -1, reads zero).  The shipped elements hand over
    their whole contribution in one ``stamper.add(self, ctx, values)``
    call: the matrix entries in :meth:`Element.stamp_pattern` order,
    then one RHS entry per unknown of the element.  Custom elements may
    instead stamp entry by entry (``stamper.conductance``, ``current``,
    ``matrix``, ``rhs``).

``commit(ctx)``
    Advance time-dependent internal state (capacitor history, MTJ
    magnetisation progress) after a timestep has been *accepted*.  May
    return an event string (e.g. ``"mtj P->AP"``) that the integrator
    records and reacts to by shortening the next step.

``init_state(ctx)``
    Initialise internal state from a converged DC operating point before a
    transient starts.

An element whose stamp does not depend on the iterate declares
``is_linear = True``; Newton then stamps it once per solve (at that
solve's time, timestep, method and source scale) instead of once per
iteration.  The flag is opt-in: an element that leaves it ``False`` is
restamped every iteration, which is always correct.

A nonlinear element can also take part in batched DC solves
(:mod:`repro.analysis.batch`) by defining an array kernel:
``batch_card(samples, states)`` turns per-sample parameter cards into
parameter rows, and the static ``batch_kernel(v, card)`` maps terminal
voltages ``v[..., terminal]`` (in ``node_names`` order) to the values
``stamp()`` would hand to ``stamper.add``, along any leading axes, so
one call evaluates every device of a class over every sample.
:meth:`Element.batch_values` applies it to the element's own terminals.

Elements that introduce extra MNA unknowns (voltage sources, switches with
branch currents) report them via ``branch_count`` and receive their branch
indices in ``assign_branches``.  :meth:`Circuit.compile` assigns these
indices and builds the circuit's :class:`StampPlan`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import NetlistError

#: Canonical ground node name.
GROUND = "0"


def conductance_pattern(p: int, n: int) -> List[Tuple[int, int]]:
    """Stamp positions of a two-terminal conductance between ``p``/``n``.

    The four positions a ``stamper.conductance(p, n, g)`` call touches;
    shared by every :meth:`Element.stamp_pattern` implementation that
    models a resistive branch.  Ground entries (index -1) are included —
    pattern consumers drop them.
    """
    return [(p, p), (p, n), (n, p), (n, n)]

_GROUND_ALIASES = {"0", "gnd", "GND", "Gnd", "vss", "VSS"}


def is_ground(node: str) -> bool:
    """True if ``node`` is one of the recognised ground spellings."""
    return node in _GROUND_ALIASES


class Element:
    """Base class for all circuit elements.

    Subclasses set ``self.name`` and ``self.node_names`` (a tuple of node
    name strings) in their constructor, typically via ``super().__init__``.
    """

    #: Number of extra MNA branch unknowns this element needs.
    branch_count = 0

    #: True if the element's stamp is independent of the solution
    #: iterate, so Newton stamps it once per solve (see module docstring).
    is_linear = False

    #: The array kernel of a batchable nonlinear element, or ``None``
    #: (see module docstring).
    batch_kernel = None

    def __init__(self, name: str, node_names: Sequence[str]):
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = name
        self.node_names: Tuple[str, ...] = tuple(node_names)
        #: Node indices into the MNA vector; -1 means ground.  Filled in by
        #: :meth:`Circuit.compile`.
        self.node_index: Tuple[int, ...] = ()
        #: Branch indices (absolute positions in the MNA vector).
        self.branch_index: Tuple[int, ...] = ()

    # -- wiring ---------------------------------------------------------
    def assign_nodes(self, indices: Sequence[int]) -> None:
        self.node_index = tuple(indices)

    def assign_branches(self, indices: Sequence[int]) -> None:
        self.branch_index = tuple(indices)

    # -- analysis interface ---------------------------------------------
    def stamp(self, stamper, ctx) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def batch_values(self, x: np.ndarray, card: np.ndarray) -> np.ndarray:
        """:attr:`batch_kernel` at this element's terminals: one row of
        ``stamp()`` values per row of ``x``, an iterate with a trailing
        ground column of zeros."""
        return self.batch_kernel(x[:, list(self.node_index)], card)

    def stamp_pattern(self, mode: str = "dc") -> List[Tuple[int, int]]:
        """Matrix positions this element *may* write in ``mode``.

        Returns ``(row, col)`` index pairs into the MNA matrix (node and
        branch indices as assigned by :meth:`Circuit.compile`; -1 marks
        ground, which consumers ignore).  The structural-singularity
        check (:mod:`repro.verify.rules_mna`) builds its bipartite
        incidence from these patterns, so an entry means "can be
        nonzero", not "is nonzero at this operating point".

        The base implementation is deliberately conservative — a dense
        block over all of the element's unknowns — so custom elements
        are never reported as structurally singular by omission.
        """
        indices = tuple(self.node_index) + tuple(self.branch_index)
        return [(r, c) for r in indices for c in indices]

    def init_state(self, ctx) -> None:
        """Initialise internal history from the DC solution in ``ctx``."""

    def commit(self, ctx) -> Optional[str]:
        """Advance internal state after an accepted step; may return event."""
        return None

    def __repr__(self) -> str:
        nodes = ",".join(self.node_names)
        return f"<{type(self).__name__} {self.name} ({nodes})>"


class Circuit:
    """A named collection of elements plus the node-index mapping.

    Elements are added with :meth:`add`; most element classes also provide
    an ``add_to`` convenience used by the cell builders.  After construction
    an analysis calls :meth:`compile`, which assigns node and branch indices
    and freezes the unknown-vector layout.
    """

    def __init__(self, title: str = ""):
        self.title = title
        self._elements: Dict[str, Element] = {}
        self._node_of: Dict[str, int] = {}
        self._nodes: List[str] = []
        self._num_branches = 0
        self._compiled = False

    # -- construction ----------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add ``element``; names must be unique within the circuit."""
        if element.name in self._elements:
            raise NetlistError(f"duplicate element name: {element.name}")
        self._elements[element.name] = element
        self._compiled = False
        return element

    def remove(self, name: str) -> None:
        """Remove the element called ``name``."""
        if name not in self._elements:
            raise NetlistError(f"no such element: {name}")
        del self._elements[name]
        self._compiled = False

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __getitem__(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise NetlistError(f"no such element: {name}") from None

    def elements(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def element_names(self) -> List[str]:
        return list(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    # -- compilation -----------------------------------------------------
    def compile(self) -> None:
        """Assign node and branch indices.  Idempotent."""
        if self._compiled:
            return
        self._node_of = {}
        self._nodes = []
        for element in self._elements.values():
            indices = []
            for node in element.node_names:
                indices.append(self._intern_node(node))
            element.assign_nodes(indices)
        num_nodes = len(self._nodes)
        branch_cursor = num_nodes
        for element in self._elements.values():
            count = element.branch_count
            element.assign_branches(range(branch_cursor, branch_cursor + count))
            branch_cursor += count
        self._num_branches = branch_cursor - num_nodes
        self._check_connectivity()
        self._plan = StampPlan(list(self._elements.values()), num_nodes,
                               branch_cursor)
        self._compiled = True

    def _intern_node(self, node: str) -> int:
        if is_ground(node):
            return -1
        index = self._node_of.get(node)
        if index is None:
            index = len(self._nodes)
            self._node_of[node] = index
            self._nodes.append(node)
        return index

    def _check_connectivity(self) -> None:
        """Reject circuits with no ground reference."""
        if not self._elements:
            raise NetlistError("empty circuit")
        grounded = any(
            -1 in element.node_index for element in self._elements.values()
        )
        if self._nodes and not grounded:
            raise NetlistError("circuit has no connection to ground")

    # -- compiled views ----------------------------------------------------
    @property
    def num_nodes(self) -> int:
        self.compile()
        return len(self._nodes)

    @property
    def num_branches(self) -> int:
        self.compile()
        return self._num_branches

    @property
    def size(self) -> int:
        """Total number of MNA unknowns (node voltages + branch currents)."""
        return self.num_nodes + self.num_branches

    @property
    def plan(self) -> "StampPlan":
        """The :class:`StampPlan` of the compiled circuit."""
        self.compile()
        return self._plan

    def node_names(self) -> List[str]:
        self.compile()
        return list(self._nodes)

    def index_of(self, node: str) -> int:
        """MNA index of ``node`` (-1 for ground)."""
        self.compile()
        if is_ground(node):
            return -1
        try:
            return self._node_of[node]
        except KeyError:
            raise NetlistError(f"unknown node: {node}") from None

    def nodes_touching(self, node: str) -> List[Element]:
        """All elements with a terminal on ``node``."""
        return [e for e in self._elements.values() if node in e.node_names]

    def summary(self) -> str:
        """A short human-readable netlist description."""
        self.compile()
        lines = [f"* {self.title or 'untitled circuit'}"]
        for element in self._elements.values():
            lines.append(f"{element.name} " + " ".join(element.node_names))
        lines.append(
            f"* {len(self._elements)} elements, {self.num_nodes} nodes, "
            f"{self.num_branches} branches"
        )
        return "\n".join(lines)


class StampPlan:
    """Where every element's stamp lands in the flat MNA system.

    The flat system holds the ``size * size`` matrix entries (row-major),
    then the ``size`` RHS entries, then one trash slot that collects
    every entry on a ground row or column; so the matrix is a contiguous
    reshape of its front.  :meth:`Circuit.compile` builds the plan, so it
    holds topology only (element order, unknown indices and declared
    stamp patterns), never parameters, source levels or device state.
    """

    def __init__(self, elements: Sequence[Element], num_nodes: int,
                 size: int):
        self.num_nodes = num_nodes
        self.size = size
        self.trash = size * size + size
        self.linear = tuple(e for e in elements if e.is_linear)
        self.nonlinear = tuple(e for e in elements if not e.is_linear)
        self._layouts: Dict[str, tuple] = {}

    def layout(self, mode: str) -> Tuple[Dict[Element, slice], np.ndarray,
                                         np.ndarray]:
        """``(where, linear_slots, nonlinear_slots)`` in analysis ``mode``.

        An element's values (see :meth:`repro.analysis.mna.Stamper.add`)
        occupy ``where[element]`` of its group's value list, and the
        group's slot array gives the flat slot of each value.
        """
        layout = self._layouts.get(mode)
        if layout is None:
            where: Dict[Element, slice] = {}
            layout = (where, self._slots(self.linear, mode, where),
                      self._slots(self.nonlinear, mode, where))
            self._layouts[mode] = layout
        return layout

    def _slots(self, elements: Sequence[Element], mode: str,
               where: Dict[Element, slice]) -> np.ndarray:
        n = self.size
        slots: List[int] = []
        for element in elements:
            start = len(slots)
            for row, col in element.stamp_pattern(mode):
                slots.append(row * n + col if row >= 0 and col >= 0
                             else self.trash)
            for row in element.node_index + element.branch_index:
                slots.append(n * n + row if row >= 0 else self.trash)
            where[element] = slice(start, len(slots))
        return np.array(slots, dtype=np.intp)
