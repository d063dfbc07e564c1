"""Dense modified-nodal-analysis system assembly.

The MNA unknown vector is ``[node voltages..., branch currents...]``.
Ground is index ``-1`` and never reaches the system.  Circuits in this
project are small (an NV-SRAM cell plus testbench is ~25 unknowns), so
the system is a dense ``numpy`` matrix; no sparse machinery is needed.

Two stampers take the same ``Element.stamp()`` calls:

* :class:`PlanStamper` assembles every Newton iteration.  It stamps the
  circuit's ``is_linear`` elements (sources, resistors, capacitor
  companions) and ``gmin`` once per solve into a base; each iteration
  restamps only the nonlinear elements, which hand over their whole
  contribution in one :meth:`Stamper.add` call, and the system is the
  base plus one ``np.bincount`` over the slots of the circuit's
  :class:`~repro.circuit.netlist.StampPlan`.
* :class:`Stamper` adds contributions to dense ``A``/``b`` arrays entry
  by entry.  It serves testbench ``extra_stamps``, custom elements that
  stamp entry by entry, the stamp sanitizer and the non-finite stamp
  provenance.

The device kernels of a single circuit stay scalar Python.  Evaluating
the nv testbench's 9 FinFETs over numpy arrays took 66 µs against 14 µs
for the scalar kernels, before any gather or scatter (one process,
Python 3.11, numpy 2.4, 2 vCPUs): at this size numpy's per-call overhead
outweighs the arithmetic.  Arrays pay off along a batch axis instead:
:mod:`repro.analysis.batch` evaluates each device class's array kernel
over every sample of a Monte-Carlo batch and adds the values to the
:class:`PlanStamper` base with one ``np.bincount`` over the same plan
slots.

Sign conventions
----------------
* Node equations are KCL with currents *into* the node on the RHS, i.e.
  ``stamper.current(p, n, i)`` describes a source pushing ``i`` amps from
  node ``p`` through itself into node ``n``.
* Voltage-source branch currents follow SPICE: positive current flows from
  the + terminal through the source to the - terminal.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np


def _miscount(element, values, expected: int) -> ValueError:
    """The error for an ``add`` whose value count misses the element's."""
    return ValueError(
        f"{element.name}: stamp() handed {len(values)} values, "
        f"stamp_pattern() and the element's unknowns make {expected}")


class Stamper:
    """Accumulates element stamps into the dense MNA matrix and RHS."""

    def __init__(self, size: int):
        self.size = size
        self.A = np.zeros((size, size))
        self.b = np.zeros(size)

    def clear(self) -> None:
        self.A[:, :] = 0.0
        self.b[:] = 0.0

    def add(self, element, ctx, values) -> None:
        """Add ``element``'s whole contribution, handed over in one call.

        ``values`` holds the matrix entries in
        ``element.stamp_pattern(ctx.mode)`` order, then one RHS entry per
        unknown of the element (``node_index``, then ``branch_index``).
        Entries on ground rows or columns are dropped.
        """
        pattern = element.stamp_pattern(ctx.mode)
        rows = element.node_index + element.branch_index
        if len(values) != len(pattern) + len(rows):
            raise _miscount(element, values, len(pattern) + len(rows))
        for (row, col), value in zip(pattern, values):
            self.matrix(row, col, value)
        for row, value in zip(rows, values[len(pattern):]):
            self.rhs(row, value)

    def conductance(self, p: int, n: int, g: float) -> None:
        """Stamp a two-terminal conductance ``g`` between nodes p and n."""
        if p >= 0:
            self.A[p, p] += g
            if n >= 0:
                self.A[p, n] -= g
        if n >= 0:
            self.A[n, n] += g
            if p >= 0:
                self.A[n, p] -= g

    def current(self, p: int, n: int, i: float) -> None:
        """Stamp an independent current source driving ``i`` amps p -> n."""
        if p >= 0:
            self.b[p] -= i
        if n >= 0:
            self.b[n] += i

    def matrix(self, row: int, col: int, value: float) -> None:
        """Raw matrix entry (used by voltage-source branch rows)."""
        if row >= 0 and col >= 0:
            self.A[row, col] += value

    def rhs(self, row: int, value: float) -> None:
        """Raw RHS entry."""
        if row >= 0:
            self.b[row] += value


def _stamp_each(elements, stamper: Stamper, ctx: "Context") -> None:
    """Call every element's own ``stamp()``.

    A Python loop over scalar device kernels on purpose: at 7-9 FinFETs
    per testbench it beats evaluating the devices over numpy arrays
    (module docstring).
    """
    for element in elements:
        element.stamp(stamper, ctx)


class PlanStamper(Stamper):
    """Newton assembler over a circuit's compiled stamp plan.

    Build one per ``newton_solve`` call: the constructor stamps the
    plan's ``is_linear`` elements and ``gmin`` into a base at ``ctx``
    (its time, dt, method and source scale).  Each :meth:`restamp` then
    leaves ``A`` and ``b`` holding the system at one iterate.  Elements
    that stamp entry by entry, and ``extra_stamps``, write into ``A`` and
    ``b`` directly, as into a plain :class:`Stamper`.
    """

    def __init__(self, plan, ctx: "Context", gmin: float):
        size = plan.size
        self.size = size
        self.plan = plan
        # A and b are views of one buffer in the plan's flat layout
        # (matrix row-major, then RHS), so one bincount fills both.
        self.flat = np.zeros(size * size + size)
        self.A = self.flat[:size * size].reshape(size, size)
        self.b = self.flat[size * size:]
        self._length = plan.trash + 1
        self._where, linear, self._slots = plan.layout(ctx.mode)
        # The base: the linear elements at this solve's ctx, plus gmin
        # on the node diagonal.
        self._values = [0.0] * len(linear)
        _stamp_each(plan.linear, self, ctx)
        self._fold(linear)
        #: The flat system of the linear elements and gmin.
        self.base = self.flat.copy()
        self.base[:plan.num_nodes * (size + 1):size + 1] += gmin
        # From here on add() collects the nonlinear elements' values.
        self._zeros = [0.0] * len(self._slots)
        self._values = list(self._zeros)

    def add(self, element, ctx, values) -> None:
        """Keep ``values`` in the element's slots until the next fold."""
        where = self._where[element]
        # A slice assignment of another length would resize the list and
        # shift every later element's values into the wrong slots.
        if len(values) != where.stop - where.start:
            raise _miscount(element, values, where.stop - where.start)
        self._values[where] = values

    def clear(self) -> None:
        super().clear()
        self._values[:] = self._zeros

    def _fold(self, slots: np.ndarray) -> None:
        """Add the values handed to :meth:`add` into ``A`` and ``b``."""
        values = self._values
        # ``struct`` packs a list of floats about three times faster than
        # ``np.array`` converts it.
        weights = np.frombuffer(struct.pack(f"{len(values)}d", *values))
        self.flat += np.bincount(slots, weights=weights,
                                 minlength=self._length)[:-1]

    def restamp(self, ctx: "Context", x: np.ndarray,
                extra_stamps=None) -> None:
        """Assemble the linearised system at the iterate ``x``."""
        ctx.x = x
        self.clear()
        _stamp_each(self.plan.nonlinear, self, ctx)
        if extra_stamps is not None:
            extra_stamps(self, ctx)
        self._fold(self._slots)
        self.flat += self.base


class Context:
    """Per-evaluation context handed to ``Element.stamp``/``commit``.

    Attributes
    ----------
    mode:
        ``"dc"`` or ``"tran"``.
    time:
        Simulation time of the point being solved (seconds).
    dt:
        Current timestep (transient only).
    method:
        Companion-model method: ``"be"`` or ``"trap"``.
    x:
        Current Newton iterate / committed solution vector.  Setting it
        also sets ``xlist``.
    xlist:
        ``x`` as a Python list with a trailing ``0.0``, so that
        ``xlist[i]`` is the value of unknown ``i`` and ground (-1) reads
        zero.  Element kernels read their terminal voltages here.
    source_scale:
        Multiplier applied by independent sources to their level; used by
        the source-stepping homotopy in :mod:`repro.analysis.dc`.
    cert:
        :class:`~repro.analysis.trust.Certificate` of the last *accepted*
        Newton solve performed with this context, or ``None``.  Written
        by ``newton_solve``; read by the analyses to annotate results.
    """

    __slots__ = ("mode", "time", "dt", "method", "_x", "xlist",
                 "source_scale", "cert")

    def __init__(self, mode: str = "dc", time: float = 0.0, dt: float = 0.0,
                 method: str = "trap", x: Optional[np.ndarray] = None,
                 source_scale: float = 1.0):
        self.mode = mode
        self.time = time
        self.dt = dt
        self.method = method
        self.x = x if x is not None else np.zeros(0)
        self.source_scale = source_scale
        self.cert = None

    @property
    def x(self) -> np.ndarray:
        return self._x

    @x.setter
    def x(self, value: np.ndarray) -> None:
        self._x = value
        self.xlist = np.asarray(value, dtype=float).tolist()
        self.xlist.append(0.0)

    def v(self, index: int) -> float:
        """Voltage of node ``index`` (0.0 for ground)."""
        return self.xlist[index]
