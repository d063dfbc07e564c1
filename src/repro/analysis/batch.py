"""Batched DC solves: one Newton iteration over a stack of samples.

A Monte-Carlo analysis solves one circuit topology many times with
different device parameters.  At the 5-25 unknowns of a half-cell or a
cell testbench, Python overhead per solve sets the cost, not the
arithmetic.  This module moves the sample axis into numpy instead:

* :class:`CircuitBatch` is one compiled template circuit plus, for each
  of its nonlinear devices, B per-sample parameter cards (and MTJ
  states).  It holds the template only, never B circuits; a sample's
  own circuit is built only when that sample falls back to the scalar
  path (:meth:`CircuitBatch.sample_circuit`).
* :func:`lockstep_newton` runs the plain Newton rung over every sample
  at once.  Each iteration calls each device class's array kernel
  (``batch_kernel``, see :mod:`repro.circuit.netlist`) once, over all
  of that class's devices in every sample, adds the values with one
  ``np.bincount`` over the stamp plan's nonlinear slots to the base
  that :class:`~repro.analysis.mna.PlanStamper` stamps once per solve,
  and solves the ``(B, n, n)`` stack with one ``np.linalg.solve``.

Every sample follows ``newton_solve``'s own rules: the tolerances,
damping of node voltages only, no convergence test on a damped step,
failure on a non-finite stamp or solution, the equilibrated retry of a
singular matrix, and certification of the accepted solve.  A sample
that fails any of them leaves the batch; the analyses in
:mod:`repro.analysis.dc` and :mod:`repro.analysis.sweep` then give it
the scalar path with the whole recovery ladder.  No operation mixes
samples, so a sample's result does not depend on the batch it runs in.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import AnalysisError
from ..recovery.ladder import RungAttempt
from .mna import Context, PlanStamper, Stamper
from .results import Solution
from .solver import _ABSTOL, _RELTOL, _VNTOL, GMIN_FLOOR, NewtonOptions
from .trust import (
    _RESIDUAL_THRESHOLD,
    Certificate,
    certify,
    equilibrated_solve,
    onenorm_condest,
)


class CircuitBatch:
    """B samples of one circuit: a template plus per-sample device cards.

    Parameters
    ----------
    template:
        The circuit every sample shares.  Its linear elements (sources,
        resistors, capacitors) are read at each solve, so a sweep moves
        a source of the template.  Its nonlinear devices are read when
        the batch is built; do not change them while it is in use.
    cards:
        ``{element name: one parameter card per sample}`` for the
        nonlinear devices that differ between samples.
    states:
        ``{MTJ name: one MTJState per sample}``.

    Every nonlinear element of the template needs an array kernel;
    :class:`~repro.errors.AnalysisError` names any that lacks one.
    """

    def __init__(self, template, cards: Optional[Mapping[str, Sequence]]
                 = None, states: Optional[Mapping[str, Sequence]] = None):
        template.compile()
        cards, states = dict(cards or {}), dict(states or {})
        sizes = {len(v) for v in (*cards.values(), *states.values())}
        if len(sizes) != 1 or 0 in sizes:
            raise AnalysisError(
                "CircuitBatch: give at least one card or state list, and "
                "the same number of samples in each")
        plan = template.plan
        nonlinear = {e.name for e in plan.nonlinear}
        for name in (*cards, *states):
            if name not in nonlinear:
                raise AnalysisError(
                    f"CircuitBatch: {name} is not a nonlinear element of "
                    f"{template.title or 'the template'}")
        self.template = template
        self.size = sizes.pop()
        self._cards = cards
        self._states = states
        self._device_cards = {}
        groups: Dict[type, list] = {}
        for element in plan.nonlinear:
            if element.batch_kernel is None:
                raise AnalysisError(
                    f"{element.name}: {type(element).__name__} has no array "
                    "kernel, so it cannot be batched")
            card = element.batch_card(cards.get(element.name),
                                      states.get(element.name))
            self._device_cards[element.name] = (element, card)
            groups.setdefault(type(element), []).append((element, card))
        where, _, slots = plan.layout("dc")
        #: ``(kernel, terminals, cards)`` per device class: the terminal
        #: indices of its devices and their cards stacked on a last axis
        #: (one column per sample, or one shared).
        self.kernels = []
        order = []
        for cls, members in groups.items():
            terminals = np.array([e.node_index for e, _ in members])
            columns = max(card.shape[1] for _, card in members)
            stacked = np.stack([np.broadcast_to(card, (len(card), columns))
                                for _, card in members], axis=-1)
            count = cls.batch_kernel(
                np.zeros((1,) + terminals.shape), stacked[:, :1]).shape[-1]
            for element, _ in members:
                span = where[element]
                if count != span.stop - span.start:
                    raise ValueError(
                        f"{element.name}: batch_kernel() gives {count} "
                        "values, stamp_pattern() and the element's "
                        f"unknowns make {span.stop - span.start}")
            self.kernels.append((cls.batch_kernel, terminals, stacked))
            order.extend(element for element, _ in members)
        #: Flat slot of every kernel value of every sample, in a system
        #: buffer that holds one flat MNA system (plus trash) per sample.
        self.slots = (np.arange(self.size)[:, None] * (plan.trash + 1)
                      + np.concatenate([slots[where[e]] for e in order]))

    def sample_circuit(self, index: int):
        """Sample ``index`` as a circuit of its own, for the scalar path."""
        circuit = copy.deepcopy(self.template)
        for name, cards in self._cards.items():
            circuit[name].params = cards[index]
        for name, states in self._states.items():
            circuit[name].set_state(states[index])
        return circuit

    def current(self, name: str, x: np.ndarray) -> np.ndarray:
        """Per-sample current of the element ``name`` (it must define
        ``batch_current``) at the solutions ``x``, one row per sample."""
        if name not in self._device_cards:
            raise AnalysisError(f"CircuitBatch: no nonlinear element {name}")
        element, card = self._device_cards[name]
        return element.batch_current(_grounded(x), card)


def _take(cards: np.ndarray, rows) -> np.ndarray:
    """The sample columns ``rows`` of stacked cards (shared ones stay)."""
    return cards if cards.shape[1] == 1 else cards[:, rows]


def _grounded(x: np.ndarray) -> np.ndarray:
    """``x`` with a trailing column of zeros, so index -1 reads ground."""
    return np.concatenate((x, np.zeros((len(x), 1))), axis=1)


def _plain(ladders: int) -> List[dict]:
    """The recovery trace of a solve the plain rung took ``ladders`` times."""
    return [RungAttempt("plain", True).to_dict() for _ in range(ladders)]


class BatchSolution:
    """Operating points of the samples of a :class:`CircuitBatch`.

    Attributes
    ----------
    x:
        One solution per row; NaN rows for samples without a solution.
    residual_norm, cond_estimate, equilibrated:
        Per-sample certificate fields of the samples the batch solved
        and certified in bulk.
    failed:
        Samples the batch was asked to solve and could not.
    certs:
        Full certificates of the samples whose conditioning defenses
        ran in the scalar :func:`~repro.analysis.trust.certify`.
    fallbacks, errors:
        The scalar path's :class:`Solution`, or the
        :class:`~repro.errors.AnalysisError` it raised, per sample that
        left the batch.
    """

    def __init__(self, batch: CircuitBatch, time: float):
        size, unknowns = batch.size, batch.template.size
        self.batch = batch
        self.time = time
        self.x = np.full((size, unknowns), np.nan)
        self.residual_norm = np.full(size, np.nan)
        self.cond_estimate = np.full(size, np.nan)
        self.equilibrated = np.zeros(size, dtype=bool)
        self.failed = np.zeros(size, dtype=bool)
        self.certs: Dict[int, Certificate] = {}
        #: Plain-rung solves per operating point (2 with released clamps).
        self.ladders = 1
        self.fallbacks: Dict[int, Solution] = {}
        self.errors: Dict[int, AnalysisError] = {}

    def __len__(self) -> int:
        return len(self.x)

    def certificate(self, index: int) -> Certificate:
        """The certificate of sample ``index``'s final solve."""
        cert = self.certs.get(index)
        if cert is not None:
            return cert
        residual = float(self.residual_norm[index])
        return Certificate(residual_norm=residual,
                           cond_estimate=float(self.cond_estimate[index]),
                           equilibrated=bool(self.equilibrated[index]),
                           residual_before=residual)

    def solution(self, index: int) -> Solution:
        """Sample ``index`` as the :class:`Solution` the scalar
        ``operating_point`` returns; raises the sample's error.

        A sample the batch solved is bound to the template: its node
        voltages and branch currents are the sample's own, but a device
        measured through the template reads the template's card (use
        :meth:`CircuitBatch.current`).
        """
        if index in self.errors:
            raise self.errors[index]
        if index in self.fallbacks:
            return self.fallbacks[index]
        if np.isnan(self.x[index]).any():
            raise AnalysisError(f"sample {index} was not solved")
        sol = Solution(self.batch.template, self.x[index].copy(), self.time)
        sol.recovery_rung = None
        sol.recovery_trace = _plain(self.ladders)
        return sol.annotate_certificate(self.certificate(index))


def _condests(A: np.ndarray) -> np.ndarray:
    """:func:`~repro.analysis.trust.onenorm_condest` of each matrix of a
    stack, through one stacked inverse (whose buffer then also takes
    ``|A|``, so the stack is never copied twice)."""
    if A.shape[-1] == 0:
        return np.ones(len(A))
    try:
        work = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return np.array([onenorm_condest(a) for a in A])
    singular = ~np.isfinite(work).all(axis=(1, 2))
    inv_norm = np.abs(work, out=work).sum(axis=1).max(axis=1)
    norm = np.abs(A, out=work).sum(axis=1).max(axis=1)
    return np.where((norm == 0.0) | singular, np.inf, norm * inv_norm)


def _certify(result: BatchSolution, rows: np.ndarray, A: np.ndarray,
             b: np.ndarray, x: np.ndarray, trust, defended: np.ndarray):
    """Certify the accepted solves ``x`` of the samples ``rows``.

    The residual and condition number of every sample are computed in
    bulk; a sample past a threshold goes through the scalar
    :func:`~repro.analysis.trust.certify` for its defenses, with a
    condition-number cache of its own.
    """
    equilibrated = defended | trust.always_equilibrate
    if trust.certify:
        residual = (np.abs(np.matmul(A, x[..., None])[..., 0] - b).max(axis=1)
                    if x.shape[1] else np.zeros(len(x)))
        cond = _condests(A) if trust.condest else np.full(len(x), np.nan)
        rcond = np.where(np.isfinite(cond) & (cond > 0.0), 1.0 / cond, np.nan)
        suspect = (trust.always_equilibrate
                   | (residual > _RESIDUAL_THRESHOLD)
                   | ~np.isfinite(residual)
                   | (np.isfinite(rcond) & (rcond < trust.rcond_threshold))
                   | (trust.condest & ~np.isfinite(cond)))
        for k in np.flatnonzero(suspect):
            x[k], cert = certify(A[k], b[k], x[k],
                                 replace(trust, _condest_cache=None))
            cert.equilibrated = cert.equilibrated or bool(equilibrated[k])
            result.certs[int(rows[k])] = cert
        result.residual_norm[rows] = residual
        result.cond_estimate[rows] = cond
    result.equilibrated[rows] = equilibrated
    result.x[rows] = x


def _solve_each(A, b, x_new, pending, always_equilibrate, defended):
    """Solve the systems ``pending`` one by one, as ``newton_solve`` does:
    a singular matrix gets the equilibrated retry; one that stays
    singular leaves its row NaN."""
    for k in pending:
        try:
            if always_equilibrate:
                x_new[k] = equilibrated_solve(A[k], b[k])
                continue
            try:
                x_new[k] = np.linalg.solve(A[k], b[k])
            except np.linalg.LinAlgError:
                x_new[k] = equilibrated_solve(A[k], b[k])
                defended[k] = True
        except np.linalg.LinAlgError:
            pass


def lockstep_newton(batch: CircuitBatch, ctx: Context, x0: np.ndarray,
                    options: Optional[NewtonOptions] = None,
                    extra_stamps=None,
                    active: Optional[np.ndarray] = None) -> BatchSolution:
    """The plain Newton rung over the samples of ``batch`` in lockstep.

    ``x0`` is one initial guess per sample (or one for all); ``active``
    masks the samples to solve (default: all).  ``extra_stamps`` is
    shared by every sample, like the ``ic`` clamps.  Returns a
    :class:`BatchSolution` whose ``failed`` marks the samples that did
    not converge; it raises nothing for a sample.
    """
    opts = options or NewtonOptions()
    trust = opts.trust
    plan = batch.template.plan
    size, nodes = plan.size, plan.num_nodes
    width = plan.trash + 1
    result = BatchSolution(batch, ctx.time)
    rows = (np.arange(batch.size) if active is None
            else np.flatnonzero(active))
    x = np.array(np.broadcast_to(x0, (batch.size, size))[rows], dtype=float)
    finite = np.isfinite(x).all(axis=1)
    result.failed[rows[~finite]] = True
    rows, x = rows[finite], x[finite]

    fixed = PlanStamper(plan, ctx, max(opts.gmin, GMIN_FLOOR)).base
    extra = None
    if extra_stamps is not None:
        probe = Stamper(size)
        extra_stamps(probe, ctx)
        extra = np.concatenate((probe.A.ravel(), probe.b))
    kernels = [(kernel, terminals, _take(cards, rows))
               for kernel, terminals, cards in batch.kernels]
    defended = np.zeros(len(rows), dtype=bool)

    with np.errstate(all="ignore"):
        for _ in range(opts.max_iterations):
            count = len(rows)
            if not count:
                break
            grounded = _grounded(x)
            values = np.concatenate(
                [kernel(grounded[:, terminals], cards).reshape(count, -1)
                 for kernel, terminals, cards in kernels], axis=1)
            flat = np.bincount(batch.slots[:count].ravel(), values.ravel(),
                               count * width).reshape(count, width)[:, :-1]
            if extra is not None:
                flat += extra
            flat += fixed
            A = flat[:, :size * size].reshape(count, size, size)
            b = flat[:, size * size:]

            x_new = np.full_like(x, np.nan)
            pending = np.flatnonzero(np.isfinite(flat).all(axis=1))
            if not trust.always_equilibrate and pending.size:
                whole = pending.size == count
                try:
                    x_new[pending] = np.linalg.solve(
                        A if whole else A[pending],
                        (b if whole else b[pending])[..., None])[..., 0]
                    pending = pending[:0]
                except np.linalg.LinAlgError:
                    pass    # a singular sample: solve one by one
            _solve_each(A, b, x_new, pending, trust.always_equilibrate,
                        defended)
            failed = ~np.isfinite(x_new).all(axis=1)

            dx = x_new - x
            max_dv = (np.abs(dx[:, :nodes]).max(axis=1) if nodes
                      else np.zeros(count))
            # Damp node voltages only; a damped step is never converged.
            damped = max_dv > opts.damping
            step = np.where(damped, opts.damping / max_dv, 1.0)
            x_next = np.where(damped[:, None], x + dx * step[:, None], x_new)
            v_scale = (np.abs(x_new[:, :nodes]).max(axis=1) if nodes
                       else np.zeros(count))
            if size > nodes:
                i_err = np.abs(dx[:, nodes:]).max(axis=1)
                i_tol = np.maximum(
                    _ABSTOL, _RELTOL * np.abs(x_new[:, nodes:]).max(axis=1))
            else:
                i_err, i_tol = np.zeros(count), _ABSTOL
            converged = (~failed & ~damped
                         & (max_dv <= _VNTOL + _RELTOL * v_scale)
                         & (i_err <= i_tol))
            if converged.all():
                _certify(result, rows, A, b, x_new, trust, defended)
            elif converged.any():
                _certify(result, rows[converged], A[converged],
                         b[converged], x_new[converged], trust,
                         defended[converged])
            result.failed[rows[failed]] = True
            keep = ~(failed | converged)
            if not keep.all():
                kernels = [(kernel, terminals, _take(cards, keep))
                           for kernel, terminals, cards in kernels]
                rows, x, defended = rows[keep], x_next[keep], defended[keep]
            else:
                x = x_next
    result.failed[rows] = True    # out of iterations
    return result
