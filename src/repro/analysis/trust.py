"""Numerical-trust layer: solve certification and conditioning defenses.

The power-gating corners this repo simulates are numerically hostile by
construction: when the virtual-VDD rail floats behind a cut-off power
switch, the MNA matrix mixes on-FinFET conductances (~mS), MTJ branches
(~mS), subthreshold leakage (~pS) and the gmin floor (1e-12 S) in one
system — 9 to 15 decades of spread.  ``np.linalg.solve`` happily returns
*something* for such systems; nothing in the seed code said whether that
something could be trusted.

This module makes every accepted solve carry a :class:`Certificate`:

* ``residual_norm`` — the KCL residual ``‖A·x − b‖∞`` of the final
  linearised MNA system at the returned iterate (amps on node rows;
  devices are stamped as Norton companion pairs, so node rows are true
  current imbalances, and at Newton convergence this equals the
  nonlinear KCL residual to first order);
* ``cond_estimate`` — a cheap 1-norm condition estimate (Hager/Higham
  power iteration on ``A⁻¹``, a handful of O(n³-small) solves, no
  explicit inverse);
* ``refined`` / ``equilibrated`` — which conditioning defenses fired.

The defenses are *automatic*: when ``rcond`` or the residual crosses the
:class:`TrustOptions` thresholds, the final system is re-solved with
row/column equilibration (powers of two, so the scaling itself is
exact) and polished with iterative refinement.  Clean solves pay one
matvec and a few tiny dense solves — ≈0 against the Python-loop stamp
assembly that dominates every Newton iteration (measured in
``BENCH_engine.json``).

The same machinery backs the *fail-fast stamp guard*: a non-finite
matrix entry is rejected before ``np.linalg.solve`` can propagate
garbage, with per-element provenance (:func:`locate_nonfinite_stamps`)
naming the device that produced it instead of an opaque
``LinAlgError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

#: Hager 1-norm estimator iteration cap; 2-3 almost always converges.
_CONDEST_MAX_ITER = 5

#: Below this order the exact 1-norm via the explicit inverse is used:
#: one LAPACK call beats the estimator's five, and LAPACK-call overhead
#: (not flops) dominates dense linear algebra on cell-sized systems.
_CONDEST_EXACT_N = 64

#: Condition-estimate reuse tolerance for slowly-varying systems
#: (transient steps, Newton continuations).  When the matrix has drifted
#: by less than this relative 1-norm amount since the last *healthy*
#: estimate (rcond comfortably above ``rcond_threshold``), the cached
#: estimate is reused instead of re-running Hager's iteration.
#: Conditioning is a slowly-varying property of these decks, and the
#: residual threshold independently backs the defense trigger, so the
#: reuse only ever affects the advisory annotation.
_CONDEST_REUSE_RTOL = 0.1

#: KCL residual (amps) above which the conditioning defenses kick in.
#: Far above a healthy solve (~1e-12 A), far below device currents
#: (~1e-6 A).
_RESIDUAL_THRESHOLD = 1e-6

#: Iterative-refinement rounds per defended solve.
_MAX_REFINEMENTS = 1


@dataclass
class TrustOptions:
    """Certification / conditioning-defense knobs (see module docstring).

    Attributes
    ----------
    certify:
        Master switch.  Off means solves return uncertified (all
        certificate fields NaN) — only useful for benchmarking the
        certification overhead itself.
    condest:
        Also estimate the 1-norm condition number.  The estimate costs
        one LU factorisation plus a few triangular solves per accepted
        solve; disable in extremely hot loops if profiling says so.
    rcond_threshold:
        Reciprocal condition estimate below which the defenses kick in.
        1e-13 leaves the routine power-gating corners (~1e9..1e12
        condition) alone and catches the genuinely degenerate systems.
    always_equilibrate:
        Equilibrate every solve instead of only past-threshold ones
        (what the recovery ladder's rung 0.5 forces).
    """

    certify: bool = True
    condest: bool = True
    rcond_threshold: float = 1e-13
    always_equilibrate: bool = False
    #: Runtime condest-reuse cache (managed by :func:`certify`, not a knob).
    _condest_cache: Optional["_CondestCache"] = field(
        default=None, repr=False, compare=False)


@dataclass
class Certificate:
    """Numerical-trust annotation of one accepted solve.

    All fields are plain data; :meth:`to_dict` is JSON-safe so the
    certificate travels through campaign journals and result caches.
    """

    residual_norm: float = float("nan")
    cond_estimate: float = float("nan")
    refined: bool = False
    equilibrated: bool = False
    #: Refinement rounds actually applied.
    refinement_rounds: int = 0
    #: Residual before the defenses fired (== residual_norm when clean).
    residual_before: float = float("nan")

    @property
    def rcond(self) -> float:
        """Reciprocal condition estimate (NaN when not estimated)."""
        cond = self.cond_estimate
        if not np.isfinite(cond) or cond <= 0.0:
            return float("nan")
        return 1.0 / cond

    def defended(self) -> bool:
        return self.refined or self.equilibrated

    def to_dict(self) -> dict:
        return {
            "residual_norm": float(self.residual_norm),
            "cond_estimate": float(self.cond_estimate),
            "refined": bool(self.refined),
            "equilibrated": bool(self.equilibrated),
            "refinement_rounds": int(self.refinement_rounds),
            "residual_before": float(self.residual_before),
        }


def onenorm_condest(A: np.ndarray) -> float:
    """Cheap 1-norm condition estimate ``‖A‖₁ · est(‖A⁻¹‖₁)``.

    Small systems (order ≤ ``_CONDEST_EXACT_N``, which covers every
    single-cell testbench in this repo) get the *exact* 1-norm through
    the explicit inverse — at that size one LAPACK call is cheaper than
    an estimator's five.  Larger systems use Hager's power iteration on
    ``A⁻¹`` (Higham's Algorithm 4.1): each step solves ``A·y = x`` and
    ``Aᵀ·z = sign(y)`` — no explicit inverse.  ``A`` is LU-factorised
    *once*; all forward and transposed solves reuse the factors
    (``lu_solve(..., trans=1)``), so the whole estimate costs one O(n³)
    factorisation plus a few O(n²) triangular sweeps.  Returns ``inf``
    for a singular matrix and ``nan`` when the estimate itself broke
    down (non-finite intermediates).
    """
    n = A.shape[0]
    if n == 0:
        return 1.0
    norm_a = float(np.linalg.norm(A, 1))
    if norm_a == 0.0:
        return float("inf")
    if n <= _CONDEST_EXACT_N:
        try:
            with np.errstate(all="ignore"):
                inv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            return float("inf")
        if not np.all(np.isfinite(inv)):
            return float("inf")
        return norm_a * float(np.max(np.sum(np.abs(inv), axis=0)))
    try:
        with warnings.catch_warnings():
            # scipy warns (LinAlgWarning) on exactly-singular input; the
            # non-finite checks below already turn that into ``inf``.
            warnings.simplefilter("ignore")
            factors = lu_factor(A, check_finite=False)
            x = np.full(n, 1.0 / n)
            estimate = 0.0
            x_buf = np.zeros(n)
            for _ in range(_CONDEST_MAX_ITER):
                y = lu_solve(factors, x, check_finite=False)
                if not np.all(np.isfinite(y)):
                    return float("inf")
                new_estimate = float(np.linalg.norm(y, 1))
                sign = np.where(y >= 0.0, 1.0, -1.0)
                z = lu_solve(factors, sign, trans=1, check_finite=False)
                if not np.all(np.isfinite(z)):
                    return float("inf")
                j = int(np.argmax(np.abs(z)))
                # Converged when the new unit vector would repeat (standard
                # Hager termination: |z|_inf <= z.x) or the estimate stalls.
                if (float(np.abs(z[j])) <= float(z @ x)
                        or new_estimate <= estimate):
                    estimate = max(estimate, new_estimate)
                    break
                estimate = new_estimate
                x = x_buf
                x.fill(0.0)
                x[j] = 1.0
        return norm_a * estimate
    except (np.linalg.LinAlgError, ValueError):
        return float("inf")


@dataclass
class _CondestCache:
    """Last healthy condition estimate, keyed on a matrix snapshot."""

    snapshot: np.ndarray
    norm: float
    estimate: float
    #: Scratch matrix for the drift check (avoids a per-solve alloc).
    scratch: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.scratch is None:
            self.scratch = np.empty_like(self.snapshot)


def _condest_with_reuse(A: np.ndarray, opts: "TrustOptions") -> float:
    """Condition estimate with reuse across slowly-varying systems.

    Transient stepping and Newton continuations certify a long sequence
    of matrices that differ only in companion-model and linearisation
    terms; their conditioning drifts far more slowly than their entries.
    When the drift since the last estimate is below
    ``_CONDEST_REUSE_RTOL`` *and* that estimate was comfortably healthy
    (rcond above ``1e4 × rcond_threshold``, so reuse can never mask a
    defense trigger), the cached value is returned without any solve.

    The drift test bounds the 1-norm through the Frobenius norm
    (``‖M‖₁ ≤ √n·‖M‖_F``) because the Frobenius norm of the difference
    is one BLAS dot — the check must stay negligible against the
    Python-loop stamp assembly or the cache defeats its own purpose.
    """
    cache = opts._condest_cache
    n = A.shape[0]
    if (cache is not None
            and cache.snapshot.shape == A.shape
            and np.isfinite(cache.estimate) and cache.estimate > 0.0
            and 1.0 / cache.estimate > 1e4 * opts.rcond_threshold):
        np.subtract(A, cache.snapshot, out=cache.scratch)
        flat = cache.scratch.ravel()
        fro_sq = float(np.dot(flat, flat))
        if fro_sq * n <= (_CONDEST_REUSE_RTOL * cache.norm) ** 2:
            return cache.estimate
    estimate = onenorm_condest(A)
    norm_a = float(np.linalg.norm(A, 1)) if A.size else 0.0
    opts._condest_cache = _CondestCache(A.copy(), norm_a, estimate)
    return estimate


def equilibration_scales(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row/column equilibration scalings for ``A``, as powers of two.

    Mirrors LAPACK ``dgeequ``: rows are scaled by the reciprocal of
    their largest magnitude, then columns of the row-scaled matrix
    likewise.  Rounding each scale to a power of two makes the scaling
    itself exact in floating point, so equilibration can never *add*
    rounding error.  All-zero rows/columns get scale 1 (the solve will
    report singularity on its own).
    """
    with np.errstate(divide="ignore", over="ignore"):
        row_max = np.max(np.abs(A), axis=1)
        r = np.where(row_max > 0.0, 1.0 / row_max, 1.0)
        r = np.exp2(np.round(np.log2(r)))
        col_max = np.max(np.abs(A) * r[:, None], axis=0)
        c = np.where(col_max > 0.0, 1.0 / col_max, 1.0)
        c = np.exp2(np.round(np.log2(c)))
    return r, c


def equilibrated_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A·x = b`` through the row/column-equilibrated system.

    Solves ``(R·A·C)·y = R·b`` and returns ``x = C·y`` where R and C are
    exact power-of-two scalings.  Raises ``numpy.linalg.LinAlgError``
    exactly when the scaled system is singular.
    """
    r, c = equilibration_scales(A)
    y = np.linalg.solve(A * r[:, None] * c[None, :], b * r)
    return c * y


def refine(A: np.ndarray, b: np.ndarray, x: np.ndarray,
           rounds: int = 1, equilibrate: bool = False) -> Tuple[np.ndarray, int]:
    """Iterative refinement of ``x`` toward ``A·x = b``.

    Each round computes the residual ``r = b − A·x`` and adds the
    correction ``A⁻¹·r``; a round that does not reduce the residual
    inf-norm is rolled back and refinement stops.  Returns the refined
    vector and the number of rounds actually applied.
    """
    applied = 0
    best = float(np.max(np.abs(A @ x - b))) if x.size else 0.0
    for _ in range(max(rounds, 0)):
        residual = b - A @ x
        try:
            if equilibrate:
                correction = equilibrated_solve(A, residual)
            else:
                correction = np.linalg.solve(A, residual)
        except np.linalg.LinAlgError:
            break
        candidate = x + correction
        if not np.all(np.isfinite(candidate)):
            break
        new_norm = float(np.max(np.abs(A @ candidate - b)))
        if new_norm >= best:
            break
        x = candidate
        best = new_norm
        applied += 1
    return x, applied


def residual_inf_norm(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """``‖A·x − b‖∞`` (amps on MNA node rows)."""
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(A @ x - b)))


def certify(A: np.ndarray, b: np.ndarray, x: np.ndarray,
            options: Optional[TrustOptions] = None) -> Tuple[np.ndarray, Certificate]:
    """Certify an accepted solve, applying conditioning defenses if needed.

    Returns the (possibly refined) solution and its :class:`Certificate`.
    The caller hands in the final assembled system and the solution the
    plain solve produced; when ``residual_norm`` or ``rcond`` crosses
    the thresholds (or ``always_equilibrate`` is set), the system is
    re-solved through exact power-of-two row/column equilibration and
    polished with iterative refinement.
    """
    opts = options or TrustOptions()
    cert = Certificate()
    if not opts.certify:
        return x, cert
    cert.residual_norm = residual_inf_norm(A, b, x)
    cert.residual_before = cert.residual_norm
    if opts.condest:
        cert.cond_estimate = _condest_with_reuse(A, opts)

    rcond = cert.rcond
    suspect = (
        opts.always_equilibrate
        or cert.residual_norm > _RESIDUAL_THRESHOLD
        or not np.isfinite(cert.residual_norm)
        or (np.isfinite(rcond) and rcond < opts.rcond_threshold)
        or (opts.condest and not np.isfinite(cert.cond_estimate))
    )
    if not suspect:
        return x, cert

    defended = x
    try:
        candidate = equilibrated_solve(A, b)
        if np.all(np.isfinite(candidate)):
            # Past the rcond threshold a small residual does not imply a
            # small *error*, so prefer the solution computed through the
            # better-conditioned scaled system whenever its residual is
            # comparable (within a few ulp-scale factors) — not only when
            # it is strictly no worse.
            if (residual_inf_norm(A, b, candidate)
                    <= 4.0 * max(cert.residual_norm, 0.0)
                    or not np.isfinite(cert.residual_norm)):
                defended = candidate
                cert.equilibrated = True
    except np.linalg.LinAlgError:
        pass
    defended, rounds = refine(A, b, defended, rounds=_MAX_REFINEMENTS,
                              equilibrate=True)
    cert.refinement_rounds = rounds
    cert.refined = rounds > 0
    cert.residual_norm = residual_inf_norm(A, b, defended)
    return defended, cert


# ---------------------------------------------------------------------------
# non-finite stamp provenance
# ---------------------------------------------------------------------------

def locate_nonfinite_stamps(circuit, ctx, gmin: float = 0.0,
                            extra_stamps=None) -> List[Dict[str, object]]:
    """Name the elements (and rows) stamping non-finite entries.

    Re-stamps each element in isolation at the context's iterate and
    reports every element whose own contribution contains NaN/Inf,
    together with the offending equation rows (by MNA row label).  Used
    by the solver's fail-fast stamp guard — this is a cold diagnostic
    path that only runs when a solve is already doomed.
    """
    from .mna import Stamper
    from .solver import row_labels

    labels = row_labels(circuit)
    offenders: List[Dict[str, object]] = []

    def bad_rows(stamper: Stamper) -> List[str]:
        bad = ~np.isfinite(stamper.A)
        rows = set(np.nonzero(bad)[0].tolist())
        rows.update(np.nonzero(~np.isfinite(stamper.b))[0].tolist())
        return [labels[i] for i in sorted(rows)]

    for element in circuit.elements():
        probe = Stamper(circuit.size)
        try:
            element.stamp(probe, ctx)
        except (ArithmeticError, ValueError) as err:
            offenders.append({"element": element.name,
                              "rows": [], "error": str(err)})
            continue
        rows = bad_rows(probe)
        if rows:
            offenders.append({"element": element.name, "rows": rows})
    if extra_stamps is not None:
        probe = Stamper(circuit.size)
        extra_stamps(probe, ctx)
        rows = bad_rows(probe)
        if rows:
            offenders.append({"element": "<extra_stamps>", "rows": rows})
    if gmin and not np.isfinite(gmin):
        offenders.append({"element": "<gmin>", "rows": []})
    return offenders


def describe_offenders(offenders: List[Dict[str, object]]) -> str:
    """One-line summary of :func:`locate_nonfinite_stamps` output."""
    if not offenders:
        return "no single element stamps non-finite values in isolation"
    parts = []
    for entry in offenders[:4]:
        rows = entry.get("rows") or []
        where = f" @ rows [{', '.join(map(str, rows[:3]))}]" if rows else ""
        err = entry.get("error")
        suffix = f" ({err})" if err else ""
        parts.append(f"{entry['element']}{where}{suffix}")
    more = len(offenders) - 4
    if more > 0:
        parts.append(f"+{more} more")
    return "; ".join(parts)


@dataclass
class TrustAccumulator:
    """Running worst-case certification over many solves.

    Characterisation runners and campaign aggregation use this to fold
    the per-solve certificates of a whole extraction into three numbers
    that travel with the cached result: the worst KCL residual, the
    worst condition estimate, and how many solves needed defenses.
    """

    residual_norm_max: float = 0.0
    cond_estimate_max: float = 0.0
    defended_solves: int = 0
    solves: int = 0

    def note(self, obj) -> None:
        """Fold in a Solution / TransientResult / Certificate-like."""
        residual = getattr(obj, "residual_norm", None)
        cond = getattr(obj, "cond_estimate", None)
        if residual is not None and np.isfinite(residual):
            self.residual_norm_max = max(self.residual_norm_max,
                                         float(residual))
        if cond is not None and np.isfinite(cond):
            self.cond_estimate_max = max(self.cond_estimate_max, float(cond))
        # Certificates distinguish refined from equilibrated; ``defended``
        # covers both.  ``refined`` is a bool on Solution and a step
        # count on TransientResult; int() folds both into the tally.
        defended = getattr(obj, "defended", None)
        if callable(defended):
            self.defended_solves += int(bool(defended()))
        else:
            self.defended_solves += int(getattr(obj, "refined", False) or 0)
        self.solves += 1

    def as_extras(self) -> Dict[str, float]:
        """Flat float dict for ``CellCharacterization.extras`` / journals."""
        return {
            "trust_residual_norm_max": float(self.residual_norm_max),
            "trust_cond_estimate_max": float(self.cond_estimate_max),
            "trust_defended_solves": float(self.defended_solves),
            "trust_certified_solves": float(self.solves),
        }
