"""Monte-Carlo variability analysis: mismatch, store yield, SNM spread.

The paper evaluates a nominal cell; a production assessment must ask how
the design margins survive device variation.  This module samples
per-device parameter variations (threshold-voltage mismatch for the
FinFETs, critical-current and resistance spread for the MTJs) and
propagates them through the same DC analyses used for the nominal
design curves:

* :func:`store_yield_analysis` — does the two-step store still exceed
  the (sampled) MTJ critical current in every corner?  This is the
  statistical justification of the paper's 1.5 x Ic margin rule.
* :func:`read_snm_distribution` — spread of the read static noise
  margin with mismatched cross-coupled inverters (the asymmetric
  butterfly), quantifying the stability cost of the (1,1) fin design.

Each analysis solves its samples as one
:class:`~repro.analysis.batch.CircuitBatch`: the store as one batch of
nv testbenches, the SNM as one batch of two half-cells per sample.  No
batched operation mixes samples and each sample seeds its own
generator, so a sample's result does not depend on how many others run
beside it.  A sample the batch cannot finish takes the scalar path with
the whole recovery ladder; one that fails there too carries NaN and a
:class:`~repro.recovery.partial.SkipRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError, CharacterizationError
from ..analysis import dc_sweep
from ..analysis.batch import CircuitBatch
from ..analysis.dc import batch_operating_point
from ..recovery.partial import SkipRecord
from ..cells import PowerDomain
from ..circuit import Circuit, VoltageSource
from ..devices.finfet import FinFET, FinFETParams
from ..devices.mtj import MTJ, MTJState
from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
from ..pg.modes import Mode, OperatingConditions
from .snm import _butterfly_snm_two
from .testbench import build_cell_testbench


@dataclass(frozen=True)
class VariationModel:
    """Statistical variation magnitudes (1-sigma).

    Attributes
    ----------
    sigma_vth:
        Threshold-voltage mismatch per device (volts).  ~25 mV is a
        typical Pelgrom-law value for a minimum (one-fin) 20 nm device.
    sigma_ispec_rel:
        Relative current-factor spread per device.
    sigma_ic_rel:
        Relative MTJ critical-current spread.
    sigma_r_rel:
        Relative MTJ resistance (RA product) spread.
    """

    sigma_vth: float = 0.025
    sigma_ispec_rel: float = 0.05
    sigma_ic_rel: float = 0.05
    sigma_r_rel: float = 0.04

    def sample_fet(self, params: FinFETParams,
                   rng: np.random.Generator) -> FinFETParams:
        """One mismatched instance of a FinFET card."""
        vth = max(params.vth0 + rng.normal(0.0, self.sigma_vth), 0.01)
        i_spec = params.i_spec * float(
            np.exp(rng.normal(0.0, self.sigma_ispec_rel))
        )
        return params.with_(vth0=vth, i_spec=i_spec)

    def sample_mtj(self, params, rng: np.random.Generator):
        """One varied instance of an MTJ card."""
        jc = params.jc * float(np.exp(rng.normal(0.0, self.sigma_ic_rel)))
        ra = params.ra_product * float(
            np.exp(rng.normal(0.0, self.sigma_r_rel))
        )
        return params.with_(jc=jc, ra_product=ra)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Per-sample generator seeded from ``(seed, index)``.

    Seeding each Monte-Carlo sample independently (instead of drawing
    from one sequential stream) makes the variates a function of the
    sample index alone, so a larger run repeats a smaller one's samples
    bit for bit before it adds its own.
    """
    return np.random.default_rng([seed, index])


def _draw_cards(circuit: Circuit, variation: VariationModel, seed: int,
                indices: Sequence[int],
                copies: int = 1) -> Dict[str, List[object]]:
    """Per-sample cards of every FinFET and MTJ of ``circuit``.

    Sample ``i`` draws from :func:`sample_rng` ``(seed, i)`` for each of
    its ``copies`` of the circuit in turn, device by device in circuit
    order, so the cards of ``copies * len(indices)`` circuits come back
    in that order.
    """
    devices = [e for e in circuit.elements() if isinstance(e, (FinFET, MTJ))]
    cards: Dict[str, List[object]] = {e.name: [] for e in devices}
    for i in indices:
        rng = sample_rng(seed, i)
        for _ in range(copies):
            for e in devices:
                draw = (variation.sample_fet if isinstance(e, FinFET)
                        else variation.sample_mtj)
                cards[e.name].append(draw(e.params, rng))
    return cards


def _store_margins(cond: Optional[OperatingConditions],
                   domain: Optional[PowerDomain],
                   variation: VariationModel, seed: int,
                   indices: Sequence[int],
                   ) -> Tuple[np.ndarray, Dict[int, AnalysisError]]:
    """Worst-case store margin (min of H/L store) of each sample.

    Solves the samples ``indices`` as one batch of nv testbenches and
    returns their margins (NaN for a failed sample) and ``{position in
    indices: error}`` of the failed ones.  A sample that fails the
    H-store is not solved for the L-store.
    """
    tb = build_cell_testbench("nv", cond, domain)
    cards = _draw_cards(tb.circuit, variation, seed, indices)
    cell = tb.nv_cell
    ic_map = tb.initial_conditions(True)      # Q high
    alive = np.ones(len(indices), dtype=bool)
    errors: Dict[int, AnalysisError] = {}
    margins = np.full(len(indices), np.inf)
    # H-store: Q-side MTJ still parallel, CTRL grounded.  L-store:
    # QB-side MTJ antiparallel, CTRL at the store level.
    for mode, q_state, junction in (
            (Mode.STORE_H, MTJState.PARALLEL, cell.mtj_q),
            (Mode.STORE_L, MTJState.ANTIPARALLEL, cell.mtj_qb)):
        tb.apply_mode(mode)
        cell.set_mtj_states(tb.circuit, q_state, MTJState.ANTIPARALLEL)
        batch = CircuitBatch(tb.circuit, cards)
        point = batch_operating_point(batch, ic=ic_map, active=alive)
        for k, err in point.errors.items():
            errors[k] = err
            alive[k] = False
        name = junction(tb.circuit).name
        i_c = np.array([card.critical_current for card in cards[name]])
        margins = np.minimum(
            margins, np.abs(batch.current(name, point.x)) / i_c)
    margins[~alive] = np.nan
    return margins, errors


def _skips(errors: Dict[int, AnalysisError], indices: Sequence[int],
           stage: str) -> List[SkipRecord]:
    """The skip records of the failed samples, by sample index."""
    return [SkipRecord.from_error(err, index=indices[k],
                                  label=f"sample {indices[k]}", stage=stage)
            for k, err in sorted(errors.items())]


@dataclass
class StoreYieldResult:
    """Monte-Carlo store-margin distribution.

    Samples whose solves failed even through the recovery ladder carry a
    NaN margin and a :class:`~repro.recovery.partial.SkipRecord`; the
    yield figures count them as *failing* (a corner we could not verify
    is not a passing corner).
    """

    margins: np.ndarray          # worst-case I/Ic per sample (NaN=skipped)
    target_margin: float
    n_samples: int
    skips: List[SkipRecord] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        """Samples skipped after ladder exhaustion."""
        return len(self.skips)

    @property
    def switching_yield(self) -> float:
        """Fraction of samples whose store current exceeds Ic at all."""
        return float(np.mean(self.margins > 1.0))

    @property
    def margin_yield(self) -> float:
        """Fraction of samples meeting the full design margin."""
        return float(np.mean(self.margins >= self.target_margin))

    def percentile(self, q: float) -> float:
        return float(np.nanpercentile(self.margins, q))


def store_yield_analysis(
    cond: Optional[OperatingConditions] = None,
    domain: Optional[PowerDomain] = None,
    n_samples: int = 200,
    variation: VariationModel = VariationModel(),
    seed: int = 2015,
) -> StoreYieldResult:
    """Monte-Carlo the two-step store against sampled device corners.

    For each sample, every FinFET and MTJ in the cell testbench receives
    an independent parameter draw; the H-store and L-store operating
    points are solved and the worst of the two current-over-(sampled)-Ic
    ratios is recorded.  Each sample seeds its own generator from
    ``(seed, index)`` (see :func:`sample_rng`), so sample ``i`` has the
    same margin in every run of more than ``i`` samples.
    """
    cond = cond or OperatingConditions()
    domain = domain or PowerDomain()
    if n_samples < 1:
        raise CharacterizationError("n_samples must be >= 1")

    indices = range(n_samples)
    margins, errors = _store_margins(cond, domain, variation, seed, indices)
    return StoreYieldResult(
        margins=margins,
        target_margin=cond.store_margin,
        n_samples=n_samples,
        skips=_skips(errors, indices, "store_yield_analysis"),
    )


@dataclass
class SnmDistribution:
    """Monte-Carlo SNM distribution of the mismatched cell.

    Samples whose VTC sweeps failed to converge carry NaN and a
    :class:`~repro.recovery.partial.SkipRecord`; ``stability_yield``
    counts them as unstable (unverifiable corners don't pass).
    """

    snm: np.ndarray
    mode: str
    n_samples: int
    skips: List[SkipRecord] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return len(self.skips)

    @property
    def mean(self) -> float:
        return float(np.nanmean(self.snm))

    @property
    def std(self) -> float:
        return float(np.nanstd(self.snm))

    @property
    def stability_yield(self) -> float:
        """Fraction of samples that remain bistable (SNM > 0)."""
        return float(np.mean(self.snm > 0.0))

    def percentile(self, q: float) -> float:
        return float(np.nanpercentile(self.snm, q))


def _half_cell(cond: OperatingConditions, read_mode: bool,
               nfet: FinFETParams, pfet: FinFETParams) -> Circuit:
    """One half-cell (inverter plus, in read mode, its pass-gate)."""
    circuit = Circuit("snm-mc-half-cell")
    circuit.add(VoltageSource("vdd", "vdd", "0", dc=cond.vdd))
    circuit.add(VoltageSource("vin", "in", "0", dc=0.0))
    circuit.add(FinFET("pu", "out", "in", "vdd", pfet, 1))
    circuit.add(FinFET("pd", "out", "in", "0", nfet, 1))
    if read_mode:
        circuit.add(VoltageSource("vbl", "bl", "0", dc=cond.vdd))
        circuit.add(VoltageSource("vwl", "wl", "0", dc=cond.v_wl_read))
        circuit.add(FinFET("pg", "bl", "wl", "out", nfet, 1))
    return circuit


def _snm_values(cond: OperatingConditions, read_mode: bool,
                variation: VariationModel, seed: int,
                indices: Sequence[int], points: int, nfet: FinFETParams,
                pfet: FinFETParams,
                ) -> Tuple[np.ndarray, Dict[int, AnalysisError]]:
    """Asymmetric-butterfly SNM of each sample.

    Each sample's two mismatched half-cells (the first one's devices
    drawn first) trace their VTCs in one batch with every other
    sample's.  Returns the SNMs (NaN for a failed sample) and
    ``{position in indices: error}`` of the samples whose VTC sweep
    failed.  A monostable corner (butterfly with no second eye) has SNM
    0.0 — stability lost, not an analysis failure.
    """
    circuit = _half_cell(cond, read_mode, nfet, pfet)
    batch = CircuitBatch(
        circuit, _draw_cards(circuit, variation, seed, indices, copies=2))
    vin = np.linspace(0.0, cond.vdd, points)
    sweep = dc_sweep(batch, "vin", vin)
    vtc = sweep.voltage("out")
    snm = np.full(len(indices), np.nan)
    errors: Dict[int, AnalysisError] = {}
    for k in range(len(indices)):
        err = sweep.errors.get(2 * k, sweep.errors.get(2 * k + 1))
        if err is not None:
            errors[k] = err
            continue
        try:
            snm[k], _ = _butterfly_snm_two(vin, vtc[2 * k], vtc[2 * k + 1])
        except CharacterizationError:
            snm[k] = 0.0   # monostable corner: stability lost
    return snm, errors


def read_snm_distribution(
    cond: Optional[OperatingConditions] = None,
    n_samples: int = 100,
    variation: VariationModel = VariationModel(),
    read_mode: bool = True,
    points: int = 41,
    seed: int = 2015,
    nfet: FinFETParams = NFET_20NM_HP,
    pfet: FinFETParams = PFET_20NM_HP,
) -> SnmDistribution:
    """Monte-Carlo the (a)symmetric butterfly SNM under mismatch.

    Each sample draws *two* independent mismatched half-cells (the two
    cross-coupled inverters differ — that is what mismatch does to a
    real cell) and computes the asymmetric-butterfly SNM: the smaller of
    the two eye margins.  Samples are independently seeded (see
    :func:`sample_rng`), so sample ``i`` has the same SNM in every run
    of more than ``i`` samples.
    """
    cond = cond or OperatingConditions()
    if n_samples < 1:
        raise CharacterizationError("n_samples must be >= 1")

    indices = range(n_samples)
    values, errors = _snm_values(cond, read_mode, variation, seed, indices,
                                 points, nfet, pfet)
    return SnmDistribution(
        snm=values,
        mode="read" if read_mode else "hold",
        n_samples=n_samples,
        skips=_skips(errors, indices, "read_snm_distribution"),
    )
