"""repro — reproduction of *"Comparative study of power-gating
architectures for nonvolatile FinFET-SRAM using spintronics-based
retention technology"* (Shuto, Yamamoto, Sugahara; DATE 2015).

The library is layered bottom-up:

* :mod:`repro.circuit` / :mod:`repro.analysis` — a nonlinear circuit
  simulator (MNA + Newton, DC / sweep / adaptive transient) standing in
  for HSPICE;
* :mod:`repro.devices` — the 20 nm FinFET compact model (PTM-like card)
  and the STT-MTJ macromodel of the paper's Table I;
* :mod:`repro.cells` — the 6T and NV-SRAM bitcells, header power switch
  and power-domain arithmetic;
* :mod:`repro.pg` — the paper's contribution: NVPG / NOF / OSR operating
  modes, Fig. 5 benchmark sequences, E_cyc composition and break-even
  time;
* :mod:`repro.characterize` — SPICE-level extraction of per-mode
  energies, leakage, store currents, power-switch sizing and SNM;
* :mod:`repro.experiments` — regeneration of every table and figure;
* :mod:`repro.spice` — a SPICE-deck front end for the whole stack.

Quickstart::

    from repro import (
        OperatingConditions, PowerDomain, ExperimentContext,
        Architecture, BenchmarkSpec, break_even_time,
    )

    ctx = ExperimentContext()
    model = ctx.energy_model(PowerDomain(n_wordlines=512, word_bits=32))
    print(model.e_cyc(BenchmarkSpec(Architecture.NVPG, n_rw=100,
                                    t_sl=100e-9, t_sd=1e-3)))
    print(break_even_time(model, Architecture.NVPG, n_rw=100).bet)

Each package root states its public names once, in ``_EXPORTS``: a map
from each name to the submodule it comes from (the defining module; for
``repro`` itself, the subpackage that exports it).  A name imports its
submodule on first use (:func:`_lazy_exports`), so each entry point
loads only the modules it runs.  ``repro.verify`` is the exception: it
imports its rule modules to register their rules.
"""

import sys


def _lazy_exports(package: str, exports: dict[str, str]):
    """The module ``__getattr__`` and ``__dir__`` (PEP 562) of
    ``package``, whose public names ``exports`` maps to the submodules
    they come from, relative to ``package`` (``".netlist"``).

    A name resolves on first access and is then cached on the package.
    A name defined in the submodule of the same name
    (``repro.analysis.transient``) is bound now, not on first use:
    importing that submodule binds the module to its name on the
    package, over a name not yet resolved.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``from .module import name``.  The builtin import, unlike
        # importlib.import_module, is what ``python -X importtime`` times.
        module = __import__(exports[name][1:], namespace, None, (name,), 1)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    for name, module in exports.items():
        if module == "." + name:
            __getattr__(name)
    return __getattr__, __dir__


_EXPORTS = {
    "ReproError": ".errors",
    "NetlistError": ".errors",
    "AnalysisError": ".errors",
    "ConvergenceError": ".errors",
    "DeviceError": ".errors",
    "CharacterizationError": ".errors",
    "SequenceError": ".errors",
    "Circuit": ".circuit",
    "Resistor": ".circuit",
    "Capacitor": ".circuit",
    "VoltageSource": ".circuit",
    "operating_point": ".analysis",
    "dc_sweep": ".analysis",
    "transient": ".analysis",
    "FinFET": ".devices",
    "FinFETParams": ".devices",
    "MTJ": ".devices",
    "MTJParams": ".devices",
    "MTJState": ".devices",
    "MTJ_TABLE1": ".devices",
    "NFET_20NM_HP": ".devices",
    "PFET_20NM_HP": ".devices",
    "PowerDomain": ".cells",
    "add_nvsram": ".cells",
    "add_sram6t": ".cells",
    "add_power_switch": ".cells",
    "build_cell_array": ".cells",
    "Architecture": ".pg",
    "BenchmarkSpec": ".pg",
    "CellEnergyModel": ".pg",
    "Mode": ".pg",
    "OperatingConditions": ".pg",
    "benchmark_sequence": ".pg",
    "break_even_time": ".pg",
    "CellCharacterization": ".characterize",
    "characterize_cell": ".characterize",
    "build_cell_testbench": ".characterize",
    "ExperimentContext": ".experiments",
    "parse_deck": ".spice",
    "run_deck": ".spice",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
