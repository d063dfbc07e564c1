"""Public-API stability and documentation checks.

Downstream code imports from ``repro`` and the subpackage roots; these
tests pin that surface so refactors cannot silently drop names, and
enforce the documentation bar (every public module, class and function
carries a docstring).
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

TOP_LEVEL_EXPORTS = [
    # errors
    "ReproError", "NetlistError", "AnalysisError", "ConvergenceError",
    "DeviceError", "CharacterizationError", "SequenceError",
    # circuit + analysis
    "Circuit", "Resistor", "Capacitor", "VoltageSource",
    "operating_point", "dc_sweep", "transient",
    # devices
    "FinFET", "FinFETParams", "MTJ", "MTJParams", "MTJState",
    "MTJ_TABLE1", "NFET_20NM_HP", "PFET_20NM_HP",
    # cells
    "PowerDomain", "add_nvsram", "add_sram6t", "add_power_switch",
    "build_cell_array",
    # pg
    "Architecture", "BenchmarkSpec", "CellEnergyModel", "Mode",
    "OperatingConditions", "benchmark_sequence", "break_even_time",
    # characterisation / experiments / spice
    "CellCharacterization", "characterize_cell", "build_cell_testbench",
    "ExperimentContext", "parse_deck", "run_deck",
]

SUBPACKAGE_EXPORTS = {
    "repro.circuit": ["Sine", "Exponential", "Pulse", "SubCircuit"],
    "repro.analysis": ["dc_sweep", "TransientOptions"],
    "repro.cells": ["add_nvff", "add_senseamp", "add_inverter"],
    "repro.pg": [
        "PowerDomainSimulator", "RegisterBankModel", "bet_curve_crossing",
        "CycleEnergyBreakdown",
    ],
    "repro.characterize": [
        "leakage_vs_vctrl", "store_current_vs_vsr", "derive_store_biases",
        "vvdd_vs_nfsw", "butterfly_curve", "retention_voltage_sweep",
        "store_yield_analysis", "characterize_nvff",
        "nof_access_disturb",
    ],
    "repro.experiments": [
        "run_table1", "run_fig1", "run_fig3", "run_fig4", "run_fig5",
        "run_fig6", "run_fig7a", "run_fig7b", "run_fig7c", "run_fig8",
        "run_fig9", "run_summary",
    ],
    "repro.verify": [
        "REGISTRY", "Diagnostic", "Finding", "Report", "Rule",
        "Severity", "VerifyConfig", "assert_clean", "lint_enabled",
        "render_json", "render_sarif", "render_text", "rule",
        "run_rules", "verify_circuit", "verify_deck",
        "verify_deck_file",
    ],
}


class TestTopLevel:
    @pytest.mark.parametrize("name", TOP_LEVEL_EXPORTS)
    def test_export_present(self, name):
        assert hasattr(repro, name), f"repro.{name} missing"
        assert name in repro.__all__

    def test_version(self):
        assert repro.__version__

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None


class TestSubpackages:
    @pytest.mark.parametrize("module,names", sorted(
        SUBPACKAGE_EXPORTS.items()))
    def test_exports(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"


#: Blocks scipy (an entry of ``None`` in ``sys.modules`` makes its import
#: raise), imports every entry point, and solves a divider with the
#: condition number certified.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import repro, repro.cli, repro.experiments.summary
import repro.characterize.variability, repro.verify, repro.exec
import repro.serve, repro.spice
from repro import Circuit, Resistor, VoltageSource, operating_point
c = Circuit()
c.add(VoltageSource("v", "in", "0", dc=1.0))
c.add(Resistor("r1", "in", "mid", 1e3))
c.add(Resistor("r2", "mid", "0", 3e3))
sol = operating_point(c)
print(sol.voltage("mid"), sol.cond_estimate)
"""


def test_repro_imports_and_solves_without_scipy():
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    mid, cond = map(float, proc.stdout.split())
    assert mid == pytest.approx(0.75, rel=1e-6)
    assert 1.0 <= cond < float("inf")


#: Blocks networkx, imports the same entry points, runs the
#: lint-before-simulate hook on the nv testbench and counts the RV004
#: loops of a three-source ring.
WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None
import repro, repro.cli, repro.experiments.summary
import repro.characterize.variability, repro.verify, repro.exec
import repro.serve, repro.spice
from repro import Circuit, Resistor, VoltageSource, build_cell_testbench
from repro.verify import assert_clean, verify_circuit
assert_clean(build_cell_testbench("nv").circuit)
c = Circuit()
c.add(VoltageSource("v1", "a", "0", dc=1.0))
c.add(VoltageSource("v2", "b", "a", dc=0.5))
c.add(VoltageSource("v3", "b", "0", dc=1.5))
c.add(Resistor("r", "b", "0", 1e3))
print(sum(d.code == "RV004" for d in verify_circuit(c)))
"""


def test_repro_imports_and_lints_without_networkx():
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "REPRO_LINT": "1"}
    env.pop("REPRO_LINT_DISABLE", None)
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NETWORKX], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


#: Imports what a warm ``repro all`` imports and prints how many
#: ``repro`` modules that loaded.
WARM_PATH = """
import sys
import repro.cli, repro.experiments.summary
print(sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")))
"""


def test_warm_path_loads_at_most_78_repro_modules():
    """Import is most of a warm ``repro all``, so a module that joins
    its import path must replace one already on it."""
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", WARM_PATH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 78


#: What each benchmark workload imports before it starts, and how many
#: ``repro`` modules that may load: package exports load on first use,
#: so each import loads only the modules it runs.
SETUP_IMPORTS = {
    "import repro.characterize.runner": 40,
    "import repro.characterize.variability": 37,
    "import repro.cli, repro.experiments.summary": 61,
}

#: Runs ``sys.argv[1]`` and prints how many ``repro`` modules it loaded.
COUNT_LOADED = """
import sys
exec(sys.argv[1])
print(sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")))
"""


def _fresh_interpreter(script, *args):
    """stdout of ``script`` run with ``args`` in a new interpreter."""
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("imports,most", sorted(SETUP_IMPORTS.items()))
def test_setup_import_loads_only_what_it_runs(imports, most):
    assert int(_fresh_interpreter(COUNT_LOADED, imports)) <= most


#: The package roots whose exports load on first use.  ``repro.verify``
#: stays eager: importing its rule modules registers the rules.
LAZY_PACKAGES = [
    "repro", "repro.analysis", "repro.circuit", "repro.devices",
    "repro.cells", "repro.pg", "repro.characterize", "repro.experiments",
    "repro.spice", "repro.exec", "repro.recovery", "repro.serve",
]


def _defining_module(module, name):
    """The module that defines ``module.name``, following export maps."""
    while name in getattr(module, "_EXPORTS", {}):
        module = importlib.import_module(module._EXPORTS[name],
                                         module.__name__)
    return module


#: Lists each package's ``dir`` before any of its exports is resolved.
DIR_BEFORE_USE = """
import importlib, sys
for name in sys.argv[1:]:
    package = importlib.import_module(name)
    print(set(package.__all__) <= set(dir(package)))
"""

#: Imports the submodule named like ``repro.analysis.transient`` first.
TRANSIENT_AFTER_ITS_MODULE = """
import inspect, sys
import repro.analysis.transient
print(inspect.isfunction(sys.modules["repro.analysis"].transient))
"""


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_exports_are_their_defining_objects(self, package):
        """Also once every submodule named like an export is imported:
        the import binds the module to that name on the package."""
        module = importlib.import_module(package)
        for info in pkgutil.iter_modules(module.__path__):
            if info.name in module.__all__:
                importlib.import_module(f"{package}.{info.name}")
        for name in module.__all__:
            defining = _defining_module(module, name)
            assert getattr(module, name) is getattr(defining, name), name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import_binds_all(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(importlib.import_module(package).__all__) <= \
            set(namespace)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_attribute_names_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError,
                           match=f"module '{package}' has no attribute"):
            module.no_such_export

    def test_dir_lists_exports_before_use(self):
        out = _fresh_interpreter(DIR_BEFORE_USE, *LAZY_PACKAGES).split()
        assert out == ["True"] * len(LAZY_PACKAGES)

    def test_analysis_transient_stays_the_function(self):
        assert _fresh_interpreter(TRANSIENT_AFTER_ITS_MODULE).split() == \
            ["True"]


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        if info.name.endswith("__main__"):
            continue   # importing it would execute the CLI
        yield importlib.import_module(info.name)


class TestDocumentation:
    def test_every_module_has_docstring(self):
        undocumented = [
            m.__name__ for m in _walk_modules()
            if not (m.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_public_callables_documented(self):
        missing = []
        for module in _walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        missing.append(f"{module.__name__}.{name}")
        assert missing == []
