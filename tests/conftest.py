"""Shared fixtures for the test suite.

Characterisations are expensive (a handful of transient simulations), so
a session-scoped context with the on-disk cache keeps repeat test runs
fast while first runs stay correct.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# Route the characterisation cache into the repository so test runs are
# reproducible per checkout and easy to wipe.  Must happen before repro
# imports resolve the default cache directory.
_CACHE = Path(__file__).resolve().parent.parent / ".repro-cache"
os.environ.setdefault("REPRO_CACHE_DIR", str(_CACHE))

from repro.cells import PowerDomain                      # noqa: E402
from repro.experiments import ExperimentContext          # noqa: E402
from repro.pg.modes import OperatingConditions           # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--reverse", action="store_true", default=False,
        help="run the collected tests in reverse order, to catch state "
             "that one test leaks into the next")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse"):
        items.reverse()


@pytest.fixture(scope="session")
def cond() -> OperatingConditions:
    """The paper's Table I operating conditions."""
    return OperatingConditions()


@pytest.fixture(scope="session")
def domain() -> PowerDomain:
    """The paper's reference power domain (N = 512, M = 32: 2 kB)."""
    return PowerDomain(n_wordlines=512, word_bits=32)


@pytest.fixture(scope="session")
def small_domain() -> PowerDomain:
    """A small domain for fast transient tests."""
    return PowerDomain(n_wordlines=32, word_bits=32)


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """Session-wide experiment context (memoised characterisations)."""
    return ExperimentContext()


@pytest.fixture(scope="session")
def nv_char(ctx, domain):
    """Characterised NV-SRAM cell at the reference domain."""
    return ctx.characterization("nv", domain)


@pytest.fixture(scope="session")
def vt_char(ctx, domain):
    """Characterised 6T cell at the reference domain."""
    return ctx.characterization("6t", domain)


@pytest.fixture(scope="session")
def energy_model(ctx, domain):
    """Energy model over the reference domain."""
    return ctx.energy_model(domain)
