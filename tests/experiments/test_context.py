"""Tests for the experiment context (memoisation and overrides)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cells import PowerDomain
from repro.devices.mtj import MTJ_FIG9B
from repro.experiments import ExperimentContext, run_fig7a
from repro.pg.modes import OperatingConditions


@pytest.fixture()
def fresh_ctx(tmp_path):
    return ExperimentContext(cache_dir=tmp_path)


class TestMemoisation:
    def test_same_inputs_same_object(self, ctx):
        domain = PowerDomain(64, 32)
        a = ctx.characterization("nv", domain)
        b = ctx.characterization("nv", domain)
        assert a is b

    def test_kind_distinguished(self, ctx):
        domain = PowerDomain(64, 32)
        assert ctx.characterization("nv", domain) is not \
            ctx.characterization("6t", domain)

    def test_domain_distinguished(self, ctx):
        a = ctx.characterization("nv", PowerDomain(64, 32))
        b = ctx.characterization("nv", PowerDomain(128, 32))
        assert a is not b
        assert a.n_wordlines != b.n_wordlines

    def test_cond_override_distinguished(self, ctx):
        domain = PowerDomain(64, 32)
        base = ctx.characterization("nv", domain)
        fast = ctx.characterization("nv", domain,
                                    cond=ctx.cond.fast_variant())
        assert fast is not base
        assert fast.frequency == 1e9

    def test_mtj_override_distinguished(self, ctx):
        domain = PowerDomain(64, 32)
        base = ctx.characterization("nv", domain)
        relaxed = ctx.characterization("nv", domain,
                                       mtj_params=MTJ_FIG9B)
        assert relaxed is not base


class TestEnergyModelFactory:
    def test_model_uses_matching_domain(self, ctx):
        domain = PowerDomain(64, 32)
        model = ctx.energy_model(domain)
        assert model.domain is domain
        assert model.nv.n_wordlines == 64
        assert model.volatile.kind == "6t"

    def test_model_cond_override(self, ctx):
        domain = PowerDomain(64, 32)
        fast = ctx.energy_model(domain, cond=ctx.cond.fast_variant())
        assert fast.cond.frequency == 1e9


class TestDefaults:
    def test_default_conditions_are_table1(self):
        ctx = ExperimentContext()
        assert ctx.cond == OperatingConditions()

    def test_disk_cache_round_trip(self, fresh_ctx, tmp_path):
        domain = PowerDomain(32, 32)
        first = fresh_ctx.characterization("6t", domain)
        # A new context with the same cache dir loads from disk.
        clone = ExperimentContext(cache_dir=tmp_path)
        second = clone.characterization("6t", domain)
        assert second == first
        assert any(tmp_path.iterdir())


def test_prewarm_matches_serial(tmp_path, small_domain):
    """``--workers`` prewarms the cells through a campaign; the figure
    must not depend on it."""
    warm = ExperimentContext(cache_dir=tmp_path / "warm")
    result = warm.prewarm([(small_domain, None, None)], workers=0)
    assert {o.label for o in result.completed} == {"nv N=32x32",
                                                  "6t N=32x32"}
    serial = ExperimentContext(cache_dir=tmp_path / "serial")
    assert run_fig7a(warm, small_domain).render() == \
        run_fig7a(serial, small_domain).render()


def test_prewarm_sends_only_misses_to_workers(tmp_path, ctx, small_domain,
                                              monkeypatch):
    """Cells already in the memo or the disk cache are folded in the
    calling process: a prewarm over a full cache spawns no worker."""
    from repro.exec import executor

    points = [(small_domain, None, None)]
    cold = ExperimentContext(cache_dir=tmp_path / "cache")
    assert len(cold.prewarm(points, workers=0).completed) == 2

    def no_spawn(*args, **kwargs):
        raise AssertionError("a prewarm with no misses spawned a worker")

    monkeypatch.setattr(executor, "_spawn_worker", no_spawn)
    warm = ExperimentContext(cache_dir=tmp_path / "cache")
    for again in (warm, cold):        # disk-cache hits, then memo hits
        result = again.prewarm(points, workers=2)
        assert result.order == [] and result.outcomes == {}
    assert set(warm._memo) == set(cold._memo) == {
        warm.point(kind, small_domain) for kind in ("nv", "6t")}
    assert run_fig7a(warm, small_domain).render() == \
        run_fig7a(ctx, small_domain).render()


#: A warm Fig. 7(a) at N = 32 through the CLI, prewarming on two
#: workers; prints whether the campaign executor was imported.
WARM_CLI_PREWARM = """
import sys
from repro.cli import main
main(["fig7a", "--wordlines", "32", "--workers", "2"])
print("repro.exec.executor" in sys.modules)
"""


def test_prewarm_with_no_misses_imports_no_executor(ctx, small_domain):
    """A warm ``repro all`` prewarms every point from the cache: neither
    the CLI nor the prewarm may pay for importing the campaign
    executor then."""
    for kind in ("nv", "6t"):
        ctx.characterization(kind, small_domain)
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src),
           "REPRO_CACHE_DIR": str(ctx.cache_dir)}
    proc = subprocess.run([sys.executable, "-c", WARM_CLI_PREWARM],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
