"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro table1
    python -m repro fig3 --points 21
    python -m repro fig7a
    python -m repro fig9 --panel b
    python -m repro characterize --kind nv --wordlines 512
    python -m repro bet --n-rw 100 --wordlines 512 [--store-free]
    python -m repro snm [--read] [--wl-underdrive 0.1]
    python -m repro retention
    python -m repro lint examples/decks/*.sp nv 6t [--format sarif]
    python -m repro lint-source src/repro [--format sarif]
    python -m repro equiv run --strict      # solver-equivalence gate
    python -m repro equiv update            # refreeze the golden corpus
    python -m repro diagnose failure.json   # or --demo
    python -m repro chaos --target nv --faults 20 [--json report.json]
    python -m repro chaos --executor --workers 2
    python -m repro chaos --crashpoints     # crash-safety validation
    python -m repro chaos --serve           # serving-layer chaos suite
    python -m repro serve --port 8023
    python -m repro fig7b --workers 4     # rerun resumes from the cache
    python -m repro all                   # prewarms on the usable CPUs

Every subcommand prints the same rows/series the paper reports; see
``benchmarks/`` for the timed versions with archived artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .cells import PowerDomain
from .pg.modes import OperatingConditions
from .pg.sequences import Architecture
from .units import format_eng


def _conditions(args) -> OperatingConditions:
    cond = OperatingConditions()
    overrides = {}
    if getattr(args, "frequency", None):
        overrides["frequency"] = float(args.frequency)
    if getattr(args, "wl_underdrive", None):
        overrides["wl_underdrive"] = float(args.wl_underdrive)
    return cond.with_(**overrides) if overrides else cond


def _domain(args) -> PowerDomain:
    return PowerDomain(
        n_wordlines=getattr(args, "wordlines", 512),
        word_bits=getattr(args, "word_bits", 32),
    )


def _cmd_table1(args) -> int:
    from .experiments import run_table1

    print(run_table1(_conditions(args)).render())
    return 0


def _cmd_fig1(args) -> int:
    from .experiments import ExperimentContext, run_fig1

    ctx = ExperimentContext(cond=_conditions(args))
    print(run_fig1(ctx, _domain(args)).render())
    return 0


def _cmd_fig3(args) -> int:
    from .experiments import run_fig3

    print(run_fig3(_conditions(args), _domain(args),
                   points=args.points).render())
    return 0


def _cmd_fig4(args) -> int:
    from .experiments import run_fig4

    print(run_fig4(_conditions(args), _domain(args)).render())
    return 0


def _cmd_fig5(args) -> int:
    from .experiments import run_fig5

    print(run_fig5(_conditions(args)).render())
    return 0


def _cmd_fig6(args) -> int:
    from .experiments import ExperimentContext, run_fig6

    ctx = ExperimentContext(cond=_conditions(args))
    print(run_fig6(ctx, _domain(args)).render())
    return 0


def _cmd_fig7(args, panel: str) -> int:
    from .experiments import (
        ExperimentContext,
        run_fig7a,
        run_fig7b,
        run_fig7c,
    )

    ctx = ExperimentContext(cond=_conditions(args))
    runner = {"a": run_fig7a, "b": run_fig7b, "c": run_fig7c}[panel]
    if panel == "b":
        print(runner(ctx, workers=args.workers).render())
    else:
        print(runner(ctx, _domain(args), workers=args.workers).render())
    return 0


def _cmd_fig8(args) -> int:
    from .experiments import ExperimentContext, run_fig8

    ctx = ExperimentContext(cond=_conditions(args))
    print(run_fig8(ctx, _domain(args), workers=args.workers).render())
    return 0


def _cmd_fig9(args) -> int:
    from .experiments import ExperimentContext, run_fig9

    ctx = ExperimentContext(cond=_conditions(args))
    print(run_fig9(ctx, panel=args.panel, workers=args.workers).render())
    return 0


def _cmd_characterize(args) -> int:
    from .characterize import characterize_cell

    result = characterize_cell(args.kind, _conditions(args), _domain(args))
    print(result.to_json())
    return 0


def _cmd_bet(args) -> int:
    from .experiments import ExperimentContext
    from .pg.bet import break_even_time

    ctx = ExperimentContext(cond=_conditions(args))
    model = ctx.energy_model(_domain(args))
    arch = Architecture(args.architecture)
    result = break_even_time(model, arch, n_rw=args.n_rw,
                             t_sl=args.t_sl, store_free=args.store_free)
    print(f"architecture:     {arch.value}")
    print(f"n_RW:             {result.n_rw}")
    print(f"store-free:       {args.store_free}")
    print(f"overhead energy:  {format_eng(result.overhead_energy, 'J')}")
    print(f"saving power:     {format_eng(result.saving_power, 'W')}")
    print(f"break-even time:  {format_eng(result.bet, 's')}")
    return 0


def _cmd_snm(args) -> int:
    from .characterize.snm import butterfly_curve

    curve = butterfly_curve(_conditions(args), read_mode=args.read)
    print(f"{curve.mode} SNM: {curve.snm * 1e3:.1f} mV "
          f"(lobes: {curve.lobe_margins[0] * 1e3:.1f} / "
          f"{curve.lobe_margins[1] * 1e3:.1f} mV)")
    return 0


def _cmd_variability(args) -> int:
    from .characterize.variability import (
        read_snm_distribution,
        store_yield_analysis,
    )

    cond = _conditions(args)
    yield_result = store_yield_analysis(cond, _domain(args),
                                        n_samples=args.samples)
    print(f"store-yield Monte Carlo ({args.samples} samples):")
    print(f"  switching yield (I > Ic):   "
          f"{yield_result.switching_yield:.1%}")
    print(f"  full-margin yield (>= "
          f"{yield_result.target_margin:g} x Ic): "
          f"{yield_result.margin_yield:.1%}")
    print(f"  margin p1 / p50:            "
          f"{yield_result.percentile(1):.2f} / "
          f"{yield_result.percentile(50):.2f} x Ic")
    if yield_result.n_failed:
        print(f"  !! {yield_result.n_failed} sample(s) skipped after "
              "recovery-ladder exhaustion (counted as failing)")
    snm = read_snm_distribution(cond, n_samples=args.samples)
    print(f"read-SNM Monte Carlo: mean {snm.mean * 1e3:.0f} mV, "
          f"sigma {snm.std * 1e3:.0f} mV, "
          f"bistable yield {snm.stability_yield:.1%}")
    if snm.n_failed:
        print(f"  !! {snm.n_failed} sample(s) skipped after "
              "recovery-ladder exhaustion (counted as unstable)")
    return 0


def _cmd_ff(args) -> int:
    from .characterize.ff_runner import characterize_nvff
    from .pg.registers import RegisterBankModel

    ff = characterize_nvff(_conditions(args))
    print(ff.to_json())
    bank = RegisterBankModel(ff, num_ffs=args.bits)
    print(f"\n{args.bits}-bit register bank:")
    print(f"  idle power:      {format_eng(bank.idle_power(), 'W')}")
    print(f"  shutdown power:  {format_eng(bank.shutdown_power(), 'W')}")
    print(f"  gating overhead: {format_eng(bank.gating_overhead, 'J')}")
    print(f"  break-even time: "
          f"{format_eng(bank.break_even_time(), 's')}")
    return 0


def _cmd_wer(args) -> int:
    from .devices.mtj import MTJ_TABLE1
    from .units import parse_quantity

    duration = parse_quantity(args.duration)
    ic = MTJ_TABLE1.critical_current
    print(f"store window: {format_eng(duration, 's')}, "
          f"Ic = {format_eng(ic, 'A')}")
    for mult in (1.1, 1.2, 1.5, 2.0, 3.0):
        wer = MTJ_TABLE1.write_error_rate(mult * ic, duration)
        print(f"  I = {mult:.1f} x Ic: WER = {wer:.3g}")
    required = MTJ_TABLE1.required_current_for_wer(duration, args.target)
    print(f"WER <= {args.target:g} needs I >= "
          f"{format_eng(required, 'A')} ({required / ic:.2f} x Ic)")
    return 0


def _default_pool() -> Optional[int]:
    """Workers of ``repro all`` run as the program: the usable CPUs, or
    ``None`` (serial) on one CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return cpus if cpus > 1 else None


def _cmd_all(args) -> int:
    from .experiments import ExperimentContext
    from .experiments.summary import run_summary

    ctx = ExperimentContext(cond=_conditions(args))
    result = run_summary(ctx, include_figures=not args.scorecard_only,
                         workers=args.workers)
    if result.prewarm is not None:
        print(result.prewarm.summary(), file=sys.stderr)
    print(result.render())
    return 0 if result.all_passed else 1


#: Built-in lint targets: aliases for the shipped cell testbenches.
LINT_ALIASES = ("nv", "6t", "nvff", "array")


def _lint_alias_circuit(alias: str):
    """Build the circuit behind a ``repro lint`` cell alias."""
    from .characterize.testbench import build_cell_testbench

    if alias in ("nv", "6t"):
        return build_cell_testbench(alias).circuit
    if alias == "nvff":
        from .characterize.ff_runner import build_ff_testbench

        return build_ff_testbench()[0]
    if alias == "array":
        from .cells.array import build_cell_array

        return build_cell_array(2, 2).circuit
    raise ValueError(f"unknown lint alias: {alias}")


def _lint_config(args):
    """Lint policy: the rules disabled by ``REPRO_LINT_DISABLE`` and by
    every ``--disable`` flag."""
    from .verify import VerifyConfig

    disable = frozenset(
        token.strip() for spec in args.disable
        for token in spec.split(",") if token.strip()
    )
    return VerifyConfig(disable=VerifyConfig.from_env().disable | disable)


def _list_rules() -> int:
    from .verify import REGISTRY

    for rule_ in REGISTRY.rules():
        print(f"{rule_.code}  {rule_.severity.value:7s} "
              f"[{rule_.scope}] {rule_.name}: {rule_.description}")
    return 0


def _finish_lint(args, report) -> int:
    """Print ``report``, return the exit code (``lint`` and
    ``lint-source`` share this tail)."""
    from .verify import render_json, render_sarif, render_text

    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.format]
    print(renderer(report))
    failed = report.has_errors or (args.strict and report.warnings())
    return 1 if failed else 0


def _cmd_lint(args) -> int:
    from .verify import Report, verify_circuit, verify_deck_file

    if args.list_rules:
        return _list_rules()
    if not args.targets:
        print("repro lint: no targets (deck paths or one of "
              + "/".join(LINT_ALIASES) + ")", file=sys.stderr)
        return 2
    config = _lint_config(args)
    report = Report(target=", ".join(args.targets))
    for target in args.targets:
        if target in LINT_ALIASES:
            part = verify_circuit(_lint_alias_circuit(target),
                                  config=config, target=f"cell:{target}")
        else:
            try:
                part = verify_deck_file(target, config=config)
            except OSError as exc:
                print(f"repro lint: cannot read {target!r}: "
                      f"{exc.strerror or exc}", file=sys.stderr)
                return 2
        report.extend(part)
    return _finish_lint(args, report)


def _cmd_lint_source(args) -> int:
    from .verify import default_source_paths, verify_source

    if args.list_rules:
        return _list_rules()
    paths = args.paths or default_source_paths()
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print("repro lint-source: no such path: "
              + ", ".join(repr(p) for p in missing), file=sys.stderr)
        return 2
    report = verify_source(paths, config=_lint_config(args))
    return _finish_lint(args, report)


def _cmd_equiv(args) -> int:
    # Imported lazily: equiv pulls in the characterisation benches.
    from .verify import equiv

    try:
        if args.action == "update":
            written = equiv.update_corpus(args.case or None,
                                          _corpus_dir(args))
            for path in written:
                print(f"wrote {path}")
            return 0
        report = equiv.run_suite(args.case or None, _corpus_dir(args),
                                 checks=not args.no_checks)
    except equiv.EquivError as exc:
        print(f"repro equiv: {exc}", file=sys.stderr)
        return 2
    print(report.render(verbose=args.action == "diff"))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n",
            encoding="utf-8")
        print(f"report written to {args.json}")
    if report.ok:
        return 0
    # Without --strict, harness-level errors (e.g. a corpus entry not
    # yet generated) only warn; measured drift always fails the gate.
    drift = any(r.failures for r in report.cases if r.error is None)
    bad_checks = any(not c.ok for c in report.checks)
    if args.strict or drift or bad_checks:
        return 1
    return 0


def _corpus_dir(args):
    return Path(args.corpus) if args.corpus else None


def _cmd_diagnose(args) -> int:
    from .recovery import load_failure, render_failure

    if args.demo:
        return _diagnose_demo()
    if not args.path:
        print("repro diagnose: need a JSON failure dump (or --demo)",
              file=sys.stderr)
        return 2
    try:
        payload = load_failure(args.path)
    except OSError as exc:
        print(f"repro diagnose: cannot read {args.path!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    print(render_failure(payload))
    return 0


def _diagnose_demo() -> int:
    """Run a deliberately unsolvable deck and show the forensics live."""
    from .analysis import operating_point
    from .analysis.dc import OperatingPointOptions
    from .circuit import Circuit, Resistor, VoltageSource
    from .devices import FinFET, NFET_20NM_HP, PFET_20NM_HP
    from .errors import ConvergenceError
    from .recovery import render_failure
    from .recovery.ladder import RecoveryOptions

    # A latch with a starved Newton budget and every rung disabled: the
    # textbook hopeless solve.
    c = Circuit("diagnose-demo latch")
    c.add(VoltageSource("vdd", "vdd", "0", dc=0.9))
    c.add(Resistor("rload", "vdd", "q", 1e5))
    c.add(FinFET("pu1", "q", "qb", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd1", "q", "qb", "0", NFET_20NM_HP))
    c.add(FinFET("pu2", "qb", "q", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd2", "qb", "q", "0", NFET_20NM_HP))
    opts = OperatingPointOptions(recovery=RecoveryOptions(
        damping_factors=(0.5,), damping_iteration_boost=1, gmin_steps=(),
        pseudo_transient=False, source_ramp=False, source_steps=()))
    opts.newton.max_iterations = 2
    print("demo: solving a cross-coupled latch with a 2-iteration Newton "
          "budget and the ladder mostly disabled...\n")
    try:
        operating_point(c, options=opts)
    except ConvergenceError as err:
        print(render_failure(err))
        return 0
    print("demo unexpectedly converged (solver got too good!)")
    return 1


def _cmd_chaos(args) -> int:
    """``repro chaos``: run one fault-injection suite and audit it."""
    import tempfile

    from .recovery import dump_failure, faults, render_failure

    if args.serve:
        from .serve.chaos import chaos_serve

        report = chaos_serve(
            args.scratch or tempfile.mkdtemp(prefix="repro-serve-chaos-"),
            n_clients=args.clients, seed=args.seed,
            workers=args.workers or 0, progress=print)
    elif args.executor:
        report = faults.chaos_executor(
            args.scratch or tempfile.mkdtemp(prefix="repro-exec-chaos-"),
            n_healthy=args.faults, seed=args.seed, progress=print,
            workers=2 if args.workers is None else args.workers)
    elif args.crashpoints:
        from .verify.crashcheck import run_crashpoints

        report = run_crashpoints(args.scratch)
    elif args.transient:
        report = faults.chaos_store_transient(n_faults=args.faults,
                                              seed=args.seed)
    else:
        report = faults.chaos_operating_points(target=args.target,
                                               n_faults=args.faults,
                                               seed=args.seed)
    print(render_failure(report))
    if args.json:
        dump_failure(report, args.json)
        print(f"\nreport written to {args.json}")
    return 0 if report["ok"] else 1


def _cmd_serve(args) -> int:
    """``repro serve``: run the characterisation HTTP service.

    First SIGTERM/SIGINT starts a graceful drain (``/readyz`` flips,
    in-flight work finishes); a second signal stops immediately.
    """
    import asyncio
    import signal

    from .serve.server import ReproServer, ServeOptions

    options = ServeOptions(
        host=args.host,
        port=args.port,
        extra_routes=tuple(args.extra_routes),
        workers=args.workers,
        max_retries=args.retries,
        cache_dir=None if args.no_cache else (args.cache_dir or "auto"),
        forensics_dir=args.forensics_dir,
        interactive_slots=args.interactive_slots,
        drain_grace=args.drain_grace,
        progress=print,
    )

    async def _serve() -> None:
        server = ReproServer(options)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.begin_drain)
        await server.run()

    asyncio.run(_serve())
    return 0


def _cmd_retention(args) -> int:
    from .characterize.retention import retention_voltage_sweep

    sweep = retention_voltage_sweep(_conditions(args))
    for rail, snm in sweep.rows():
        print(f"  rail {rail:5.3f} V   hold SNM {snm * 1e3:6.1f} mV")
    if sweep.retention_voltage is None:
        print("retention voltage: not reached in the swept range")
    else:
        print(f"retention voltage (DRV): {sweep.retention_voltage:.3f} V")
        print(f"sleep rail headroom:     {sweep.sleep_headroom:.3f} V")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the DATE 2015 NV-SRAM power-gating "
            "comparative study: regenerate tables, figures and "
            "characterisations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, domain=True):
        p.add_argument("--frequency", type=float, default=None,
                       help="read/write frequency in Hz (default Table I)")
        p.add_argument("--wl-underdrive", type=float, default=None,
                       help="word-line underdrive in volts")
        if domain:
            p.add_argument("--wordlines", type=int, default=512,
                           help="domain depth N (default 512)")
            p.add_argument("--word-bits", type=int, default=32,
                           help="word length M in bits (default 32)")

    def campaign_opts(p, default="serial"):
        p.add_argument("--workers", type=int, default=None,
                       help="prewarm characterisations through a "
                            "fault-tolerant parallel campaign with N "
                            f"workers (default: {default}; 0 runs it "
                            "inline)")

    def lint_opts(p):
        p.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text", help="output format (default text)")
        p.add_argument("--disable", action="append", default=[],
                       metavar="RULES",
                       help="comma-separated rule codes/names to skip "
                            "(repeatable)")
        p.add_argument("--strict", action="store_true",
                       help="exit non-zero on warnings too")
        p.add_argument("--list-rules", action="store_true",
                       help="print the rule catalog and exit")

    common(sub.add_parser("table1", help="regenerate Table I"),
           domain=False)
    common(sub.add_parser("fig1", help="conceptual power timelines"))

    p = sub.add_parser("fig3", help="leakage & store-current curves")
    common(p)
    p.add_argument("--points", type=int, default=31)

    common(sub.add_parser("fig4", help="virtual-VDD vs N_FSW"))
    common(sub.add_parser("fig5", help="benchmark sequence timelines"),
           domain=False)
    common(sub.add_parser("fig6", help="power traces & static power"))
    for name, help_ in (("fig7a", "E_cyc vs n_RW (t_SL family)"),
                        ("fig7b", "E_cyc vs n_RW (N family)"),
                        ("fig7c", "E_cyc vs n_RW (t_SD family)"),
                        ("fig8", "E_cyc vs t_SD and BET")):
        p = sub.add_parser(name, help=help_)
        common(p)
        campaign_opts(p)

    p = sub.add_parser("fig9", help="BET vs domain depth")
    common(p, domain=False)
    p.add_argument("--panel", choices=("a", "b"), default="a")
    campaign_opts(p)

    p = sub.add_parser("characterize", help="characterise one cell")
    common(p)
    p.add_argument("--kind", choices=("nv", "6t"), default="nv")

    p = sub.add_parser("bet", help="closed-form break-even time")
    common(p)
    p.add_argument("--architecture", choices=("nvpg", "nof"),
                   default="nvpg")
    p.add_argument("--n-rw", type=int, default=100)
    p.add_argument("--t-sl", type=float, default=100e-9)
    p.add_argument("--store-free", action="store_true")

    p = sub.add_parser("snm", help="static noise margin")
    common(p, domain=False)
    p.add_argument("--read", action="store_true",
                   help="read mode (default: hold)")

    common(sub.add_parser("retention", help="data-retention voltage"),
           domain=False)

    p = sub.add_parser("variability", help="Monte-Carlo yield analysis")
    common(p)
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("ff", help="NV flip-flop characterisation")
    common(p, domain=False)
    p.add_argument("--bits", type=int, default=1024,
                   help="register-bank width (default 1024)")

    p = sub.add_parser("all", help="full reproduction report + scorecard")
    common(p, domain=False)
    p.add_argument("--scorecard-only", action="store_true",
                   help="skip the per-figure bodies")
    campaign_opts(p, default="the usable CPU count when run as "
                             "`python -m repro` or `repro`, serial on one "
                             "CPU or from `repro.cli.main(argv)`")

    p = sub.add_parser("lint", help="static-analyse decks / cell benches")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="SPICE deck path or cell alias "
                        "(nv, 6t, nvff, array)")
    lint_opts(p)

    p = sub.add_parser("lint-source",
                       help="static-analyse the simulator's own "
                            "Python source, module by module (RV4xx)")
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="Python files or directories "
                        "(default: the installed repro package)")
    lint_opts(p)

    p = sub.add_parser("equiv",
                       help="solver-equivalence gate: golden corpus + "
                            "metamorphic invariants")
    p.add_argument("action", choices=("run", "update", "diff"),
                   help="run = compare against the corpus; update = "
                        "refreeze the golden files; diff = run, "
                        "printing every quantity")
    p.add_argument("--case", action="append", default=[], metavar="NAME",
                   help="restrict to one corpus case (repeatable)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="corpus directory (default: the committed "
                        "src/repro/verify/equiv_corpus)")
    p.add_argument("--strict", action="store_true",
                   help="also fail on missing/corrupt corpus entries")
    p.add_argument("--no-checks", action="store_true",
                   help="skip the metamorphic invariant checks")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also dump the machine-readable report")

    p = sub.add_parser("diagnose",
                       help="render a solver-failure JSON dump")
    p.add_argument("path", nargs="?", default=None,
                   help="JSON file written by repro.recovery.dump_failure")
    p.add_argument("--demo", action="store_true",
                   help="run a deliberately failing solve and render "
                        "its forensics live")

    p = sub.add_parser("chaos",
                       help="run one fault-injection suite (default: DC "
                            "solves of faulted cell decks) and audit it")
    p.add_argument("--target", choices=("nv", "6t", "nvff"), default="nv")
    p.add_argument("--faults", type=int, default=20,
                   help="number of faults to inject (default 20)")
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also dump the chaos report as JSON")
    suite = p.add_mutually_exclusive_group()
    suite.add_argument("--transient", action="store_true",
                       help="run shortened store transients instead of "
                            "DC operating points (slower; NV only)")
    suite.add_argument("--executor", action="store_true",
                       help="fault-inject the campaign engine itself "
                            "(worker crash/hang/slow/flaky faults) "
                            "instead of the solver")
    suite.add_argument("--crashpoints", action="store_true",
                       help="kill child writers at each atomic-write "
                            "protocol boundary and assert reader-side "
                            "recovery (torn writes, unsynced renames)")
    suite.add_argument("--serve", action="store_true",
                       help="chaos-test the serving layer: coalescing, "
                            "storm, shedding, breaker and drain phases "
                            "against an in-process server")
    p.add_argument("--clients", type=int, default=24,
                   help="concurrent clients for --serve (default 24)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default 2 for --executor, "
                        "0 = inline for --serve)")
    p.add_argument("--scratch", default=None, metavar="DIR",
                   help="scratch directory for --executor/--serve "
                        "state (default: a fresh temp dir)")

    p = sub.add_parser("serve",
                       help="run the characterisation HTTP service "
                            "(coalescing, backpressure, deadlines, "
                            "graceful drain)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023,
                   help="listen port (0 = ephemeral; default 8023)")
    p.add_argument("--workers", type=int, default=1,
                   help="executor processes per request (0 = inline, "
                        "fast but no crash isolation; default 1)")
    p.add_argument("--retries", type=int, default=1,
                   help="retry budget per request (default 1)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="characterisation disk cache "
                        "(default: the repo cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the disk cache")
    p.add_argument("--forensics-dir", default=None, metavar="DIR",
                   help="dump per-failure forensics JSON here")
    p.add_argument("--interactive-slots", type=int, default=4,
                   help="concurrent executions (default 4)")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="seconds in-flight work gets after SIGTERM "
                        "(default 10)")
    p.add_argument("--extra-routes", nargs="*", default=(),
                   choices=("demo", "chaos"),
                   help="also mount the demo/chaos test routes")

    p = sub.add_parser("wer", help="MTJ write-error-rate model")
    common(p, domain=False)
    p.add_argument("--duration", default="10n",
                   help="store window, SPICE units (default 10n)")
    p.add_argument("--target", type=float, default=1e-6,
                   help="target write error rate (default 1e-6)")
    return parser


_HANDLERS = {
    "table1": _cmd_table1,
    "fig1": _cmd_fig1,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7a": lambda a: _cmd_fig7(a, "a"),
    "fig7b": lambda a: _cmd_fig7(a, "b"),
    "fig7c": lambda a: _cmd_fig7(a, "c"),
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "characterize": _cmd_characterize,
    "bet": _cmd_bet,
    "snm": _cmd_snm,
    "retention": _cmd_retention,
    "variability": _cmd_variability,
    "ff": _cmd_ff,
    "wer": _cmd_wer,
    "all": _cmd_all,
    "lint": _cmd_lint,
    "lint-source": _cmd_lint_source,
    "equiv": _cmd_equiv,
    "diagnose": _cmd_diagnose,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A prewarm drained by SIGINT/SIGTERM prints its campaign summary to
    stderr and exits 130; its finished characterizations are already in
    the cache, so rerunning the command simulates only the rest.

    With ``argv`` omitted, ``main`` parses the process's own command
    line: repro is the program, and the spawn workers of a campaign
    re-import its guarded ``__main__``.  Only then does ``all`` prewarm
    on the usable CPUs by default.  A host program that passes ``argv``
    runs ``all`` serially unless it passes ``--workers N``, because the
    workers would re-import the host's own ``__main__``, which must then
    be guarded as well.
    """
    from .exec import CampaignInterrupted

    args = build_parser().parse_args(argv)
    if argv is None and args.command == "all" and args.workers is None:
        args.workers = _default_pool()
    try:
        return _HANDLERS[args.command](args)
    except CampaignInterrupted as err:
        print(err.result.render(), file=sys.stderr)
        print("rerun the same command to finish from the "
              "characterization cache", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
