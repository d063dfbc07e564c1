"""Child interpreter of the end-to-end benchmark.

``run.py`` never imports ``repro`` itself; every measurement happens in
a fresh interpreter started from this file:

* ``worker.py cell-cold|mc-dc --out F`` runs an in-process workload: one
  untimed warm-up, then repetitions for ``--seconds``, each timed from
  inside (interpreter start and import excluded) and checked against
  ``expected.json``;
* ``worker.py paper --out F`` runs ``python -m repro all`` in-process
  under the tracer (the untraced paper workloads run the CLI itself, not
  this file);
* ``--trace`` follows every repetition with one under
  :class:`tracer.Tracer` and reports the per-layer metrics of those;
* ``worker.py refresh`` recomputes the cell and Monte-Carlo references
  in ``expected.json`` (run it only when a physics change is intended).

The result goes to ``--out`` as JSON, so stdout stays the program's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

#: Monte-Carlo size of ``mc-dc``, per analysis.
MC_SAMPLES = 100
#: Seeds with a stored ``mc-dc`` reference: the default and 0-99, which
#: covers seeded benchmark runs and 7, the seed the Monte-Carlo tests use.
REFERENCE_SEEDS = (2015, *range(100))


def _digest(value: Any) -> str:
    """Content hash of a JSON-able result (floats at full precision)."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: one repetition, its summary, and its check
# ---------------------------------------------------------------------------

def _cell_rep(seed: int) -> Dict[str, Any]:
    from repro.characterize.runner import characterize_cell

    return {kind: dataclasses.asdict(characterize_cell(kind, cache_dir=None))
            for kind in ("nv", "6t")}


def _mc_rep(seed: int) -> Dict[str, Any]:
    import numpy as np
    from repro.characterize.variability import (read_snm_distribution,
                                                store_yield_analysis)

    store = store_yield_analysis(n_samples=MC_SAMPLES, seed=seed)
    snm = read_snm_distribution(n_samples=MC_SAMPLES, seed=seed)
    return {
        "margins": store.margins.tolist(),
        "snm": snm.snm.tolist(),
        "switching_yield": store.switching_yield,
        "margin_yield": store.margin_yield,
        "store_n_failed": store.n_failed,
        "mean_margin": float(np.nanmean(store.margins)),
        "stability_yield": snm.stability_yield,
        "snm_n_failed": snm.n_failed,
        "snm_mean": snm.mean,
    }


def _within(kind: str, got: Any, want: Any) -> bool:
    from repro.verify.equiv import TOLERANCES

    if kind == "exact":
        return got == want
    return TOLERANCES[kind].allows(float(got), float(want))


def _check_fields(got: Dict[str, Any], want: Dict[str, Any],
                  kinds: Dict[str, str], where: str) -> List[str]:
    """Mismatches of ``got`` against ``want``, one line each."""
    problems = []
    for field, kind in kinds.items():
        if kind == "unchecked":
            continue
        if field not in got or not _within(kind, got[field], want[field]):
            problems.append(f"{where}.{field}: got {got.get(field)!r}, "
                            f"want {want[field]!r} ({kind})")
    return problems


def _flat_cell(cell: Dict[str, Any]) -> Dict[str, Any]:
    """A characterization's fields with its ``extras`` merged in."""
    return {**cell, **cell["extras"]}


def _check_cell(result: Dict[str, Any], seed: int,
                expected: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems): one operation per cell."""
    ref = expected["cell-cold"]
    failed, problems = 0, []
    for kind, cell in result.items():
        bad = _check_fields(_flat_cell(cell), ref["cells"][kind],
                            ref["kinds"], kind)
        failed += bool(bad)
        problems += bad
    return len(result), failed, problems


def _check_mc(result: Dict[str, Any], seed: int,
              expected: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems): one operation per Monte-Carlo sample.

    Samples the analysis could not solve are failed operations, and a
    statistic off its reference fails every sample of that analysis.
    Seeds without a stored reference are checked for failed samples only.
    """
    ref = expected["mc-dc"]
    failed = result["store_n_failed"] + result["snm_n_failed"]
    problems = []
    if failed:
        problems.append(f"seed {seed}: {result['store_n_failed']} store and "
                        f"{result['snm_n_failed']} SNM samples failed")
    want = ref["seeds"].get(str(seed))
    for analysis, kinds in ref["kinds"].items():
        bad = [] if want is None else _check_fields(
            result, want, kinds, f"seed {seed} {analysis}")
        failed += MC_SAMPLES if bad else 0
        problems += bad
    return 2 * MC_SAMPLES, failed, problems


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "cell-cold": (_cell_rep, _check_cell),
    "mc-dc": (_mc_rep, _check_mc),
}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_in_process(workload: str, seed: int, seconds: float, trace: bool,
                   trace_file: "Path | None") -> Dict[str, Any]:
    """Warm up, then time repetitions for ``seconds`` (at least one).

    With ``trace`` each repetition is followed by one under the tracer,
    so the tracer's overhead is measured under the same host conditions.
    Every result is checked, and must be bit-identical to the warm-up's.
    """
    rep, check = WORKLOADS[workload]
    expected = json.loads(EXPECTED.read_text())
    out: Dict[str, Any] = {"wall_s": [], "cpu_s": [], "attempted": 0,
                           "failed": 0, "problems": [], "digest": None}

    def timed(run: Callable[[], Any]) -> Tuple[float, float]:
        w0, c0 = time.perf_counter(), time.process_time()
        result = run()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        attempted, failed, problems = check(result, seed, expected)
        digest = _digest(result)
        out["digest"] = out["digest"] or digest
        if digest != out["digest"]:
            failed += 1
            problems.append("a repetition differs from the warm-up result")
        out["attempted"] += attempted
        out["failed"] += failed
        out["problems"] += problems
        return wall, cpu

    once = functools.partial(rep, seed)
    timed(once)                                     # untimed warm-up
    tracer = Tracer() if trace else None
    traced: List[float] = []
    start = time.perf_counter()
    while not out["wall_s"] or time.perf_counter() - start < seconds:
        wall, cpu = timed(once)
        out["wall_s"].append(wall)
        out["cpu_s"].append(cpu)
        if tracer:
            tracer.install()
            try:
                traced.append(timed(functools.partial(
                    tracer.repetition, len(traced) + 1, once))[0])
            finally:
                tracer.uninstall()
    if tracer:
        out["traced_wall_s"] = traced
        out["layers"] = [layer_metrics(tracer.spans_of(k))
                         for k in range(1, len(traced) + 1)]
        if trace_file:
            tracer.write(trace_file)
    return out


def run_paper_traced(trace_file: "Path | None") -> Tuple[int, Dict]:
    """``python -m repro all`` in this interpreter, under the tracer."""
    from repro.cli import main

    tracer = Tracer()
    tracer.install()
    code = tracer.repetition(1, functools.partial(main, ["all"]))
    tracer.uninstall()
    sys.stdout.flush()
    if trace_file:
        tracer.write(trace_file)
    return code, {"layers": [layer_metrics(tracer.spans_of(1))]}


def refresh() -> None:
    """Recompute the cell and Monte-Carlo references in expected.json."""
    expected = json.loads(EXPECTED.read_text())
    cell = expected["cell-cold"]
    cell["cells"] = {
        kind: {k: v for k, v in _flat_cell(got).items() if k in cell["kinds"]}
        for kind, got in _cell_rep(0).items()}
    fields = {f for kinds in expected["mc-dc"]["kinds"].values()
              for f in kinds}
    expected["mc-dc"]["seeds"] = {
        str(seed): {k: v for k, v in _mc_rep(seed).items() if k in fields}
        for seed in REFERENCE_SEEDS}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=(*WORKLOADS, "paper", "refresh"))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "refresh":
        refresh()
        return 0
    if args.out is None:
        parser.error("--out is required")
    if args.mode == "paper":
        code, out = run_paper_traced(args.trace_file)
    else:
        code, out = 0, run_in_process(args.mode, args.seed, args.seconds,
                                      args.trace, args.trace_file)
    args.out.write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
