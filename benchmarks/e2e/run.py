"""End-to-end benchmark of the reproduction, with a per-layer trace.

Usage::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--json OUT] [--trace-dir DIR]

Workloads (each a closed loop with one client and no parallel work):

``paper-cold``  ``python -m repro all`` in a subprocess, empty cache;
``paper-warm``  the same command against a pre-filled cache;
``cell-cold``   ``characterize_cell("nv")`` and ``("6t")``, in-process,
                no cache;
``mc-dc``       store-yield and read-SNM Monte-Carlo, 100 samples each,
                in-process; the only workload ``--seed`` changes.

Each workload repeats for ``--seconds`` (at least once; default
``run_seconds`` of ``BENCHMARK.json``) and checks every output against
``expected.json``.  Without ``--trace`` the end-to-end metrics are
measured first and a separate traced run then gives the per-layer
metrics; ``--trace 0`` or ``--trace 1`` runs only one of the two.  The
traced run is a fresh interpreter (``worker.py``) with the wrappers of
``tracer.py`` installed; ``repro`` itself is never edited.  Its
repetitions alternate untraced and traced, so the tracer's overhead is
measured under the same host conditions.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (see :data:`E2E` for the
statistic each end-to-end metric reports).
``--json`` writes every sample, the quartiles and the environment.
``run.py`` never imports ``repro``; it only starts children, in which
every repetition gets its own ``REPRO_CACHE_DIR`` under ``.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from tracer import CATALOGUE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
PYTHON = sys.executable

WORKLOADS = ("paper-cold", "paper-warm", "cell-cold", "mc-dc")
REPRO_ALL = [PYTHON, "-m", "repro", "all"]

#: What a fresh interpreter imports before each workload can start.
SETUP_IMPORTS = {
    "paper-cold": "import repro.cli, repro.experiments.summary",
    "paper-warm": "import repro.cli, repro.experiments.summary",
    "cell-cold": "import repro.characterize.runner",
    "mc-dc": "import repro.characterize.variability",
}
SETUP_SAMPLES = 5

#: End-to-end metrics: unit, and the statistic of the samples reported.
#: A repetition does fixed, deterministic work, so noise from the host
#: only ever adds time; repetition times report their minimum.  (On the
#: 2-vCPU VM the baseline comes from, CPU speed switches between a fast
#: and a ~1.5x slower state for seconds at a time, and the median of a
#: run lands on either state; see README.md.)
E2E = {"wall_s": ("s", "min"), "cpu_s": ("s", "min"),
       "setup_s": ("s", "median"), "peak_rss_mb": ("MB", "median")}

#: A child still running after this long is killed (and counted failed).
CHILD_TIMEOUT_S = 170.0


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

@dataclass
class Child:
    """A finished child: exit code, wall time, and its own rusage."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes


def spawn(argv: List[str], cache_dir: Path) -> Child:
    """Run ``argv`` to completion; CPU and peak RSS from ``os.wait4``.

    ``RUSAGE_CHILDREN`` would keep one high-water mark across all
    children, so each child is reaped by pid and measured on its own.
    """
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with tempfile.TemporaryFile(dir=WORK) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (Ctrl-C, or SIGTERM via main): take the child down.
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stdout)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Samples, per-layer metrics and failure count of one workload."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, problems: List[str]) -> None:
        """Count one operation, failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


def cache_entries(cache_dir: Path) -> int:
    return sum(1 for _ in cache_dir.glob("*.json"))


def paper_problems(child: Child, cache_dir: Path, reference: Optional[bytes],
                   expected: Dict[str, int]) -> List[str]:
    """Exit 0, the full scorecard, the full cache, the reference stdout."""
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    lines = child.stdout.decode(errors="replace").splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = sum(line.startswith("FAIL ") for line in lines)
    claims = expected["claims"]
    if (passed, failed) != (claims, 0):
        problems.append(f"scorecard {passed}/{claims} PASS, {failed} FAIL")
    entries, want = cache_entries(cache_dir), expected["cache_entries"]
    if entries != want:
        problems.append(f"cache holds {entries} entries, expected {want}")
    if reference is not None and child.stdout != reference:
        problems.append("stdout differs from the first run's")
    return problems


class Bench:
    """Runs workloads; every child and cache lives under one temp dir."""

    def __init__(self, seed: int, seconds: float,
                 trace_dir: Optional[Path]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace_dir = trace_dir
        self.expected = json.loads(
            (HERE / "expected.json").read_text())["paper"]
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=WORK))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass    # another run is still using it

    def fresh_dir(self, copy_of: Optional[Path] = None) -> Path:
        path = Path(tempfile.mkdtemp(dir=self.tmp))
        if copy_of is not None:
            shutil.copytree(copy_of, path, dirs_exist_ok=True)
        return path

    def repeat(self, body: Callable[[int], None]) -> None:
        """Call ``body(1)``, ``body(2)``, ... until ``seconds`` have passed."""
        start, k = time.perf_counter(), 0
        while k == 0 or time.perf_counter() - start < self.seconds:
            k += 1
            body(k)

    def run(self, workload: str, e2e: bool, traced: bool) -> Outcome:
        out = Outcome()
        if e2e:
            for _ in range(SETUP_SAMPLES):
                child = spawn([PYTHON, "-c", SETUP_IMPORTS[workload]],
                              self.fresh_dir())
                out.check([] if child.code == 0 else
                          [f"setup import exited with {child.code}"])
                out.add("setup_s", child.wall_s)
        if workload.startswith("paper-"):
            self._paper(workload, out, e2e, traced)
        else:
            self._in_process(workload, out, e2e, traced)
        return out

    # -- paper-cold / paper-warm ----------------------------------------
    def _paper(self, workload: str, out: Outcome, e2e: bool,
               traced: bool) -> None:
        filled, reference = None, None
        if workload == "paper-warm":
            filled = self.fresh_dir()
            child = spawn(REPRO_ALL, filled)
            out.check(paper_problems(child, filled, None, self.expected))
            reference = child.stdout

        def plain() -> Child:
            nonlocal reference
            cache = self.fresh_dir(filled)
            child = spawn(REPRO_ALL, cache)
            out.check(paper_problems(child, cache, reference, self.expected))
            reference = reference or child.stdout
            return child

        def untraced(k: int) -> None:
            child = plain()
            out.add("wall_s", child.wall_s)
            out.add("cpu_s", child.cpu_s)
            out.add("peak_rss_mb", child.rss_mb)

        pairs, layers = [], []

        def pair(k: int) -> None:
            base = plain()
            cache = self.fresh_dir(filled)
            result = self.tmp / f"{workload}-traced-{k}.json"
            argv = [PYTHON, str(HERE / "worker.py"), "paper",
                    "--out", str(result)]
            argv += self._trace_file(f"{workload}-rep{k}")
            child = spawn(argv, cache)
            out.check(paper_problems(child, cache, reference, self.expected))
            pairs.append((base.wall_s, child.wall_s))
            if result.exists():
                layers.extend(json.loads(result.read_text())["layers"])

        if e2e:
            self.repeat(untraced)
        if traced:
            self.repeat(pair)
            self._layers(out, layers, pairs)

    # -- cell-cold / mc-dc ----------------------------------------------
    def _in_process(self, workload: str, out: Outcome, e2e: bool,
                    traced: bool) -> None:
        if e2e:
            child, data = self._worker(workload, out, traced=False)
            if data is not None:
                out.samples["wall_s"] = data["wall_s"]
                out.samples["cpu_s"] = data["cpu_s"]
                out.add("peak_rss_mb", child.rss_mb)
        if traced:
            _, data = self._worker(workload, out, traced=True)
            if data is not None:
                self._layers(out, data["layers"],
                             list(zip(data["wall_s"], data["traced_wall_s"])))

    def _worker(self, workload: str, out: Outcome, traced: bool):
        result = self.tmp / f"{workload}-{'traced' if traced else 'plain'}.json"
        argv = [PYTHON, str(HERE / "worker.py"), workload,
                "--seed", str(self.seed), "--seconds", str(self.seconds),
                "--out", str(result)]
        if traced:
            argv += ["--trace", *self._trace_file(workload)]
        child = spawn(argv, self.fresh_dir())
        if child.code != 0 or not result.exists():
            out.check([f"worker exited with {child.code}"])
            return child, None
        data = json.loads(result.read_text())
        out.attempted += data["attempted"]
        out.failed += data["failed"]
        out.problems += data["problems"]
        return child, data

    def _trace_file(self, stem: str) -> List[str]:
        if self.trace_dir is None:
            return []
        return ["--trace-file", str(self.trace_dir / f"{stem}.jsonl")]

    @staticmethod
    def _layers(out: Outcome, layers: List[Dict[str, float]],
                pairs: List[Tuple[float, float]]) -> None:
        """Median per-layer metrics, plus the tracer's overhead: the
        ``wall_s`` statistic of the traced repetitions over that of the
        untraced ones they alternate with."""
        if not layers:
            return
        out.layers = {name: statistics.median(rep[name] for rep in layers)
                      for name in layers[0]}
        plain, traced = zip(*pairs)
        out.layers["trace.overhead_frac"] = (
            summary("wall_s", list(traced))["value"]
            / summary("wall_s", list(plain))["value"] - 1.0)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def summary(name: str, values: List[float]) -> Dict[str, object]:
    """Reported value, median, quartiles and samples of one metric.

    Quartiles are inclusive, so they never leave the measured range.
    """
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    unit, statistic = E2E[name]
    stats = {"min": min(values), "q1": q1, "median": median, "q3": q3}
    return {"value": stats[statistic], "statistic": statistic, "unit": unit,
            **stats, "n": len(values), "samples": values}


def environment() -> Dict[str, object]:
    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_sha": sha, "date": time.strftime("%Y-%m-%d")}


def report(outcomes: Dict[str, Outcome]) -> Dict[str, object]:
    """Print the metric table; return the per-workload JSON record."""
    record = {}
    for workload, out in outcomes.items():
        metrics = {name: summary(name, values)
                   for name, values in out.samples.items()}
        for name, m in metrics.items():
            print(f"{workload:<11} {name:<12} {m['value']:>12.6g} "
                  f"{m['unit']:<3} ({m['statistic']}; min {m['min']:.6g}  "
                  f"q1 {m['q1']:.6g}  median {m['median']:.6g}  "
                  f"q3 {m['q3']:.6g}  n={m['n']})")
        frac = out.failed / out.attempted if out.attempted else 1.0
        print(f"{workload:<11} {'fail_frac':<12} {frac:>12.6g} "
              f"    ({out.failed} of {out.attempted} operations)")
        for name, value in out.layers.items():
            print(f"{workload:<11} {name:<44} {value:>14.6g} "
                  f"{CATALOGUE[name][0]}")
        for problem in out.problems:
            print(f"{workload:<11} PROBLEM {problem}")
        record[workload] = {
            "metrics": metrics,
            "layers": {name: {"value": value, "unit": CATALOGUE[name][0]}
                       for name, value in out.layers.items()},
            "attempted": out.attempted, "failed": out.failed,
            "fail_frac": frac, "problems": out.problems,
        }
    return record


def result_line(record: Dict[str, Dict]) -> Dict[str, object]:
    """The result line (last line of stdout); names get a workload prefix
    when there are several workloads."""
    metrics = {}
    for workload, rec in record.items():
        prefix = f"{workload}." if len(record) > 1 else ""
        for name, m in rec["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
        for name, m in rec["layers"].items():
            metrics[prefix + name] = dict(m)
    attempted = sum(rec["attempted"] for rec in record.values())
    failed = sum(rec["failed"] for rec in record.values())
    correct = failed == 0 and not any(rec["problems"]
                                      for rec in record.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the reproduction.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2015,
                        help="Monte-Carlo seed of mc-dc (default 2015)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write all samples and the environment here")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="write the spans of every traced run here")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        args.trace_dir = args.trace_dir.resolve()

    bench = Bench(args.seed, seconds, args.trace_dir)
    try:
        outcomes = {w: bench.run(w, e2e=args.trace != 1,
                                 traced=args.trace != 0)
                    for w in args.workload or WORKLOADS}
    finally:
        bench.close()
    record = report(outcomes)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"environment": environment(),
             "settings": {"seed": args.seed, "seconds": seconds,
                          "trace": args.trace},
             "workloads": record}, indent=1) + "\n")
    line = result_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
