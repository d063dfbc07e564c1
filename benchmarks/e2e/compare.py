"""Compare two result files of ``run.py --json``.

Usage::

    python benchmarks/e2e/compare.py A.json B.json

``A`` is the reference (the parent commit, or the first baseline set)
and ``B`` the candidate.  For every workload and end-to-end metric it
prints both reported values with their quartiles and median, and a
verdict, with the bounds of ``BENCHMARK.json``:

* ``within bound``: B's value is no worse than A's by more than the bound;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: either side's spread (q3 - q1 over the median) is wider
  than the bound, unless every sample of B beats every sample of A.

Per-layer metrics counted in ``count`` must be identical; any difference
is a failure.  The exit code is 1 when anything regressed, was
unresolved or counted differently, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: Dict, b: Dict, bound: float, better: str) -> str:
    """Verdict on one end-to-end metric, from the two summaries."""
    sign = 1.0 if better == "lower" else -1.0
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"]
                 else 0.0 for s in (a, b))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]):
            return "within bound"
        return "unresolved"
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    return "regressed" if change > bound else "within bound"


def compare(a: Dict, b: Dict, spec: Dict) -> List[str]:
    """Print the comparison; return the failures."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    failures = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            failures.append(f"{workload}: missing from B")
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for name, sa in wa["metrics"].items():
            sb = wb["metrics"].get(name)
            if sb is None or name not in bounds:
                failures.append(f"{workload} {name}: missing")
                continue
            v = verdict(sa, sb, bounds[name]["bound"], bounds[name]["better"])
            print(f"{workload:<11} {name:<12} A {sa['value']:<10.5g} "
                  f"[{sa['q1']:.5g}, {sa['median']:.5g}, {sa['q3']:.5g}]  "
                  f"B {sb['value']:<10.5g} [{sb['q1']:.5g}, "
                  f"{sb['median']:.5g}, {sb['q3']:.5g}]  "
                  f"{(sb['value'] / sa['value'] - 1) * 100:+6.1f}%  {v}")
            if v != "within bound":
                failures.append(f"{workload} {name}: {v}")
        for name, la in wa["layers"].items():
            lb = wb["layers"].get(name)
            if la["unit"] != "count":
                continue
            same = lb is not None and lb["value"] == la["value"]
            if not same:
                print(f"{workload:<11} {name:<44} A {la['value']:g}  "
                      f"B {lb and lb['value']}  count differs")
                failures.append(f"{workload} {name}: count differs")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = compare(json.loads(args.a.read_text()),
                       json.loads(args.b.read_text()), spec)
    print(f"{len(failures)} failure(s)" if failures else
          "every end-to-end median within its bound; every count identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
