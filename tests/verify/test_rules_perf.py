"""RV7xx hot-path perf inventory: per-pattern fixtures, the
interprocedural loop-called allocation check, and the acceptance
cross-check of the shipped RV701 inventory against a hand audit."""

import textwrap
from pathlib import Path

import pytest

from repro.verify import REGISTRY, default_source_paths, verify_source, \
    verify_source_file

FIXTURES = Path(__file__).parent / "fixtures"

#: Every per-element stamping loop shipped in analysis/ and devices/,
#: audited by hand (see ROADMAP item 2).  The RV701 band must report
#: exactly these — a new stamping loop extends this list consciously,
#: a vectorized one strikes it.
HAND_AUDITED_STAMP_LOOPS = {
    ("analysis/ac.py", 118),       # element.stamp() over the netlist
    ("analysis/ac.py", 132),       # per-capacitor conductance stamps
    ("analysis/dc.py", 125),       # clamp stamper in _make_clamp_stamper
    ("analysis/mna.py", 102),      # vccs quad fill
    # _stamp_each: each element's own scalar stamp(), once per solve for
    # the linear elements and once per Newton iteration for the others.
    # Kept by measurement: at 7-9 FinFETs per testbench the scalar
    # kernels beat numpy-array evaluation (20 vs 41 us for the nv
    # testbench's 9 FinFETs; see the analysis/mna.py docstring).
    ("analysis/mna.py", 128),
}


def codes(report):
    return [d.code for d in report]


def test_project_band_registered():
    project_rules = REGISTRY.rules("project")
    assert [r.code for r in project_rules] == [
        "RV600", "RV601", "RV602", "RV603", "RV604",
        "RV701", "RV702", "RV703",
        "RV900", "RV901", "RV902", "RV903", "RV904", "RV905"]
    for rule_ in project_rules:
        assert rule_.description
        assert rule_.rationale


def test_rv7xx_fixture_findings():
    report = verify_source_file(FIXTURES / "viol_rv70x.py")
    assert sorted(codes(report)) == ["RV701", "RV701", "RV702", "RV703"]
    by_subject = {}
    for d in report:
        by_subject.setdefault(d.subject.split(":")[1], d)
    assert ".stamp() per element" in by_subject["stamp_all"].message
    assert "entry-by-entry" in by_subject["fill_entries"].message
    assert "zeros() inside a loop" in by_subject["alloc_per_step"].message
    assert ".compile() inside a loop" in \
        by_subject["reassemble_per_point"].message
    # hoisted_is_fine allocates and compiles outside the loop: quiet.
    assert "hoisted_is_fine" not in by_subject
    assert all(d.severity.value == "info" for d in report)


def test_rv702_flags_loop_called_function(tmp_path):
    """The allocation sits in a helper; the loop is in another module."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "alloc.py").write_text(textwrap.dedent('''\
        import numpy as np


        def fresh_state(n):
            return np.zeros(n)
        '''))
    (pkg / "sweep.py").write_text(textwrap.dedent('''\
        from pkg.alloc import fresh_state


        def run(points, n):
            out = []
            for _ in range(points):
                out.append(fresh_state(n))
            return out
        '''))
    report = verify_source([str(pkg)])
    hits = [d for d in report if d.code == "RV702"]
    assert len(hits) == 1
    # Attributed to the *calling loop* (like RV701), naming the callee:
    # that is where the per-iteration cost is paid and where the fix
    # (hoist or thread a buffer) lands.
    assert hits[0].target.endswith("sweep.py")
    assert hits[0].subject == "pkg.sweep:run"
    assert "loop calls pkg.alloc:fresh_state per iteration" \
        in hits[0].message
    assert "zeros() at line 5" in hits[0].message


def test_rv702_follows_package_reexport(tmp_path):
    """A loop calling a helper through its package ``__init__``.

    In ``pkg/__init__.py``, ``from .helper import scratch`` is relative
    to ``pkg`` itself, so the call resolves to ``pkg.helper:scratch``.
    """
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .helper import scratch\n")
    (pkg / "helper.py").write_text(textwrap.dedent('''\
        import numpy as np


        def scratch(n):
            return np.zeros(n)
        '''))
    (pkg / "caller.py").write_text(textwrap.dedent('''\
        from pkg import scratch


        def run(points, n):
            out = []
            for _ in range(points):
                out.append(scratch(n))
            return out
        '''))
    report = verify_source([str(pkg)])
    hits = [d for d in report if d.code == "RV702"]
    assert len(hits) == 1
    assert hits[0].subject == "pkg.caller:run"
    assert "loop calls pkg.helper:scratch per iteration" in hits[0].message


def test_rv702_stays_quiet_without_looping_caller(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "alloc.py").write_text(textwrap.dedent('''\
        import numpy as np


        def fresh_state(n):
            return np.zeros(n)
        '''))
    (pkg / "once.py").write_text(textwrap.dedent('''\
        from pkg.alloc import fresh_state


        def run(n):
            return fresh_state(n)
        '''))
    report = verify_source([str(pkg)])
    assert [d for d in report if d.code == "RV702"] == []


def test_rv701_inventory_matches_hand_audit():
    """Acceptance: the shipped RV701 inventory is exactly the audited
    stamping-loop list for analysis/ and devices/."""
    report = verify_source(default_source_paths())
    found = set()
    for d in report:
        if d.code != "RV701":
            continue
        target = d.target.replace("\\", "/")
        if "/analysis/" in target or "/devices/" in target:
            rel = target.split("/repro/", 1)[1]
            found.add((rel, d.location.line))
    assert found == HAND_AUDITED_STAMP_LOOPS, (
        "RV701 inventory drifted from the hand audit.\n"
        f"  unexpected: {sorted(found - HAND_AUDITED_STAMP_LOOPS)}\n"
        f"  missing:    {sorted(HAND_AUDITED_STAMP_LOOPS - found)}\n"
        "A new stamping loop must be added to the audit list above; a "
        "vectorized one must be struck from it.")
