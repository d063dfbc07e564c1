"""Tests for the RV0xx hygiene rules, including the multigraph fix."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Capacitor, Circuit, Resistor, VoltageSource
from repro.verify import verify_circuit


def codes(report):
    return {d.code for d in report}


def by_code(report, code):
    return [d for d in report if d.code == code]


class TestCompileGate:
    def test_uncompilable_circuit_yields_rv006_only(self):
        c = Circuit("no ground")
        c.add(Resistor("r1", "a", "b", 1e3))
        report = verify_circuit(c)
        assert codes(report) == {"RV006"}
        assert report.has_errors


class TestVoltageLoops:
    def test_self_loop_source_flagged(self):
        # The seed linter's collapsed graph dropped this entirely.
        c = Circuit()
        c.add(VoltageSource("vshort", "a", "a", dc=0.0))
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        loops = by_code(verify_circuit(c), "RV004")
        assert [d.subject for d in loops] == ["vshort"]

    def test_three_node_loop_flagged(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "b", "a", dc=0.5))
        c.add(VoltageSource("v3", "b", "0", dc=1.5))
        c.add(Resistor("r", "b", "0", 1e3))
        assert len(by_code(verify_circuit(c), "RV004")) == 1

    def test_parallel_pair_reported_once_by_rv005(self):
        # Two sources on one node pair is one RV005 finding, not an
        # additional RV004 loop: the rules partition the cycle space.
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        report = verify_circuit(c)
        assert len(by_code(report, "RV005")) == 1
        assert not by_code(report, "RV004")

    def test_parallel_pair_plus_third_path_both_reported(self):
        # The seed bug: v1 || v2 between (a, 0) collapsed to one edge,
        # so the a-b-0 loop through v3/v4 went unreported.
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "a", "0", dc=1.0))
        c.add(VoltageSource("v3", "b", "a", dc=0.5))
        c.add(VoltageSource("v4", "b", "0", dc=1.5))
        c.add(Resistor("r", "b", "0", 1e3))
        report = verify_circuit(c)
        assert len(by_code(report, "RV005")) == 1
        assert len(by_code(report, "RV004")) == 1

    def test_ground_aliases_merged(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "a", "gnd", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        assert len(by_code(verify_circuit(c), "RV005")) == 1

    def test_series_sources_clean(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "b", "a", dc=0.5))
        c.add(Resistor("r", "b", "0", 1e3))
        report = verify_circuit(c)
        assert not by_code(report, "RV004")
        assert not by_code(report, "RV005")


class TestHygiene:
    def test_floating_node_warning(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r1", "in", "typo", 1e3))
        diag = by_code(verify_circuit(c), "RV001")[0]
        assert diag.subject == "typo"
        assert diag.severity.value == "warning"

    def test_cap_only_node_warning(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r", "in", "0", 1e3))
        c.add(Capacitor("c1", "in", "dyn", 1e-15))
        c.add(Capacitor("c2", "dyn", "0", 1e-15))
        assert by_code(verify_circuit(c), "RV002")

    def test_shorted_element_warning(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("rshort", "a", "a", 1e3))
        c.add(Resistor("rload", "a", "0", 1e3))
        assert by_code(verify_circuit(c), "RV003")


#: Node names of the random graphs: ground under two spellings plus
#: five others, so at most six distinct nodes once ground is merged.
NODES = ["0", "gnd", "a", "b", "c", "d", "e"]


def canon(node):
    return "0" if node == "gnd" else node


def cycle_rank(pairs):
    """E - V + C of the simple graph on ``pairs``, by union-find."""
    root = {}

    def find(x):
        while root.setdefault(x, x) != x:
            x = root[x]
        return x

    rank = 0
    for p, n in pairs:
        rp, rn = find(p), find(n)
        if rp == rn:
            rank += 1
        else:
            root[rp] = rn
    return rank


class TestVoltageLoopProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(NODES),
                              st.sampled_from(NODES)),
                    min_size=1, max_size=12))
    def test_rv004_counts_every_independent_loop(self, ends):
        c = Circuit()
        for i, (p, n) in enumerate(ends):
            c.add(VoltageSource(f"v{i}", p, n, dc=0.1 * i))
        for node in {canon(x) for pair in ends for x in pair} - {"0"}:
            c.add(Resistor(f"r{node}", node, "0", 1e3))
        c.add(Resistor("rg", "0", "a", 1e3))   # ground always present
        report = verify_circuit(c)
        assert "RV006" not in codes(report)

        edges = [(canon(p), canon(n)) for p, n in ends]
        self_loops = sum(p == n for p, n in edges)
        multiplicity = {}
        for p, n in edges:
            if p != n:
                key = frozenset((p, n))
                multiplicity[key] = multiplicity.get(key, 0) + 1
        collapsed = [tuple(pair) for pair in multiplicity]

        loops = by_code(report, "RV004")
        assert len(loops) == self_loops + cycle_rank(collapsed)
        for diag in loops:
            if diag.message.startswith("voltage source "):
                continue   # a self-loop source
            ring = re.findall(r"'([^']*)'", diag.message)
            assert len(set(ring)) == len(ring) >= 3
            for p, n in zip(ring, ring[1:] + ring[:1]):
                assert frozenset((p, n)) in multiplicity
        assert len(by_code(report, "RV005")) == sum(
            count >= 2 for count in multiplicity.values())
