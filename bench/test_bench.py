"""Tests for the benchmark's own parts: checker, generators, percentiles,
host-speed scaling and the staged rebuild.  Run with `python3 -m pytest bench`."""
import random
import sys
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checker import CheckError, check, parse  # noqa: E402
from hostspeed import REF_NOMINAL_S, REF_WINDOW_S, HostSpeed  # noqa: E402
from stats import min_samples, percentile  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    has_feasible_order,
    make_batch,
    order_is_feasible,
    order_rank,
    random_feasible,
    relabelled_feasible,
    render,
    top_two_swap,
)

# gray-to-binary on 4 bits: output bit i is the XOR of input bits j >= i
GRAY4 = tuple(g ^ (g >> 1) ^ (g >> 2) ^ (g >> 3) for g in range(16))
GRAY4_ESOP = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
cx q[1],q[0];
cx q[2],q[0];
cx q[3],q[0];
cx q[2],q[1];
cx q[3],q[1];
cx q[3],q[2];
"""


class TestChecker:
    def test_accepts_gray4_esop(self):
        assert check(GRAY4_ESOP, GRAY4, 4) == {
            "x": 0, "cx": 6, "ccx": 0, "ancillas": 0}

    @pytest.mark.parametrize("line", range(3, 9))
    def test_rejects_dropped_gate(self, line):
        lines = GRAY4_ESOP.splitlines()
        del lines[line]
        with pytest.raises(CheckError):
            check("\n".join(lines) + "\n", GRAY4, 4)

    @pytest.mark.parametrize("old,new", [
        ("cx q[3],q[2];", "cx q[3],q[1];"),
        ("cx q[1],q[0];", "ccx q[1],q[2],q[0];"),
        ("cx q[2],q[1];", "x q[1];"),
    ])
    def test_rejects_changed_gate(self, old, new):
        with pytest.raises(CheckError):
            check(GRAY4_ESOP.replace(old, new), GRAY4, 4)

    def test_rejects_dirty_ancilla(self):
        text = GRAY4_ESOP.replace("q[4]", "q[5]") + "cx q[0],q[4];\n"
        with pytest.raises(CheckError, match="ancilla"):
            check(text, GRAY4, 4)

    @pytest.mark.parametrize("bad", [
        "cx q[1],q[1];", "ccx q[1],q[2];", "cx q[1],q[9];", "swap q[1],q[2];",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(CheckError):
            parse(GRAY4_ESOP + bad + "\n")

    @pytest.mark.parametrize("mode", ["esop", "disjoint"])
    def test_accepts_library_output_with_ancillas(self, mode):
        from qmap_synth import export_qasm, synthesize
        from qmap_synth.boolfn import ReversibleFunction
        table = random_feasible(6, random.Random(3))
        qasm = export_qasm(synthesize(ReversibleFunction(6, table), mode=mode))
        assert check(qasm, table, 6)["ancillas"] > 0


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_batches_are_deterministic_per_seed(self, name):
        w = WORKLOADS[name]
        assert make_batch(w, 11) == make_batch(w, 11)
        assert make_batch(w, 11) != make_batch(w, 12)

    def test_rand_workloads_share_their_functions(self):
        assert (make_batch(WORKLOADS["rand-esop"], 5)
                == make_batch(WORKLOADS["rand-disjoint"], 5))

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_swaps_are_infeasible(self, n):
        table = top_two_swap(n)
        assert not has_feasible_order(table, n)
        if n <= 6:
            assert not any(order_is_feasible(table, o)
                           for o in permutations(range(n)))
            from qmap_synth import find_feasible_order
            from qmap_synth.boolfn import ReversibleFunction
            from qmap_synth.errors import NoFeasibleOrder
            with pytest.raises(NoFeasibleOrder):
                find_feasible_order(ReversibleFunction(n, table))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_relabelled_functions_need_search(self, n):
        rng = random.Random(n)
        for _ in range(5):
            table = relabelled_feasible(n, rng)
            assert sorted(table) == list(range(1 << n))
            assert not order_is_feasible(table, tuple(range(n)))
            assert has_feasible_order(table, n)

    def test_random_feasible_natural_order(self):
        rng = random.Random(0)
        for n in range(1, 7):
            assert order_is_feasible(random_feasible(n, rng), tuple(range(n)))

    def test_feasibility_dp_matches_exhaustion(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randint(2, 4)
            table = list(range(1 << n))
            rng.shuffle(table)
            table = tuple(table)
            assert has_feasible_order(table, n) == any(
                order_is_feasible(table, o) for o in permutations(range(n)))

    def test_order_rank(self):
        for i, o in enumerate(permutations(range(4))):
            assert order_rank(o) == i
        assert order_rank(tuple(range(7))[::-1]) == factorial(7) - 1

    def test_render_parses(self):
        from qmap_synth import parse_truth_table
        table = random_feasible(3, random.Random(2))
        assert parse_truth_table(render(table, 3)).table == table


class TestPercentile:
    def test_reports_sample_count(self):
        p = percentile([float(x) for x in range(100)], 90)
        assert (p.value, p.samples, p.above) == (89.0, 100, 10)
        assert percentile(range(20), 50).samples == 20

    def test_refuses_fewer_than_ten_above(self):
        with pytest.raises(ValueError):
            percentile(range(99), 90)
        with pytest.raises(ValueError):
            percentile(range(19), 50)

    def test_min_samples(self):
        assert min_samples(90) == 100
        assert min_samples(50) == 20


class TestHostSpeed:
    def speed(self, samples):
        hs = HostSpeed()
        for at, secs in samples:
            hs.at.append(at)
            hs.secs.append(secs)
        return hs

    def test_scales_by_median_reference_in_window(self):
        ref = 2 * REF_NOMINAL_S       # host at half speed
        hs = self.speed([(10.0, ref), (10.5, ref), (11.0, 9 * ref)])
        assert hs.scale(10.2, 10.4) == pytest.approx(0.5)
        assert hs.scaled(10.2, 10.4) == pytest.approx(0.1)

    def test_ignores_samples_outside_window(self):
        hs = self.speed([(0.0, 4 * REF_NOMINAL_S), (100.0, REF_NOMINAL_S)])
        assert hs.scale(100.0 - REF_WINDOW_S, 100.0) == pytest.approx(1.0)

    def test_falls_back_to_nearest_sample(self):
        hs = self.speed([(0.0, 4 * REF_NOMINAL_S), (100.0, REF_NOMINAL_S)])
        assert hs.scale(10.0, 11.0) == pytest.approx(0.25)

    def test_sample_times_reference(self):
        hs = HostSpeed()
        hs.sample()
        hs.maybe_sample()             # too soon after the first
        assert len(hs.secs) == 1 and hs.secs[0] > 0


class TestStagedRebuild:
    @pytest.mark.parametrize("mode,order", [
        ("esop", "natural"), ("disjoint", "natural"), ("esop", "search")])
    def test_matches_synthesize(self, mode, order):
        from pipeline import Tracer, compile_table, staged_compile
        rng = random.Random(4)
        if order == "natural":
            texts = [render(random_feasible(n, rng), n) for n in (3, 4, 6)]
        else:
            texts = [render(relabelled_feasible(n, rng), n) for n in (3, 4, 5)]
            texts.append(render(top_two_swap(5), 5))
        tr = Tracer()
        for text in texts:
            assert (staged_compile(text, mode, order, tr)
                    == compile_table(text, mode, order))
        assert tr.counts["cascade.decompose.calls"] == 3
        roots = [s for s in tr.spans if s.parent is None]
        assert len(roots) == len(texts)
        assert all(s.table == tr.spans[s.parent].table
                   for s in tr.spans if s.parent is not None)
