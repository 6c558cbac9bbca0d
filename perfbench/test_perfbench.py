"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["a", 0.0, 10.0, -1, "i"],
            ["b", 1.0, 4.0, 0, "i"],
            ["c", 2.0, 3.0, 1, "i"],
            ["b", 5.0, 6.0, 0, "i"],
            ["a", 20.0, 21.5, -1, "j"],
        ]
        self.assertEqual(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0, 1.5])

    def test_overlapping_children_are_counted_once(self):
        spans = [["a", 0.0, 10.0, -1, ""], ["b", 1.0, 5.0, 0, ""], ["b", 4.0, 12.0, 0, ""]]
        self.assertEqual(tracing.self_times(spans)[0], 1.0)

    def test_layer_metrics_sum_self_time_per_name(self):
        spans = [
            ["qseries.mul", 0.0, 2.0, -1, ""],
            ["qseries.mul", 3.0, 4.0, -1, ""],
            ["cli.run", 5.0, 9.0, -1, ""],
            ["qseries.mul", 6.0, 7.0, 2, ""],
        ]
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["qseries.mul.calls"], 3)
        self.assertEqual(m["qseries.mul.self_s"], 4.0)
        self.assertEqual(m["cli.run.self_s"], 3.0)
        self.assertEqual(m["ncalg.ideal_membership.calls"], 0)


class Tail(unittest.TestCase):
    def test_median_when_no_tail_percentile_qualifies(self):
        self.assertEqual(run.tail([5.0, 1.0, 3.0, 2.0, 4.0]), (50.0, 3.0))
        self.assertEqual(run.tail([1.0, 2.0]), (50.0, 1.5))

    def test_ten_samples_beyond(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(run.tail(values), (90.0, 90.0))
        pct, value = run.tail([float(v) for v in range(1, 31)])
        self.assertEqual(value, 20.0)
        self.assertAlmostEqual(pct, 100 * 20 / 30)
        self.assertEqual(sum(v > value for v in range(1, 31)), 10)


class FailureCounting(unittest.TestCase):
    def test_exit_code_and_exception_count_as_failures(self):
        ran = []

        def raises():
            raise RuntimeError("boom")

        def ok():
            ran.append("ok")
            return workloads.CliOutput(0, '[{"name":"t","equal":true}]', "")

        items = [
            workloads.Item("exit1", lambda: workloads.CliOutput(1, "", "bad"), workloads.check_compare("t")),
            workloads.Item("raises", raises, workloads.check_compare("t")),
            workloads.Item("ok", ok, workloads.check_compare("t")),
            workloads.Item("unequal", lambda: workloads.CliOutput(0, '[{"name":"t","equal":false}]', ""),
                           workloads.check_compare("t")),
        ]
        records = child.run_items(items, [0, 1, 2, 3])
        problems = {rec[0]: rec[2] for rec in records}
        self.assertEqual(ran, ["ok"])
        self.assertIsNone(problems["ok"])
        self.assertTrue(problems["exit1"].startswith("exit 1"))
        self.assertIn("RuntimeError: boom", problems["raises"])
        self.assertIn("not equal", problems["unequal"])
        self.assertEqual(sum(p is not None for p in problems.values()), 3)

    def test_monad_component_count_is_pinned(self):
        check = workloads.check_monad("kn")
        good = '{"certified":true,"components":14,"failures":[],"template":"kn"}'
        self.assertIsNone(check(workloads.CliOutput(0, good, "")))
        short = good.replace("14", "13")
        self.assertIsNotNone(check(workloads.CliOutput(0, short, "")))


class MembershipQueries(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.systems = workloads.relation_systems()

    def _queries(self, seed):
        return [
            (q.system.name, q.bound, q.member, sorted((str(p), c) for p, c in q.poly.terms.items()))
            for q in workloads.membership_queries(seed, self.systems)
        ]

    def test_same_seed_same_queries(self):
        self.assertEqual(self._queries(7), self._queries(7))

    def test_other_seed_other_queries(self):
        a, b = self._queries(7), self._queries(8)
        self.assertEqual([x[:3] for x in a], [x[:3] for x in b])  # same schedule
        self.assertNotEqual(a, b)

    def test_half_members_and_nonmembers_carry_a_trivial_path(self):
        queries = workloads.membership_queries(3, self.systems)
        self.assertEqual(sum(q.member for q in queries) * 2, len(queries))
        for q in queries:
            if not q.member:
                self.assertEqual(len(q.trivial), 0)
                self.assertEqual(q.poly.terms[q.trivial], q.trivial_coeff)


class Tracing(unittest.TestCase):
    def test_by_name_imports_are_wrapped_and_restored(self):
        from quiverdt import checks, monad, ncalg, qseries

        original, original_macmahon = ncalg.ideal_membership, qseries.macmahon
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(monad.ideal_membership, ncalg.ideal_membership)
            self.assertIs(ncalg.ideal_membership.__wrapped__, original)
            self.assertIs(checks.macmahon, qseries.macmahon)
            self.assertIs(checks.macmahon.__wrapped__, original_macmahon)
            one = qseries.QSeries.one(("q",), 3)
            with_span = one * one
            self.assertEqual(with_span, one)
            self.assertEqual([s[0] for s in tracer.spans], ["qseries.mul"])
        finally:
            tracer.uninstall()
        self.assertIs(monad.ideal_membership, original)
        self.assertFalse(hasattr(qseries.QSeries.__mul__, "__wrapped__"))


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_harness(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())


if __name__ == "__main__":
    unittest.main()
