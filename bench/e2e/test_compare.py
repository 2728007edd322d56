#!/usr/bin/env python3
"""Unit tests for compare.py (run: python3 bench/e2e/test_compare.py -v)."""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
]}


def doc(run_s, rss=100.0, workload="fig7_grid", failed=0):
    runs = [{"run_s": v, "peak_rss_mb": rss} for v in run_s]
    return {"workloads": {workload: {"runs": runs, "failed": failed,
                                     "attempted": len(runs)}}}


def verdicts(parent, change):
    return {(w, m): v for w, m, v, _ in compare.compare(parent, change, SPEC)}


class CompareTest(unittest.TestCase):
    def test_same_code_is_no_change(self):
        base = [9.0, 9.1, 9.2, 9.05, 9.15, 9.1, 9.0, 9.2, 9.1, 9.05]
        v = verdicts([doc(base)], [doc(list(reversed(base)))])
        self.assertEqual(v[("fig7_grid", "run_s")], "no change")
        self.assertEqual(v[("fig7_grid", "failed_frac")], "no change")

    def test_consistent_speedup_is_gain(self):
        parent = [9.0 + 0.01 * i for i in range(10)]
        change = [7.0 + 0.01 * i for i in range(10)]
        self.assertEqual(verdicts([doc(parent)], [doc(change)])[("fig7_grid", "run_s")], "gain")

    def test_gain_needs_ten_pairs(self):
        v = verdicts([doc([9.0, 9.1, 9.2])], [doc([7.0, 7.1, 7.2])])
        self.assertEqual(v[("fig7_grid", "run_s")], "no change")

    def test_gain_needs_nine_of_ten_wins(self):
        parent = [9.0] * 10
        change = [7.0] * 8 + [9.5, 9.5]
        self.assertNotEqual(verdicts([doc(parent)], [doc(change)])[("fig7_grid", "run_s")], "gain")

    def test_slowdown_beyond_bound_is_regression(self):
        v = verdicts([doc([9.0, 9.1, 9.0])], [doc([11.0, 11.1, 11.0])])
        self.assertEqual(v[("fig7_grid", "run_s")], "regression")

    def test_wide_parent_spread_is_unresolved(self):
        v = verdicts([doc([5.0, 9.0, 13.0, 7.0])], [doc([10.0, 11.0, 12.0, 6.0])])
        self.assertEqual(v[("fig7_grid", "run_s")], "unresolved")

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        v = verdicts([doc([5.0, 9.0, 13.0, 7.0])], [doc([1.0, 1.1, 1.2, 1.3])])
        self.assertEqual(v[("fig7_grid", "run_s")], "no change")

    def test_rising_failures_are_a_regression(self):
        v = verdicts([doc([9.0, 9.0])], [doc([9.0, 9.0], failed=1)])
        self.assertEqual(v[("fig7_grid", "failed_frac")], "regression")

    def test_missing_metric_and_workload_do_not_crash(self):
        parent = doc([9.0, 9.1])
        change = doc([9.0, 9.1], workload="swarm_16k")
        for r in change["workloads"]["swarm_16k"]["runs"]:
            del r["peak_rss_mb"]
        v = verdicts([parent], [change, {}])
        self.assertEqual(v[("fig7_grid", "run_s")], "missing")
        self.assertEqual(v[("swarm_16k", "peak_rss_mb")], "missing")
        self.assertEqual(v[("swarm_16k", "failed_frac")], "missing")

    def test_zero_values_do_not_crash(self):
        v = verdicts([doc([0.0, 0.0], rss=0.0)], [doc([0.0, 0.1], rss=0.0)])
        self.assertEqual(v[("fig7_grid", "peak_rss_mb")], "no change")
        self.assertIn(v[("fig7_grid", "run_s")], ("regression", "unresolved"))

    def test_main_exit_status_and_rows(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, content in {"bench": SPEC, "p": doc([9.0, 9.1]),
                                  "c": doc([12.0, 12.1])}.items():
                paths[name] = Path(tmp) / f"{name}.json"
                paths[name].write_text(json.dumps(content))
            out = io.StringIO()
            with mock.patch.object(compare, "BENCHMARK_JSON", paths["bench"]):
                with redirect_stdout(out):
                    status = compare.main(["--parent", str(paths["p"]),
                                           "--change", str(paths["c"])])
                self.assertEqual(status, 1)
                self.assertIn("regression", out.getvalue())
                with redirect_stdout(io.StringIO()):
                    self.assertEqual(compare.main(["--parent", str(paths["p"]),
                                                   "--change", str(paths["p"])]), 0)


if __name__ == "__main__":
    unittest.main()
