#!/usr/bin/env python3
"""Unit tests for perf_compare.py (run via ctest as perf_compare_unit).

perf_compare is the CI perf gate; a crash in the gate script reads as a perf
regression and blocks unrelated PRs, so its failure modes are pinned here:
zero-valued baseline entries must be skipped with a note (not divide or
KeyError), and bad input (unreadable files, a foreign schema, too few usable
entries, a baseline entry the fresh run lacks) must exit 2 with an actionable
message instead of a traceback. The committed baseline itself is
checked too: every entry must be in nanoseconds, whatever unit the bench
prints in, and must name a benchmark micro_core still defines.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(TOOLS_DIR, "perf_compare.py")
REPO = os.path.dirname(TOOLS_DIR)
MICRO_CORE = os.path.join(REPO, "bench", "micro_core.cpp")
BASELINE = os.path.join(REPO, "bench", "baseline", "BENCH_baseline.json")


def doc(benchmarks, scenarios=()):
    return {
        "schema": "cocoa-perf-1",
        "benchmarks": [{"name": n, "ns_per_op": v} for n, v in benchmarks],
        "scenarios": [{"name": n, "wall_seconds": v} for n, v in scenarios],
    }


class PerfCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, content):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(content, f)
        return path

    def run_tool(self, baseline, fresh, *extra):
        return subprocess.run(
            [sys.executable, TOOL, baseline, fresh, *extra],
            capture_output=True, text=True)

    def test_clean_pass(self):
        entries = [("BM_A", 100.0), ("BM_B", 200.0), ("BM_C", 50.0)]
        base = self.write("base.json", doc(entries))
        fresh = self.write("fresh.json", doc(entries))
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("all 3 entries within", result.stdout)

    def test_regression_detected(self):
        base = self.write("base.json", doc(
            [("BM_A", 100.0), ("BM_B", 200.0), ("BM_C", 50.0)]))
        fresh = self.write("fresh.json", doc(
            [("BM_A", 100.0), ("BM_B", 200.0), ("BM_C", 500.0)]))
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSION", result.stdout)
        self.assertIn("BM_C", result.stdout)

    def test_zero_baseline_entry_skipped_not_crash(self):
        # A zero ns_per_op in the baseline used to KeyError inside the report
        # loop (the entry was dropped from the ratio map but still iterated).
        base = self.write("base.json", doc(
            [("BM_A", 100.0), ("BM_B", 0.0), ("BM_C", 50.0), ("BM_D", 75.0)]))
        fresh = self.write("fresh.json", doc(
            [("BM_A", 100.0), ("BM_B", 10.0), ("BM_C", 50.0), ("BM_D", 75.0)]))
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        self.assertIn("skipped: BM_B", result.stdout)
        self.assertIn("all 3 entries within", result.stdout)

    def test_all_zero_baseline_exits_with_guidance(self):
        # All-zero baseline: no usable ratios. Must exit 2-ish with the
        # regenerate hint, not a StatisticsError traceback.
        base = self.write("base.json", doc(
            [("BM_A", 0.0), ("BM_B", 0.0), ("BM_C", 0.0)]))
        fresh = self.write("fresh.json", doc(
            [("BM_A", 1.0), ("BM_B", 1.0), ("BM_C", 1.0)]))
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        self.assertIn("usable ratio", result.stderr)
        self.assertIn("COCOA_BENCH_JSON", result.stderr)

    def test_too_few_common_entries(self):
        base = self.write("base.json", doc([("BM_A", 100.0)]))
        fresh = self.write("fresh.json", doc([("BM_A", 100.0)]))
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        self.assertIn("comparable entries", result.stderr)

    def test_baseline_entry_missing_from_fresh_exits_2(self):
        # A baselined bench that no longer runs must fail the gate, not
        # shrink it silently; new fresh-only entries stay a note.
        base = self.write("base.json", doc(
            [("BM_A", 100.0), ("BM_B", 200.0), ("BM_C", 50.0), ("BM_D", 75.0)],
            [("fig7", 2.0)]))
        fresh = self.write("fresh.json", doc(
            [("BM_A", 100.0), ("BM_C", 50.0), ("BM_D", 75.0), ("BM_E", 1.0)]))
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        self.assertIn("lacks 2 baseline entries: BM_B, scenario:fig7",
                      result.stderr)
        self.assertIn("COCOA_BENCH_JSON", result.stderr)

    def test_scenarios_ride_through(self):
        base = self.write("base.json", doc(
            [("BM_A", 100.0), ("BM_B", 200.0)], [("fig7", 2.0)]))
        fresh = self.write("fresh.json", doc(
            [("BM_A", 100.0), ("BM_B", 200.0)], [("fig7", 2.0)]))
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("scenario:fig7", result.stdout)

    def test_bad_schema_rejected(self):
        base = self.write("base.json", {"schema": "other", "benchmarks": []})
        fresh = self.write("fresh.json", doc([("BM_A", 1.0)]))
        result = self.run_tool(base, fresh)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("unexpected schema", result.stderr)

    def test_unreadable_or_malformed_input_exits_2(self):
        # 2 = bad input; 1 is reserved for a regression.
        missing = os.path.join(self.dir.name, "nonexistent.json")
        result = self.run_tool(missing, missing)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        self.assertIn("cannot read", result.stderr)
        base = self.write("base.json", {"schema": "cocoa-perf-1",
                                        "benchmarks": [{"name": "BM_A"}]})
        result = self.run_tool(base, base)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertNotIn("Traceback", result.stderr)
        self.assertIn("malformed entry", result.stderr)


class BaselineUnitsTest(unittest.TestCase):
    """micro_core prints some benches in milliseconds (->Unit(kMillisecond))
    but the artifact's ns_per_op must always be nanoseconds. A value stored
    raw in the display unit lands 10^6x too small; for a bench slow enough to
    be shown in ms (>= 0.1 ms per op) that puts it under 1e5 "ns"."""

    MIN_NS = 1e5

    def test_millisecond_benches_stored_in_ns(self):
        with open(MICRO_CORE) as f:
            source = f.read()
        benches = re.findall(
            r"BENCHMARK\((\w+)\)[^;]*->Unit\(benchmark::kMillisecond\)", source)
        self.assertGreaterEqual(len(benches), 5)
        with open(BASELINE) as f:
            entries = json.load(f)["benchmarks"]
        for bench in benches:
            stored = [e for e in entries
                      if e["name"] == bench or e["name"].startswith(bench + "/")]
            self.assertTrue(stored, f"{bench} missing from {BASELINE}")
            for e in stored:
                self.assertGreaterEqual(
                    e["ns_per_op"], self.MIN_NS,
                    f"{e['name']}: {e['ns_per_op']} looks like milliseconds "
                    f"stored as ns_per_op")


class BaselineNamesTest(unittest.TestCase):
    """Every committed baseline entry names a BENCHMARK(...) that
    bench/micro_core.cpp still defines, so the entry of a deleted bench
    cannot linger in the gate's median normalization."""

    def test_every_entry_names_a_defined_bench(self):
        with open(MICRO_CORE) as f:
            defined = set(re.findall(r"^BENCHMARK\((\w+)\)", f.read(), re.M))
        self.assertTrue(defined)
        with open(BASELINE) as f:
            entries = json.load(f)["benchmarks"]
        # Parameterized runs are stored as "<bench>/<arg>[/<arg>...]".
        stale = [e["name"] for e in entries
                 if e["name"].split("/")[0] not in defined]
        self.assertEqual(stale, [], f"{BASELINE} names benches {MICRO_CORE} "
                         "no longer defines")


if __name__ == "__main__":
    unittest.main()
