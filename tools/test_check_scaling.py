#!/usr/bin/env python3
"""Unit tests for check_scaling.py (run via ctest as check_scaling_unit).

check_scaling is the CI gate on the swarm family's scaling curve. Its exit
status carries the verdict, so each code is pinned here: 0 for a passing
curve, 1 for a scaling violation (super-linear wall time, events-per-node
drift), 2 for bad input (fewer than two runs, an unreadable file, a
swarm-json line missing a field or with a non-positive node count), always
without a traceback.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_scaling.py")


def run_line(nodes, wall_s, events_per_node):
    run = {"nodes": nodes, "area_side_m": 100.0, "sim_s": 10,
           "wall_s": wall_s, "events": int(nodes * events_per_node),
           "events_per_node": events_per_node, "frames_sent": nodes * 10}
    return "swarm-json: " + json.dumps(run)


class CheckScalingTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, lines):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write("some other cocoa_sim output\n")
            f.write("\n".join(lines) + "\n")
        return path

    def run_tool(self, *args):
        result = subprocess.run([sys.executable, TOOL, *args],
                                capture_output=True, text=True)
        self.assertNotIn("Traceback", result.stderr)
        return result

    def test_linear_curve_passes(self):
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0),
                                       run_line(4000, 0.42, 88.5),
                                       run_line(16000, 1.7, 89.0)])
        merged = os.path.join(self.dir.name, "merged.json")
        result = self.run_tool(path, "--out", merged)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("scaling OK", result.stdout)
        with open(merged) as f:
            self.assertEqual([r["nodes"] for r in json.load(f)], [1000, 4000, 16000])

    def test_runs_from_several_files_are_merged_and_sorted(self):
        big = self.write("big.txt", [run_line(16000, 1.7, 89.0)])
        small = self.write("small.txt", [run_line(1000, 0.1, 88.0)])
        result = self.run_tool(big, small)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("1000 -> 16000 nodes", result.stdout)

    def test_super_linear_wall_time_fails(self):
        # 16x the nodes at 256x the wall time: exponent 2.0 > 1.7.
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0),
                                       run_line(16000, 25.6, 88.0)])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("super-linear", result.stdout)
        self.assertIn("scaling gate FAILED", result.stdout)

    def test_events_per_node_drift_fails(self):
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0),
                                       run_line(16000, 1.6, 400.0)])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("per-node event count grows", result.stdout)

    def test_limits_are_configurable(self):
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0),
                                       run_line(16000, 25.6, 88.0)])
        result = self.run_tool(path, "--max-exponent", "2.1")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_single_run_is_bad_input(self):
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0)])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("need at least 2 runs, got 1", result.stderr)

    def test_no_runs_is_bad_input(self):
        path = self.write("runs.txt", [])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("got 0", result.stderr)

    def test_unreadable_file_is_bad_input(self):
        result = self.run_tool(os.path.join(self.dir.name, "nonexistent.txt"))
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("cannot read", result.stderr)

    def test_malformed_json_is_bad_input(self):
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0),
                                       "swarm-json: {\"nodes\": 4000,"])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("runs.txt:3", result.stderr)

    def test_missing_field_is_bad_input(self):
        broken = json.loads(run_line(4000, 0.4, 88.0)[len("swarm-json: "):])
        del broken["events_per_node"]
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0),
                                       "swarm-json: " + json.dumps(broken)])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("lacks numeric events_per_node", result.stderr)

    def test_non_numeric_field_is_bad_input(self):
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0),
                                       run_line(4000, "slow", 88.0)])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("wall_s", result.stderr)

    def test_non_positive_node_count_is_bad_input(self):
        path = self.write("runs.txt", [run_line(0, 0.1, 88.0),
                                       run_line(1000, 0.1, 88.0)])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("nodes must be positive", result.stderr)

    def test_repeated_node_count_is_bad_input(self):
        path = self.write("runs.txt", [run_line(1000, 0.1, 88.0),
                                       run_line(1000, 0.1, 88.0)])
        result = self.run_tool(path)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("distinct node counts", result.stderr)


if __name__ == "__main__":
    unittest.main()
