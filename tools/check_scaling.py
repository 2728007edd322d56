#!/usr/bin/env python3
"""Scaling-curve gate for the large-N swarm family (`cocoa_sim --nodes`).

Feeds on the `swarm-json: {...}` line the tool prints per run. Given runs at
increasing node counts (same duration/seed), asserts that

  1. wall time grows sub-quadratically: the fitted log-log exponent between
     the smallest and largest run stays below --max-exponent (default 1.7 —
     a flat-sweep medium is ~2.0, the hierarchical one ~1.2 with constant
     density);
  2. kernel events per node stay bounded: the max/min ratio across runs is
     at most --max-events-ratio (default 3.0), i.e. per-node work does not
     grow with swarm size.

Usage: check_scaling.py FILE...   (each file holds one or more swarm-json
lines; '-' reads stdin). Also writes a merged JSON array to --out if given.
Exit status: 0 = scaling OK, 1 = violation, 2 = bad input.
"""

import argparse
import json
import math
import numbers
import sys

FIELDS = ("nodes", "wall_s", "events", "events_per_node")


def bad_input(message):
    """Exit 2 (bad input, as opposed to 1 = scaling violation) with the
    message on stderr. sys.exit("...") would exit 1 and read as a failure
    of the swarm itself."""
    print(f"check_scaling: {message}", file=sys.stderr)
    sys.exit(2)


def parse_run(text, where):
    """One swarm-json payload, checked for every field the gate reads."""
    try:
        run = json.loads(text)
    except json.JSONDecodeError as e:
        bad_input(f"{where}: {e}")
    if not isinstance(run, dict):
        bad_input(f"{where}: swarm-json payload is not an object")
    missing = [k for k in FIELDS if not isinstance(run.get(k), numbers.Real)]
    if missing:
        bad_input(f"{where}: swarm-json line lacks numeric {', '.join(missing)}")
    if run["nodes"] <= 0:
        bad_input(f"{where}: nodes must be positive, got {run['nodes']}")
    return run


def parse_runs(paths):
    runs = []
    for path in paths:
        try:
            f = sys.stdin if path == "-" else open(path)
            with f:
                for lineno, line in enumerate(f, 1):
                    line = line.strip()
                    if line.startswith("swarm-json:"):
                        runs.append(parse_run(line[len("swarm-json:"):],
                                              f"{path}:{lineno}"))
        except (OSError, UnicodeDecodeError) as e:
            bad_input(f"cannot read {path}: {e}")
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+")
    parser.add_argument("--max-exponent", type=float, default=1.7)
    parser.add_argument("--max-events-ratio", type=float, default=3.0)
    parser.add_argument("--out", help="write merged run array as JSON")
    args = parser.parse_args()

    runs = parse_runs(args.files)
    runs.sort(key=lambda r: r["nodes"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=2)
            f.write("\n")
    if len(runs) < 2:
        bad_input(f"need at least 2 runs, got {len(runs)}")

    print(f"{'nodes':>8} {'wall_s':>9} {'events':>12} {'events/node':>12}")
    for r in runs:
        print(f"{r['nodes']:>8} {r['wall_s']:>9.2f} {r['events']:>12} "
              f"{r['events_per_node']:>12.1f}")

    ok = True

    # Sub-quadratic growth, judged on the full span (single pairs are noisy
    # on shared CI boxes; the end-to-end exponent is the stable signal).
    lo, hi = runs[0], runs[-1]
    if hi["nodes"] <= lo["nodes"]:
        bad_input("runs must cover distinct node counts")
    # Sub-millisecond walls are all noise; floor them rather than divide.
    wall_lo = max(lo["wall_s"], 1e-3)
    wall_hi = max(hi["wall_s"], 1e-3)
    exponent = math.log(wall_hi / wall_lo) / math.log(hi["nodes"] / lo["nodes"])
    print(f"\nwall-time exponent over {lo['nodes']} -> {hi['nodes']} nodes: "
          f"{exponent:.2f} (limit {args.max_exponent:.2f})")
    if exponent > args.max_exponent:
        print("  << FAIL: super-linear blowup — the medium is no longer "
              "O(neighbors) per transmission")
        ok = False

    per_node = [r["events_per_node"] for r in runs]
    ratio = max(per_node) / max(min(per_node), 1e-9)
    print(f"events/node spread (max/min): x{ratio:.2f} "
          f"(limit x{args.max_events_ratio:.2f})")
    if ratio > args.max_events_ratio:
        print("  << FAIL: per-node event count grows with swarm size")
        ok = False

    print("\nscaling OK" if ok else "\nscaling gate FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
