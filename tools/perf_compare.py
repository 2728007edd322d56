#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh BENCH_10.json against the committed
baseline (bench/baseline/BENCH_baseline.json).

CI boxes and developer machines run at wildly different speeds, so raw ns/op
is never compared directly. Instead every benchmark's fresh/baseline ratio is
normalized by the *median* ratio across the whole suite — uniform machine
speed cancels out, and only benchmarks that moved relative to their peers
remain. The gate is deliberately generous (default: fail only when a
benchmark got more than 2x slower after normalization); it exists to catch
accidental algorithmic regressions, not nanosecond drift. Every baseline
entry must appear in the fresh run: a baselined bench that stopped running
(deleted, renamed or filtered out) is bad input, not a pass.

Usage: perf_compare.py BASELINE FRESH [--tolerance 2.0]
Exit status: 0 = within tolerance, 1 = regression, 2 = bad input.
"""

import argparse
import json
import statistics
import sys


def bad_input(message):
    """Exit 2 (bad input, as opposed to 1 = regression) with the message on
    stderr. sys.exit("...") would exit 1 and read as a regression."""
    print(f"perf_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        bad_input(f"cannot read {path}: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != "cocoa-perf-1":
        schema = doc.get("schema") if isinstance(doc, dict) else None
        bad_input(f"{path}: unexpected schema {schema!r}")
    series = {}
    try:
        for entry in doc.get("benchmarks", []):
            series[entry["name"]] = float(entry["ns_per_op"])
        for entry in doc.get("scenarios", []):
            # Scenario wall times ride through the same normalization; seconds
            # vs nanoseconds is irrelevant because only ratios are compared.
            series["scenario:" + entry["name"]] = float(entry["wall_seconds"])
    except (KeyError, TypeError, ValueError) as e:
        bad_input(f"{path}: malformed entry ({type(e).__name__}: {e})")
    return series


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="fail when normalized slowdown exceeds this "
                             "factor (default: %(default)s)")
    args = parser.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    missing = sorted(set(base) - set(fresh))
    if missing:
        bad_input(f"{args.fresh} lacks {len(missing)} baseline "
                  f"entr{'y' if len(missing) == 1 else 'ies'}: "
                  f"{', '.join(missing)}. Run the whole suite, or, after "
                  f"deleting or renaming a bench, regenerate the baseline:\n"
                  f"  COCOA_BENCH_JSON=bench/baseline/BENCH_baseline.json "
                  f"./build/bench/micro_core")
    common = sorted(set(base) & set(fresh))
    if len(common) < 3:
        bad_input(f"only {len(common)} comparable entries "
                  f"between {args.baseline} and {args.fresh}")
    for name in sorted(set(fresh) - set(base)):
        print(f"  note: new, no baseline yet: {name}")

    # A zero (or negative) baseline has no meaningful ratio — it usually means
    # a truncated or hand-edited baseline file. Skip such entries loudly
    # instead of dividing by zero or KeyError-ing in the loop below.
    for name in (n for n in common if base[n] <= 0.0):
        print(f"  note: baseline value is {base[name]} (not positive), "
              f"skipped: {name}")
    ratios = {n: fresh[n] / base[n] for n in common if base[n] > 0.0}
    if len(ratios) < 3:
        bad_input(f"only {len(ratios)} usable ratio(s) after "
                  f"skipping non-positive baselines — too few to normalize. "
                  f"Regenerate the baseline:\n"
                  f"  COCOA_BENCH_JSON=bench/baseline/BENCH_baseline.json "
                  f"./build/bench/micro_core")
    median = statistics.median(ratios.values())
    print(f"median fresh/baseline ratio (machine-speed normalizer): "
          f"{median:.3f}")

    regressions = []
    names = sorted(ratios)
    width = max(len(n) for n in names)
    for name in names:
        norm = ratios[name] / median
        flag = ""
        if norm > args.tolerance:
            flag = "  << REGRESSION"
            regressions.append((name, norm))
        elif norm < 1.0 / args.tolerance:
            flag = "  (improved)"
        print(f"  {name:<{width}}  {base[name]:>12.1f} -> {fresh[name]:>12.1f}"
              f"  norm x{norm:.2f}{flag}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.tolerance:.1f}x after machine-speed normalization:")
        for name, norm in regressions:
            print(f"  {name}: x{norm:.2f}")
        print("If the slowdown is intended, regenerate the baseline:\n"
              "  COCOA_BENCH_JSON=bench/baseline/BENCH_baseline.json "
              "./build/bench/micro_core")
        return 1
    print(f"\nall {len(ratios)} entries within {args.tolerance:.1f}x "
          f"of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
