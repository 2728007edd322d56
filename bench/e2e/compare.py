#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results (stdlib only).

  python3 bench/e2e/compare.py --parent P1.json [P2.json ...] \\
                               --change C1.json [C2.json ...]

Each file is a result JSON that `bench/e2e/run.py` (full set) writes to
build-bench/. Per-run values are pooled in file order on each side; pair i is
(parent run i, change run i), so alternate the commits when producing the
files. Every workload gets its own row per end-to-end metric of
BENCHMARK.json, with one verdict:

  gain        >= 10 pairs, the change wins >= 9/10 of them (ties count for
              neither) and the medians differ by more than the parent's IQR
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's IQR exceeds the bound (as a share of its median)
              and not every change run beats every parent run
  no change   none of the above
  missing     a side has no value for this metric on this workload

failed_frac may never rise. Exit status: 0 = no regression, 1 = regression,
2 = unreadable input.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values):
    """(p25, p75) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative(delta, base):
    """delta / |base|, treating a zero base as infinitely sensitive."""
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def verdict(parent, change, better, bound):
    """Verdict for one metric on one workload; `parent` and `change` are the
    per-run values in run order. Returns (verdict, detail dict)."""
    if not parent or not change:
        return "missing", {}
    sign = 1.0 if better == "lower" else -1.0  # > 0 means "worse"
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    lo, hi = quartiles(parent)
    iqr = hi - lo
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse_by = relative(sign * (med_c - med_p), med_p)
    spread = relative(iqr, med_p)
    detail = {"parent": med_p, "change": med_c, "delta_pct": 100.0 * relative(med_c - med_p, med_p),
              "wins": wins, "pairs": len(pairs), "parent_iqr": iqr}
    if (len(pairs) >= 10 and wins >= math.ceil(0.9 * len(pairs))
            and worse_by < 0 and abs(med_c - med_p) > iqr):
        return "gain", detail
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", detail
    if worse_by > bound:
        return "regression", detail
    return "no change", detail


def runs_by_workload(docs):
    """{workload: {"runs": [per-run metric dicts], "failed": n, "attempted": n}}"""
    out = {}
    for doc in docs:
        for workload, entry in (doc.get("workloads") or {}).items():
            agg = out.setdefault(workload, {"runs": [], "failed": 0, "attempted": 0})
            agg["runs"].extend(entry.get("runs") or [])
            agg["failed"] += entry.get("failed") or 0
            agg["attempted"] += entry.get("attempted") or 0
    return out


def compare(parent_docs, change_docs, spec):
    """Rows of (workload, metric, verdict, detail)."""
    parent = runs_by_workload(parent_docs)
    change = runs_by_workload(change_docs)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p = parent.get(workload, {"runs": [], "failed": 0, "attempted": 0})
        c = change.get(workload, {"runs": [], "failed": 0, "attempted": 0})
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r[name] for r in p["runs"] if isinstance(r.get(name), (int, float))]
            cv = [r[name] for r in c["runs"] if isinstance(r.get(name), (int, float))]
            v, detail = verdict(pv, cv, m["better"], m["bound"])
            rows.append((workload, name, v, detail))
        if p["attempted"] and c["attempted"]:
            fp = p["failed"] / p["attempted"]
            fc = c["failed"] / c["attempted"]
            rows.append((workload, "failed_frac", "regression" if fc > fp else "no change",
                         {"parent": fp, "change": fc}))
        else:
            rows.append((workload, "failed_frac", "missing", {}))
    return rows


def load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare.py: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    spec = load(BENCHMARK_JSON)
    rows = compare([load(f) for f in args.parent], [load(f) for f in args.change], spec)

    print(f"{'workload':<13} {'metric':<14} {'parent':>11} {'change':>11} {'delta':>8} "
          f"{'wins':>7}  verdict")
    for workload, metric, v, d in rows:
        if not d:
            print(f"{workload:<13} {metric:<14} {'':>11} {'':>11} {'':>8} {'':>7}  {v}")
            continue
        delta = f"{d['delta_pct']:+.1f}%" if "delta_pct" in d else ""
        wins = f"{d['wins']}/{d['pairs']}" if "wins" in d else ""
        print(f"{workload:<13} {metric:<14} {d['parent']:>11.5g} {d['change']:>11.5g} "
              f"{delta:>8} {wins:>7}  {v}")
    return 1 if any(v == "regression" for _, _, v, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
