#!/usr/bin/env python3
"""End-to-end benchmark of the cocoa simulator (stdlib only; see README.md).

Builds bench/e2e/cocoa_e2e into build-bench/ and runs each workload in its
own process.

  python3 bench/e2e/run.py [--seed 7]
      Full set: every workload 7 times, interleaved round-robin, and one
      traced run each mid-set. Prints every end-to-end metric (median, p25, p75,
      n) and the per-layer metrics, writes build-bench/e2e-seed<N>-*.json and
      exits non-zero if any run failed or its output digest is wrong.

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One workload for S seconds, as BENCHMARK.json's command. The last
      stdout line is {"correct", "attempted", "failed", "metrics"}: the
      end-to-end metrics with --trace 0, the per-layer ones with --trace 1.

  python3 bench/e2e/run.py --smoke [--binary PATH]
      Every workload at toy size, untraced and traced (ctest e2e_smoke).

  python3 bench/e2e/run.py --update-reference
      Rewrites reference.json. Only for deliberate behaviour changes.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
from compare import quartiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
REFERENCE = HERE / "reference.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["fig7_grid", "dense_lincvx", "swarm_16k", "sweep_fork"]
REFERENCE_SEEDS = [7, 11]
RUN_TIMEOUT_S = 170
RUNS = 7  # full set: untraced runs per workload

# Per-layer metrics each traced workload must report (the smoke test and the
# full set check this): BENCHMARK.json's per_layer, less the two run.py
# derives from the untraced runs, plus each workload's own. est.* exist only
# where an estimator runs, ckpt.* and exp.* only where the sweep runs them.
DERIVED_LAYERS = {"sim.events_per_s", "obs.trace_overhead_pct"}
COMMON_LAYERS = [m["name"] for m in SPEC["per_layer"] if m["name"] not in DERIVED_LAYERS]
ESTIMATOR_LAYERS = [
    "est.constraints", "est.share", "est.windows_without_fix", "est.fix_us.grid",
    "est.fix_us.ekf", "est.fix_us.lincvx", "mcast.duplicates_per_delivery",
]
SCENARIO_LAYERS = COMMON_LAYERS + ESTIMATOR_LAYERS + [
    "core.result_ms", "mac.index_migrations", "mac.radius_cache_hit_pct",
]
EXPECTED_LAYERS = {
    "fig7_grid": SCENARIO_LAYERS + ["est.constraint_us"],
    "dense_lincvx": SCENARIO_LAYERS,
    "swarm_16k": COMMON_LAYERS + [
        "core.result_ms", "mobility.tick_ms", "mobility.ticks_kept",
        "mobility.ticks", "mac.index_migrations", "mac.radius_cache_hit_pct",
    ],
    "sweep_fork": COMMON_LAYERS + ESTIMATOR_LAYERS + [
        "exp.fork_prefix_ms", "exp.replication_ms", "exp.busy_pct",
        "ckpt.save_ms", "ckpt.restore_ms", "ckpt.blob_kb",
    ],
}
E2E_UNITS = {"run_s": "s", "setup_s": "s", "round_ms_p50": "ms",
             "round_ms_p90": "ms", "peak_rss_mb": "MiB"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and run.
# --------------------------------------------------------------------------

def build():
    """Configures (once) and builds cocoa_e2e; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no cocoa source tree at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_PROJECT_cocoa_INCLUDE={HERE / 'hook.cmake'}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "cocoa_e2e", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return BUILD / "cocoa_e2e"


def run_once(binary, workload, seed, traced=False, smoke=False):
    """One cocoa_e2e process. Returns its JSON record, or a record with an
    'error' key when it failed to run or produced no result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    trace_file = None
    if traced:
        BUILD.mkdir(exist_ok=True)
        trace_file = BUILD / f"trace-{workload}-seed{seed}{'-smoke' if smoke else ''}.json"
        cmd += ["--trace", str(trace_file)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"workload": workload,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    if proc.returncode != 0:
        reason = record.get("check_error") or proc.stderr.strip()[-300:]
        record["error"] = f"exit {proc.returncode}: {reason}"
    if trace_file is not None and "error" not in record:
        record["self_ms"] = self_times(json.loads(trace_file.read_text())["spans"])
    return record


def self_times(spans):
    """Self time per span name (ms): each span's duration minus its
    children's. cocoa_e2e's spans are sequential, so children never
    overlap one another."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    totals = {}
    for s, children in zip(spans, child_ns):
        own = s["end_ns"] - s["start_ns"] - children
        totals[s["name"]] = totals.get(s["name"], 0.0) + own / 1e6
    return totals


# --------------------------------------------------------------------------
# Metrics and correctness.
# --------------------------------------------------------------------------

def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def per_run_metrics(record):
    """The end-to-end metrics one process measured."""
    rounds = record["round_ms"]
    return {
        "run_s": record["run_s"],
        "setup_s": statistics.median(record["setup_s"]),
        "round_ms_p50": statistics.median(rounds),
        "round_ms_p90": p90(rounds),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def invocation_metrics(records):
    """End-to-end metrics over several runs of one workload: medians over
    the runs, with set-ups and rounds pooled across runs first."""
    rounds = [r for rec in records for r in rec["round_ms"]]
    return {
        "run_s": statistics.median(rec["run_s"] for rec in records),
        "setup_s": statistics.median(s for rec in records for s in rec["setup_s"]),
        "round_ms_p50": statistics.median(rounds),
        "round_ms_p90": p90(rounds),
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in records),
    }


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def mark_failures(records, workload, seed, reference):
    """Sets record['error'] on every run whose digest is wrong: different
    from reference.json when the seed has an entry there, else different
    from the digest most runs of this invocation agree on. Returns the
    number of failed runs."""
    digests = [r["digest"] for r in records if "error" not in r]
    expected = reference.get(workload, {}).get(str(seed))
    if expected is None and digests:
        expected = max(set(digests), key=digests.count)
    for r in records:
        if "error" not in r and r["digest"] != expected:
            r["error"] = f"digest {r['digest']} != expected {expected}"
    return sum(1 for r in records if "error" in r)


def layer_metrics(traced, untraced_run_s):
    """The traced run's per-layer metrics plus the two derived from the
    untraced runs' median run_s."""
    layers = dict(traced["layers"])
    layers["sim.events_per_s"] = layers["sim.events"] / untraced_run_s
    layers["obs.trace_overhead_pct"] = 100.0 * (traced["run_s"] / untraced_run_s - 1.0)
    return layers


# --------------------------------------------------------------------------
# Modes.
# --------------------------------------------------------------------------

def single_workload_mode(args):
    """One workload for --seconds, printed as BENCHMARK.json's contract."""
    binary = build()
    start = time.monotonic()
    traced = run_once(binary, args.workload, args.seed, traced=True) if args.trace else None
    # Start another run only if it is expected to end within --seconds.
    untraced, durations = [], []
    while True:
        t0 = time.monotonic()
        untraced.append(run_once(binary, args.workload, args.seed))
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > args.seconds:
            break
    records = untraced + ([traced] if traced else [])
    failed = mark_failures(records, args.workload, args.seed, load_reference())
    for r in records:
        if "error" in r:
            log(f"run.py: {args.workload} seed {args.seed}: {r['error']}")
    (BUILD / f"runs-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(records) + "\n")

    good = [r for r in untraced if "error" not in r]
    metrics = {}
    if good and (traced is None or "error" not in traced):
        e2e = invocation_metrics(good)
        if args.trace:
            values = layer_metrics(traced, e2e["run_s"])
            names = SPEC["per_layer"]
        else:
            values = e2e
            names = SPEC["end_to_end"]
        for m in names:
            if m["name"] not in values:
                sys.exit(f"run.py: {args.workload} does not report {m['name']}")
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))


def machine_stamp(records):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    m = next((r["machine"] for r in records if "machine" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "gridk_isa": m.get("gridk_isa"),
        "fanout_isa": m.get("fanout_isa"),
        "compiler": m.get("compiler"),
        "build_type": m.get("build_type"),
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "machine.ref_ms": statistics.median(
            [r["machine"]["ref_ms"] for r in records if "machine" in r] or [0.0]),
    }


def full_mode(args):
    """RUNS interleaved runs of every workload, one traced run each."""
    binary = build()
    reference = load_reference()
    runs = {w: [] for w in WORKLOADS}
    traced = {}
    for i in range(RUNS):
        for w in WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]:
            log(f"run {i + 1}/{RUNS}: {w}")
            runs[w].append(run_once(binary, w, args.seed))
        if i == RUNS // 2:
            # Mid-set, so the untraced runs it is compared with straddle it.
            for w in WORKLOADS:
                log(f"traced: {w}")
                traced[w] = run_once(binary, w, args.seed, traced=True)

    report = {"seed": args.seed,
              "machine": machine_stamp([r for w in WORKLOADS for r in runs[w]]),
              "workloads": {}}
    ok = True
    print(f"{'workload':<13} {'metric':<15} {'unit':<6} {'value':>11} "
          f"{'p25':>11} {'p75':>11} {'n':>5}")
    for w in WORKLOADS:
        records = runs[w] + [traced[w]]
        failed = mark_failures(records, w, args.seed, reference)
        good = [r for r in runs[w] if "error" not in r]
        entry = {"attempted": len(records), "failed": failed,
                 "failed_frac": failed / len(records),
                 "errors": [r["error"] for r in records if "error" in r],
                 "runs": [per_run_metrics(r) for r in good]}
        ok &= failed == 0
        if good:
            # value: pooled over all runs; p25/p75: quartiles of the per-run
            # values; n: samples behind the value (runs, set-ups or rounds).
            value = invocation_metrics(good)
            n_rounds = sum(len(r["round_ms"]) for r in good)
            entry["metrics"] = {}
            for name, unit in E2E_UNITS.items():
                lo, hi = quartiles([r[name] for r in entry["runs"]])
                n = {"round_ms_p50": n_rounds, "round_ms_p90": n_rounds,
                     "setup_s": sum(len(r["setup_s"]) for r in good)}.get(name, len(good))
                entry["metrics"][name] = {"value": value[name], "unit": unit,
                                          "p25": lo, "p75": hi, "n": n}
                print(f"{w:<13} {name:<15} {unit:<6} {value[name]:>11.5g} "
                      f"{lo:>11.5g} {hi:>11.5g} {n:>5}")
            print(f"{w:<13} {'failed_frac':<15} {'ratio':<6} {entry['failed_frac']:>11.5g} "
                  f"{'':>11} {'':>11} {len(records):>5}")
            if "error" not in traced[w]:
                entry["layers"] = layer_metrics(traced[w], value["run_s"])
                entry["self_ms"] = traced[w]["self_ms"]
                missing = set(EXPECTED_LAYERS[w]) - set(entry["layers"])
                if missing:
                    log(f"run.py: {w} traced run lacks {sorted(missing)}")
                    ok = False
        report["workloads"][w] = entry
        for err in entry["errors"]:
            log(f"run.py: {w}: {err}")

    print("\nper-layer metrics (traced run)")
    for w in WORKLOADS:
        for name, value in sorted(report["workloads"][w].get("layers", {}).items()):
            print(f"{w:<13} {name:<30} {value:>14.6g}")
    print("\nself time by span (traced run, ms)")
    for w in WORKLOADS:
        for name, ms in sorted(report["workloads"][w].get("self_ms", {}).items(),
                               key=lambda kv: -kv[1]):
            print(f"{w:<13} {name:<30} {ms:>14.3f}")

    BUILD.mkdir(exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    out = BUILD / f"e2e-seed{args.seed}-{stamp}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0 if ok else 1


def smoke_mode(args):
    binary = Path(args.binary) if args.binary else build()
    ok = True
    for w in WORKLOADS:
        plain = run_once(binary, w, args.seed, smoke=True)
        traced = run_once(binary, w, args.seed, traced=True, smoke=True)
        problems = [r["error"] for r in (plain, traced) if "error" in r]
        if not problems:
            if plain["digest"] != traced["digest"]:
                problems.append("traced digest differs from untraced")
            layers = traced["layers"]
            missing = set(EXPECTED_LAYERS[w]) - set(layers)
            if missing:
                problems.append(f"traced run lacks {sorted(missing)}")
            # BENCHMARK.json lists only metrics that are never 0.
            zero = [n for n in COMMON_LAYERS if layers.get(n) == 0]
            if zero:
                problems.append(f"BENCHMARK.json metrics are 0: {zero}")
            if layers.get("mobility.ticks_kept", 0) != layers.get("mobility.ticks", 0):
                problems.append("a mobility tick bracket ran more than the tick")
        print(f"{w:<13} {'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
        ok &= not problems
    return 0 if ok else 1


def update_reference(args):
    binary = build()
    reference = {}
    for w in WORKLOADS:
        reference[w] = {}
        for seed in REFERENCE_SEEDS:
            record = run_once(binary, w, seed)
            if "error" in record:
                sys.exit(f"run.py: {w} seed {seed}: {record['error']}")
            reference[w][str(seed)] = record["digest"]
            log(f"{w} seed {seed}: {record['digest']}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="with --workload: keep starting runs until this long has passed")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="with --workload: 1 reports the per-layer metrics")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="with --smoke: use this cocoa_e2e, do not build")
    p.add_argument("--update-reference", action="store_true")
    args = p.parse_args()
    if args.smoke:
        return smoke_mode(args)
    if args.update_reference:
        return update_reference(args)
    if args.workload:
        single_workload_mode(args)
        return 0
    return full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
