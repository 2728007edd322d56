#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "est/estimator.hpp"
#include "fault/fault_plan.hpp"

namespace cocoa::exp {

/// One (backend, fault-plan) cell of the comparative sweep: how an estimator
/// backend trades accuracy, availability and per-fix CPU under a given fault
/// regime. Everything except fix_cpu_ns is a deterministic fold over the
/// cell's replications.
struct BackendCell {
    est::Backend backend = est::Backend::Grid;
    std::string plan;  ///< "baseline", "loss-p0.5", "crash-5", ...
    int reps = 0;

    double avg_error_m = 0.0;     ///< mean over replications
    double steady_error_m = 0.0;  ///< mean over replications, post-warmup
    bool has_resilience = false;  ///< the plan injected faults
    double availability = 0.0;    ///< mean; only meaningful with resilience
    double avail_during = 0.0;    ///< mean over reps with in-fault samples
    double reacquire_s = 0.0;     ///< mean over reps that reacquired
    std::uint64_t fixes = 0;               ///< summed over reps + robots
    std::uint64_t windows_without_fix = 0; ///< summed over reps + robots
    /// Mean CPU cost of one window-end fix for this backend, measured on a
    /// standalone estimator against synthetic windows (measure_fix_cpu_ns).
    /// NOT deterministic — wall-clock, like the "simulation work" line.
    double fix_cpu_ns = 0.0;

    /// One-line machine-readable record, stable keys ("backend-json:" rows).
    std::string json() const;
};

/// Sweep shape: which backends, which fault plans, how many replications.
struct BackendSweepOptions {
    std::vector<est::Backend> backends = {est::Backend::Grid, est::Backend::Ekf,
                                          est::Backend::LinCvx};
    int n_reps = 3;
    int n_threads = 0;
    double avail_threshold_m = 10.0;

    /// Fault axes: anchor-crash counts and beacon-loss probabilities. Each
    /// value becomes one plan (plus the fault-free "baseline" plan).
    std::vector<int> crashed_anchors = {5, 10};
    std::vector<double> loss_probs = {0.25, 0.5, 0.9};
    /// Faults strike at this fraction of the run, in [0, 1).
    double fault_at_frac = 0.25;
    /// Loss bursts last this long.
    double loss_duration_s = 90.0;

    /// Also time per-fix CPU per backend (adds a small non-simulated
    /// measurement pass; wall-clock, excluded from determinism contracts).
    bool measure_cpu = true;

    /// Forwarded to ReplicationOptions::fork: each backend's plan cells
    /// share one warm pre-fault prefix per replication instead of
    /// re-simulating it per plan. Outputs are byte-identical either way.
    bool fork = true;
};

/// The sweep's fault plans: ("baseline", empty) + one loss plan per
/// loss_probs entry + one anchor-crash plan per crashed_anchors entry,
/// derived from `base` (duration, anchor count) and `options`.
std::vector<std::pair<std::string, fault::FaultPlan>> standard_backend_plans(
    const core::ScenarioConfig& base, const BackendSweepOptions& options);

/// Measures the mean CPU cost (ns) of one window-end fix for `backend`:
/// a standalone estimator fed `windows` synthetic deterministic beacon
/// windows (PDF table calibrated from base's channel config), built from
/// base's grid settings and estimator tuning. Collecting backends are timed
/// through compute_fix + apply_fix, continuous ones through observe_beacon
/// x k + end_window — the same work a window costs inside the agent. The
/// Odometry backend computes no fix and measures 0.
double measure_fix_cpu_ns(est::Backend backend, const core::ScenarioConfig& base,
                          int windows = 200);

/// Runs backends x standard_backend_plans(base) on the replication engine
/// (one shared run_sweep fan-out) and folds each cell. `base.estimator` is
/// overridden per cell. Cells are ordered backend-major, plan-minor.
std::vector<BackendCell> run_backend_sweep(const core::ScenarioConfig& base,
                                           const BackendSweepOptions& options = {});

}  // namespace cocoa::exp
