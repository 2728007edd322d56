#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "fault/fault_plan.hpp"

namespace cocoa::sim::ckpt {
class Writer;
class Reader;
}  // namespace cocoa::sim::ckpt

namespace cocoa::fault {

/// Resilience metrics of one faulted run, computed from the scenario's
/// per-robot error series against the plan's fault intervals. Every field is
/// a deterministic function of (config, seed, plan) — folded in node/sample
/// order, so replication aggregates are byte-identical at any thread count.
struct ResilienceReport {
    double avail_threshold_m = 10.0;

    /// Fraction of blind-robot samples with error <= threshold, overall and
    /// split by phase: before the first fault strikes, while any fault
    /// interval is in effect, and after (between/past the intervals).
    double availability = 0.0;
    double avail_before = 0.0;
    double avail_during = 0.0;
    double avail_after = 0.0;
    std::uint64_t samples_total = 0;
    std::uint64_t samples_before = 0;
    std::uint64_t samples_during = 0;
    std::uint64_t samples_after = 0;

    /// Error quantiles during vs after the fault intervals (nullopt when the
    /// phase holds no samples).
    std::optional<double> p50_during_m;
    std::optional<double> p90_during_m;
    std::optional<double> p50_after_m;
    std::optional<double> p90_after_m;

    /// Time-to-reacquire a fix after a reboot/outage ends, averaged over the
    /// recoveries that did reacquire before the run ended (sample-interval
    /// granularity; every estimator but Odometry, which counts no fixes).
    double mean_reacquire_s = 0.0;
    std::uint64_t reacquired = 0;
    std::uint64_t never_reacquired = 0;
};

/// Realizes a FaultPlan against one Scenario as sim-kernel events: call
/// arm() once before running. With an empty plan, arm() does nothing at all
/// — no events, no counters, no registry entries — so a plan-less run is
/// byte-identical to one without the injector (the zero-overhead contract).
///
/// The injector registers the fault kinds' handlers with the scenario's
/// simulator, so at most one injector serves a scenario. It must outlive the
/// scenario run (its handlers and scheduled callbacks point back into it);
/// construct both on the same scope.
class FaultInjector {
  public:
    struct Stats {
        std::uint64_t crashes = 0;            ///< permanent power-offs
        std::uint64_t reboots = 0;            ///< revivals after downtime
        std::uint64_t outages = 0;            ///< transient outages begun
        std::uint64_t loss_bursts = 0;        ///< medium bursts activated
        std::uint64_t clock_drifts = 0;
        std::uint64_t odometry_degrades = 0;
        std::uint64_t battery_deaths = 0;
        std::uint64_t reacquired = 0;         ///< post-recovery fixes observed
    };

    /// Validates the plan against the scenario (node ids in range), then
    /// registers the handlers of the four fault kinds, which a restore needs
    /// before the scenario's kernel reloads. Throws std::invalid_argument on
    /// a bad plan.
    FaultInjector(core::Scenario& scenario, FaultPlan plan);

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /// Schedules every fault of the plan and registers the fault.* counters.
    /// Call exactly once, before running the scenario past the first fault
    /// time. No-op for an empty plan. Throws std::logic_error on re-arm.
    void arm();

    /// Arms against a scenario restored from a shared warm prefix: identical
    /// to arm() except the plan's kernel events take sequence numbers
    /// reserved *below* every pending event's, one per kernel_events()
    /// entry, reproducing the straight run's arm-before-run FIFO order, and
    /// peak_pending is bumped by the armed count (a straight run carries
    /// those events as pending from t=0). Returns false — caller must fall
    /// back to an unforked run, nothing is armed — when the prefix left too
    /// few seqs below its pending window.
    bool arm_forked();

    const FaultPlan& plan() const { return plan_; }
    const Stats& stats() const { return stats_; }

    /// Fault intervals as realized: static ones (crash/reboot/outage/loss)
    /// recorded at arm() time, battery deaths when they happen. Pairs of
    /// [strike, recovery]; permanent faults end at TimePoint::max().
    const std::vector<std::pair<sim::TimePoint, sim::TimePoint>>& realized_intervals()
        const {
        return intervals_;
    }

    /// Computes the resilience metrics from a finished run's result.
    ResilienceReport report(const core::ScenarioResult& result) const;

    /// Checkpoint walk (sim/checkpoint.hpp): the armed flag, realized
    /// intervals and counters. A restore also re-registers the fault.*
    /// counters (when armed on a non-empty plan) without scheduling anything
    /// — pending fault events come back through the kernel blob via the
    /// handlers, and loss bursts through the medium's own state.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& f);

  private:
    struct KernelEvent {
        sim::TimePoint at;
        sim::EventTag tag;
    };

    void register_counters();
    /// The plan's kernel events in scheduling order: per plan event, per
    /// target node, its strike (a watch for battery faults), then its
    /// recovery for reboots, outages and timed odometry faults. Times before
    /// now() are clamped to it.
    std::vector<KernelEvent> kernel_events() const;
    /// The intervals and loss bursts known at arm time, once per plan event
    /// in plan order.
    void record_static_faults();
    /// The handler of the four fault kinds, live and restored. Throws
    /// std::runtime_error for a tag naming no robot, no plan event, a node
    /// the plan event does not target, or a kind the plan event lacks.
    sim::InplaceCallback event(const sim::EventTag& tag);
    void strike(std::size_t idx, int id);
    void recover(std::size_t idx, int id);
    void battery_watch(std::size_t idx, int id);
    void start_reacquire_watch(int node);
    /// One poll of a watch (node = robot, a = recovery time in ns, b = its
    /// fix count then); re-arms itself with the same tag until a fix lands.
    void poll_reacquire(const sim::EventTag& poll);

    core::Scenario& scenario_;
    FaultPlan plan_;
    bool armed_ = false;
    Stats stats_;
    std::vector<std::pair<sim::TimePoint, sim::TimePoint>> intervals_;
    std::uint64_t watches_started_ = 0;
    double reacquire_s_sum_ = 0.0;
};

}  // namespace cocoa::fault
