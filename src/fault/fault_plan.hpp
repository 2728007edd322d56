#pragma once

#include <string>
#include <vector>

#include "sim/time.hpp"

namespace cocoa::fault {

/// The failure modes a plan can schedule. Each maps to one injection point:
/// Crash/Reboot/Outage act on a node's radio (core/mac), Loss on the shared
/// medium (phy burst), ClockDrift/OdometryDegrade on the agent's coordination
/// and dead-reckoning state (core/mobility), Battery on the energy model.
enum class FaultKind {
    Crash,            ///< permanent radio power-off at `at`
    Reboot,           ///< power-off at `at`, agent cold-restart after `duration`
    Outage,           ///< radio deaf/mute for `duration`, then recovers in place
    Loss,             ///< medium-level packet-loss / jamming burst
    ClockDrift,       ///< one-shot clock offset injected into a robot
    OdometryDegrade,  ///< odometry noise sigmas scaled by `scale`
    Battery,          ///< radio dies when its meter passes an energy budget
};
constexpr FaultKind last_enumerator(FaultKind) { return FaultKind::Battery; }

const char* to_string(FaultKind kind);

/// One timed fault. Which fields are meaningful depends on `kind`; validate()
/// enforces the combinations. Node-targeted faults may cover an inclusive id
/// range [node, node_end] (node_end < 0 means just `node`).
struct FaultEvent {
    FaultKind kind = FaultKind::Crash;
    sim::TimePoint at;                       ///< when the fault strikes
    sim::Duration duration = sim::Duration::zero();  ///< downtime / burst length
    int node = -1;
    int node_end = -1;
    double drop_prob = 0.0;       ///< Loss: extra per-receiver drop probability
    double attenuation_db = 0.0;  ///< Loss: RSSI penalty while the burst lasts
    double offset_s = 0.0;        ///< ClockDrift: seconds added to the clock error
    double scale = 1.0;           ///< OdometryDegrade: noise-sigma multiplier
    double budget_mj = 0.0;       ///< Battery: total energy before depletion

    int first_node() const { return node; }
    int last_node() const { return node_end < 0 ? node : node_end; }
};

/// A deterministic failure schedule: the full description of every fault a
/// run will experience, fixed before the simulation starts. Plans are built
/// programmatically, from `--fault` CLI specs, or from a small plan file; the
/// FaultInjector realizes them as sim-kernel events.
///
/// Spec grammar (one fault):   kind@T[+D][:key=value[,key=value...]]
///   kind   crash | reboot | outage | loss | jam | drift | odo | battery
///   T      strike time in simulated seconds; +D an optional duration
///   keys   node=<id>  nodes=<a>-<b>  p=<drop prob>  db=<attenuation>
///          s=<clock offset s>  scale=<sigma multiplier>
///          budget_mj=<mJ> | budget_kj=<kJ>
/// Several faults separated by ';' form a plan; a plan file holds one spec
/// per line ('#' starts a comment). `jam` is `loss` with a mandatory db and
/// p defaulting to 0.
struct FaultPlan {
    std::vector<FaultEvent> events;
    /// A blind robot counts as "localized" while its error is below this;
    /// the availability metrics in ResilienceReport are fractions of samples
    /// under the threshold.
    double avail_threshold_m = 10.0;
    /// Polling interval of the battery-budget watchdog.
    sim::Duration battery_check = sim::Duration::seconds(1.0);

    bool empty() const { return events.empty(); }

    /// Throws std::invalid_argument on any ill-formed event (bad field
    /// combination for its kind, non-positive duration where one is
    /// required, probabilities outside [0, 1], inverted node ranges).
    void validate() const;

    /// Parses one `kind@T[+D][:k=v,...]` spec. Throws std::invalid_argument
    /// with the offending spec quoted.
    static FaultEvent parse_spec(const std::string& spec);
    /// Parses a ';'-separated spec list into a validated plan.
    static FaultPlan parse(const std::string& specs);
    /// Parses a plan file (one spec per line, '#' comments, blank lines ok).
    /// Throws std::runtime_error if the file cannot be read.
    static FaultPlan parse_file(const std::string& path);

    /// One line per event, for logs and --fault echo.
    std::string summary() const;
};

/// Convenience plan: permanently crash `crashed` of `num_anchors` anchors at
/// `at`, highest ids first — so the sync robot (node 0) dies last and the
/// sweep isolates anchor-count degradation from sync failover. Used by the
/// resilience sweep.
FaultPlan anchor_crash_plan(int num_anchors, int crashed, sim::TimePoint at);

}  // namespace cocoa::fault
