#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.hpp"
#include "metrics/time_series.hpp"
#include "multicast/odmrp.hpp"
#include "net/node.hpp"
#include "obs/obs.hpp"
#include "phy/channel.hpp"
#include "phy/pdf_table.hpp"
#include "sim/thread_pool.hpp"

namespace cocoa::sim::ckpt {
class CallbackRegistry;
}  // namespace cocoa::sim::ckpt

namespace cocoa::core {

/// Full experiment configuration: one of the paper's simulation runs.
/// Defaults reproduce the common setup of §4: 50 robots in a 200 m x 200 m
/// (40 000 m^2) area, half of them anchors, 30 simulated minutes, T = 100 s,
/// t = 3 s, k = 3.
struct ScenarioConfig {
    std::uint64_t seed = 1;

    double area_side_m = 200.0;
    int num_robots = 50;
    int num_anchors = 25;     ///< ignored (all blind) in OdometryOnly mode
    double min_speed = 0.1;   ///< m/s
    double max_speed = 2.0;   ///< m/s; the paper evaluates 0.5 and 2.0
    sim::Duration duration = sim::Duration::minutes(30);

    LocalizationMode mode = LocalizationMode::Combined;
    SyncMode sync = SyncMode::Mrmm;
    bool sleep_coordination = true;

    sim::Duration period = sim::Duration::seconds(100.0);  ///< T
    sim::Duration window = sim::Duration::seconds(3.0);    ///< t
    int beacons_per_window = 3;                            ///< k
    int min_beacons_for_fix = 3;

    RfTechnique technique = RfTechnique::BayesianGrid;
    /// Combined-mode belief backend (see AgentConfig::estimator and
    /// docs/estimators.md). Non-grid backends require mode == Combined.
    est::Backend estimator = est::Backend::Grid;
    double cell_m = 2.0;
    double floor_fraction = 0.01;
    /// EKF-mode tuning (see AgentConfig).
    double ekf_q_displacement_frac = 0.1;
    double ekf_q_floor_var_per_s = 0.6;
    double ekf_gate_sigmas = 4.0;
    bool ekf_use_non_gaussian_bins = true;
    double ekf_min_range_sigma_m = 2.0;
    double ekf_reject_inflation_var = 2.0;
    double ekf_missed_window_var = 4.0;
    int lincvx_min_beacons = 1;
    double beacon_rssi_cutoff_dbm = -std::numeric_limits<double>::infinity();
    bool use_non_gaussian_bins = true;

    mobility::OdometryConfig odometry;
    phy::ChannelConfig channel;
    phy::CalibrationConfig calibration;
    energy::PowerProfile power;
    mac::MacConfig mac;
    mac::MediumConfig medium;
    multicast::MulticastConfig multicast;  ///< auto_refresh is forced off

    sim::Duration tick = sim::Duration::seconds(0.5);
    sim::Duration sample_interval = sim::Duration::seconds(1.0);

    sim::Duration wake_guard = sim::Duration::seconds(1.0);
    sim::Duration window_slack = sim::Duration::seconds(0.5);
    double clock_skew_sigma_s = 0.1;
    double sync_residual_sigma_s = 0.02;
    double anchor_position_sigma_m = 0.25;
    bool heading_correction_at_fix = true;
    bool initial_pose_known = false;  ///< forced on in OdometryOnly mode
    /// §6 extension: confidently-localized blind robots also beacon.
    bool blind_beaconing = false;
    double blind_beacon_max_spread_m = 8.0;
    /// Robustness extension: this many robots (after the primary, node 0)
    /// act as ranked Sync-robot backups and take over if SYNCs go silent.
    int sync_backups = 2;

    /// Worker threads for batched window-end grid updates: each blind
    /// robot's Bayesian fix runs as a pool task, so a beacon round costs
    /// roughly the slowest robot's grid update instead of the sum over
    /// robots. 0 = compute fixes inline on the event thread (the default);
    /// < 0 = one worker per hardware thread. Every setting produces
    /// byte-identical results (see AgentConfig::fix_pool).
    int grid_update_threads = 0;

    /// Throws std::invalid_argument on inconsistent settings.
    void validate() const;
};

/// Team energy, summed over all radios, in millijoules.
struct EnergyBreakdown {
    double tx_mj = 0.0;
    double rx_mj = 0.0;
    double idle_mj = 0.0;
    double sleep_mj = 0.0;
    double transitions_mj = 0.0;
    double total_mj() const { return tx_mj + rx_mj + idle_mj + sleep_mj + transitions_mj; }
};

/// Everything a bench needs to print a figure.
struct ScenarioResult {
    /// Average localization error over blind robots, sampled each second —
    /// the y-axis of Figures 4, 6, 7 and 9(a).
    metrics::TimeSeries avg_error;
    /// Per-robot error series (empty for anchors) — Figure 8's CDFs cut
    /// through these at fixed instants.
    std::vector<metrics::TimeSeries> node_error;

    EnergyBreakdown team_energy;
    mac::Medium::Stats medium_stats;
    multicast::MulticastNode::Stats multicast_stats;
    CocoaAgent::Stats agent_totals;
    RfLocalizer::Stats localizer_totals;
    std::uint64_t executed_events = 0;
    /// Full counter-registry snapshot (sorted by name) taken at result()
    /// time; replication aggregates fold these in index order so totals are
    /// byte-identical regardless of thread count.
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /// Error of every blind robot at time `t` (step-sampled).
    std::vector<double> errors_at(sim::TimePoint t) const;
};

/// Builds and runs one simulation: world, channel + PDF-table calibration,
/// multicast fleet (Mrmm mode), one CoCoA agent per robot, metric sampling.
class Scenario {
  public:
    /// `shared_table` skips the calibration phase and reuses an existing PDF
    /// table (fork/restore paths: the table is a pure function of (channel,
    /// calibration, seed), so a scenario built from the same config owns an
    /// identical one — sharing it avoids recalibrating per forked future).
    /// The RNG manager derives stream seeds statelessly, so skipping
    /// calibration perturbs no other stream.
    explicit Scenario(const ScenarioConfig& config,
                      std::shared_ptr<const phy::PdfTable> shared_table = nullptr);

    /// Runs to config.duration (or further calls run_until piecemeal).
    void run();
    void run_until(sim::TimePoint t);

    /// Collects results at the current simulation time.
    ScenarioResult result() const;

    const ScenarioConfig& config() const { return config_; }
    sim::Simulator& simulator() { return sim_; }
    net::World& world() { return *world_; }
    CocoaAgent& agent(net::NodeId id) { return *agents_.at(id); }
    std::size_t agent_count() const { return agents_.size(); }
    bool is_anchor(net::NodeId id) const;
    /// The node's multicast instance, or nullptr when the scenario runs
    /// without an MRMM fleet (PerfectClock / OdometryOnly). Fault injection
    /// uses this to drop a rebooted robot's ODMRP soft state.
    multicast::MulticastNode* multicast_node(net::NodeId id);
    const phy::PdfTable& pdf_table() const { return *table_; }
    std::shared_ptr<const phy::PdfTable> pdf_table_ptr() const { return table_; }
    /// The radial kernels every robot's grid shares: one per distinct PDF
    /// bin used so far (see GridConfig::kernels). Not checkpointed — a
    /// restored scenario rebuilds its kernels as beacons arrive.
    const KernelCache& kernel_cache() const { return *kernels_; }

    /// The observability context (counter registry + trace sink) shared by
    /// every subsystem of this scenario. Open obs().trace before running to
    /// record an event trace.
    obs::Obs& obs();
    const obs::Obs& obs() const;

    /// One recorded robot pose snapshot (true and estimated).
    struct PositionTraceRow {
        sim::TimePoint time;
        net::NodeId node;
        geom::Vec2 truth;
        geom::Vec2 estimate;
    };

    /// Starts recording every robot's true and estimated position each
    /// `interval` (call before running; safe mid-run too). Used for
    /// visualization / post-processing via write_position_trace_csv().
    void enable_position_trace(sim::Duration interval);
    const std::vector<PositionTraceRow>& position_trace() const { return trace_; }
    void write_position_trace_csv(std::ostream& os) const;

    /// Checkpoint: serializes the complete run state — every node's mobility
    /// and radio, the medium (frames in flight, loss bursts, pool warmth),
    /// the multicast fleet, every agent, the metric series and the kernel's
    /// pending-event queue — so a restored run is byte-identical to the
    /// straight run. Call only between events (after run_until returns).
    /// `extra_rebuilders` lets the caller register additional event kinds
    /// (the armed FaultInjector) before the kernel reloads.
    void save_state(sim::ckpt::Writer& w) const;
    void load_state(
        sim::ckpt::Reader& r,
        const std::function<void(sim::ckpt::CallbackRegistry&)>& extra_rebuilders = {});

  private:
    void register_rebuilders(sim::ckpt::CallbackRegistry& reg);
    void on_tick();
    void on_sample();
    void on_trace();

    ScenarioConfig config_;
    sim::Simulator sim_;
    phy::Channel channel_;
    std::shared_ptr<const phy::PdfTable> table_;
    std::shared_ptr<KernelCache> kernels_;
    std::unique_ptr<net::World> world_;
    std::optional<multicast::MulticastFleet> mcast_;
    /// Declared before agents_: an agent's destructor may still be waiting
    /// on (and folding in) a pooled fix job, so the pool must outlive them.
    std::unique_ptr<sim::ThreadPool> fix_pool_;
    std::vector<std::unique_ptr<CocoaAgent>> agents_;

    metrics::TimeSeries avg_error_;
    std::vector<metrics::TimeSeries> node_error_;
    std::vector<PositionTraceRow> trace_;
    sim::Duration trace_interval_ = sim::Duration::zero();
};

/// One-shot convenience wrapper: configure, run, collect.
ScenarioResult run_scenario(const ScenarioConfig& config);

}  // namespace cocoa::core
