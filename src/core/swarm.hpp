#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/energy.hpp"
#include "geom/vec2.hpp"
#include "mac/medium.hpp"
#include "net/node.hpp"
#include "phy/channel.hpp"
#include "sim/thread_pool.hpp"
#include "sim/time.hpp"

namespace cocoa::sim::ckpt {
class Writer;
class Reader;
class CallbackRegistry;
}  // namespace cocoa::sim::ckpt

namespace cocoa::core {

/// Large-N scenario family (`cocoa_sim --nodes`): a city-scale swarm of
/// duty-cycled beaconing radios at the paper's fig7 node density, exercising
/// the MAC/medium layers — CSMA, frame fanout, carrier sense, incremental
/// spatial-index migrations — without the per-node localization machinery
/// (whose grids would not fit 100k nodes and whose cost would mask the
/// medium's). The deployment area grows as sqrt(nodes) so density (and thus
/// per-frame neighbourhood size) stays constant: a medium whose fanout is
/// O(neighbors) runs this family in near-linear time, which is exactly what
/// the CI scaling job asserts.
struct SwarmConfig {
    int nodes = 1000;
    std::uint64_t seed = 7;
    sim::Duration duration = sim::Duration::seconds(20.0);
    /// Every node beacons once per period, at a deterministic per-node phase
    /// spread uniformly across the period (sparse duty cycling: the air is
    /// never globally synchronized).
    sim::Duration beacon_period = sim::Duration::seconds(1.0);
    /// How long a node stays awake around its beacon before going back to
    /// sleep (duty cycle = awake_window / beacon_period).
    sim::Duration awake_window = sim::Duration::millis(50.0);
    /// Random-waypoint positions advance (and the spatial index migrates)
    /// once per tick for every node.
    sim::Duration mobility_tick = sim::Duration::seconds(1.0);
    /// Paper density: fig7's 50 robots on a 200 m square.
    double density_per_m2 = 50.0 / (200.0 * 200.0);
    double min_speed = 0.5;   ///< m/s
    double max_speed = 2.0;   ///< m/s
    /// Waypoint "task" pause at each destination (zero = continuous motion,
    /// the default). Resting robots produce zero-forward increments, which
    /// the mobility ticker skips entirely — a resting robot costs no
    /// spatial-index traffic.
    sim::Duration min_pause = sim::Duration::zero();
    sim::Duration max_pause = sim::Duration::zero();
    std::size_t beacon_bytes = 24;
    /// Workers for the sharded mobility tick (`cocoa_sim --swarm-threads`):
    /// 0 = inline (no pool), -1 = all hardware threads, N = N workers.
    /// Workers integrate disjoint node ranges' positions concurrently; the
    /// spatial-index migrations are folded afterwards in ascending node
    /// order, so output is byte-identical at any value — the same
    /// resolution-point pattern as ScenarioConfig::grid_update_threads.
    int mobility_threads = 0;
    /// Record every node's final position in SwarmResult::final_positions
    /// (identity tests compare them across thread counts and culling).
    bool collect_final_positions = false;
    /// Low-power swarm radios: -5 dBm tx keeps the influence radius ~127 m
    /// (~60 sense-range neighbours at fig7 density) instead of the paper
    /// rig's 1.3 km, so "O(neighbors)" is a local quantity and the family
    /// scales linearly in node count at constant density.
    phy::ChannelConfig channel{.tx_power_dbm = -5.0};
    /// register_node_counters is forced off by run_swarm (a 100k-node
    /// registry would hold ~1M names); culling flows through so tests can
    /// pit the culled fanout against the unculled sweep in-process.
    mac::MediumConfig medium;
    energy::PowerProfile power = energy::PowerProfile::wavelan();

    /// Side of the square deployment area for the configured density.
    double area_side_m() const;
    void validate() const;
};

struct SwarmResult {
    int nodes = 0;
    double area_side_m = 0.0;
    double sim_seconds = 0.0;
    std::uint64_t executed_events = 0;
    mac::Medium::Stats medium_stats;
    mac::spatial::CellTreeStats index_stats;
    mac::spatial::RadiusCacheStats radius_cache_stats;
    std::uint64_t frames_delivered = 0;  ///< rx_delivered summed over nodes
    /// Filled only when SwarmConfig::collect_final_positions is set.
    std::vector<geom::Vec2> final_positions;
};

/// The swarm engine behind run_swarm(), held open so callers can run it
/// piecemeal and checkpoint it mid-flight. Construction builds the world and
/// schedules every node's duty cycle plus the global mobility tick; run()
/// advances to the configured duration. Deterministic for a given config
/// (byte-identical across culling settings and mobility-thread counts, like
/// every other scenario in the repo).
class Swarm {
  public:
    explicit Swarm(const SwarmConfig& config);

    Swarm(const Swarm&) = delete;
    Swarm& operator=(const Swarm&) = delete;

    void run();
    void run_until(sim::TimePoint t);
    SwarmResult result() const;

    const SwarmConfig& config() const { return config_; }
    sim::Simulator& simulator() { return sim_; }
    net::World& world() { return *world_; }

    /// Checkpoint: mobility, radios, medium (frames in flight, pool warmth)
    /// and the kernel's pending events. The duty-cycle and mobility-tick
    /// callbacks themselves carry no state beyond their tags, so restore
    /// rebuilds them wholesale. Call only between events.
    void save_state(sim::ckpt::Writer& w) const;
    void load_state(sim::ckpt::Reader& r);

  private:
    void beacon(int i);
    void doze(int i);
    void on_mobility_tick();
    void register_rebuilders(sim::ckpt::CallbackRegistry& reg);

    SwarmConfig config_;
    sim::Simulator sim_;
    phy::Channel channel_;
    std::unique_ptr<net::World> world_;
    std::unique_ptr<sim::ThreadPool> mobility_pool_;
    std::vector<std::uint8_t> moved_flags_;
};

/// Runs one swarm scenario to completion.
SwarmResult run_swarm(const SwarmConfig& config);

}  // namespace cocoa::core
