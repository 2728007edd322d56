#include "core/swarm.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "mobility/waypoint.hpp"
#include "net/packet_io.hpp"
#include "sim/checkpoint.hpp"
#include "sim/event_tag.hpp"
#include "sim/simulator.hpp"

namespace cocoa::core {

double SwarmConfig::area_side_m() const {
    return std::sqrt(static_cast<double>(nodes) / density_per_m2);
}

void SwarmConfig::validate() const {
    if (nodes < 2) throw std::invalid_argument("SwarmConfig: nodes >= 2");
    if (density_per_m2 <= 0.0) throw std::invalid_argument("SwarmConfig: positive density");
    if (duration <= sim::Duration::zero() || beacon_period <= sim::Duration::zero() ||
        mobility_tick <= sim::Duration::zero()) {
        throw std::invalid_argument("SwarmConfig: positive durations");
    }
    if (awake_window <= sim::Duration::zero() || awake_window >= beacon_period) {
        throw std::invalid_argument("SwarmConfig: need 0 < awake_window < beacon_period");
    }
    if (min_speed <= 0.0 || max_speed < min_speed) {
        throw std::invalid_argument("SwarmConfig: need 0 < min_speed <= max_speed");
    }
    if (min_pause.is_negative() || max_pause < min_pause) {
        throw std::invalid_argument("SwarmConfig: need 0 <= min_pause <= max_pause");
    }
    if (mobility_threads < -1) {
        throw std::invalid_argument("SwarmConfig: mobility_threads >= -1");
    }
}

Swarm::Swarm(const SwarmConfig& config)
    : config_(config), sim_(config.seed), channel_(config.channel) {
    config_.validate();

    mac::MediumConfig medium_config = config_.medium;
    medium_config.register_node_counters = false;
    world_ = std::make_unique<net::World>(sim_, channel_, medium_config);

    const double side = config_.area_side_m();
    mobility::WaypointConfig mobility_config;
    mobility_config.area = geom::Rect::square(side);
    mobility_config.min_speed = config_.min_speed;
    mobility_config.max_speed = config_.max_speed;
    mobility_config.min_pause = config_.min_pause;
    mobility_config.max_pause = config_.max_pause;

    for (int i = 0; i < config_.nodes; ++i) {
        world_->add_node(mobility_config, config_.power);
    }

    // One beacon per node per period, phases spread deterministically across
    // the period so the air (and the event queue) never sees a global spike.
    sim::RandomStream phase_rng = sim_.rng().stream("swarm.phase");
    for (int i = 0; i < config_.nodes; ++i) {
        net::Node& node = world_->node(static_cast<net::NodeId>(i));
        const double phase_s =
            phase_rng.uniform(0.0, config_.beacon_period.to_seconds());
        sim_.schedule_in(
            sim::Duration::seconds(phase_s), [this, i] { beacon(i); },
            sim::make_tag(sim::EventKind::kSwarmBeacon,
                          static_cast<std::uint32_t>(i)));
        // Nodes are born asleep: the duty cycle owns all wake windows.
        node.radio().sleep();
    }

    // Global mobility tick: advance every node's waypoint motion and migrate
    // its spatial-index entry — the incremental note_position_moved path, one
    // O(1) update per node per tick, never a bulk invalidation.
    if (config_.mobility_threads != 0) {
        mobility_pool_ = std::make_unique<sim::ThreadPool>(
            sim::ThreadPool::resolve_threads(config_.mobility_threads));
        moved_flags_.resize(static_cast<std::size_t>(config_.nodes), 0);
    }
    sim_.schedule_in(config_.mobility_tick, [this] { on_mobility_tick(); },
                     sim::make_tag(sim::EventKind::kSwarmMobilityTick));
}

/// Drives one node's duty cycle: wake at its beacon phase, transmit one
/// beacon, sleep again once the radio drained its queue. Self-rescheduling.
void Swarm::beacon(int i) {
    net::Node& node = world_->node(static_cast<net::NodeId>(i));
    sim_.schedule_in(config_.beacon_period, [this, i] { beacon(i); },
                     sim::make_tag(sim::EventKind::kSwarmBeacon,
                                   static_cast<std::uint32_t>(i)));
    mac::Radio& radio = node.radio();
    if (radio.is_off() || radio.in_outage()) return;  // fault subsystem owns it
    radio.wake();
    net::BeaconPayload payload;
    payload.anchor_id = node.id();
    payload.anchor_position = node.mobility().position();
    net::Packet packet;
    packet.port = net::Port::Beacon;
    packet.payload_bytes = config_.beacon_bytes;
    packet.payload = payload;
    radio.send(std::move(packet));
    sim_.schedule_in(config_.awake_window, [this, i] { doze(i); },
                     sim::make_tag(sim::EventKind::kSwarmDoze,
                                   static_cast<std::uint32_t>(i)));
}

void Swarm::doze(int i) {
    mac::Radio& radio = world_->node(static_cast<net::NodeId>(i)).radio();
    if (radio.is_off() || radio.in_outage() || !radio.awake()) return;
    if (radio.state() == energy::RadioState::Tx || radio.tx_queue_depth() > 0) {
        // Congested neighbourhood: the beacon is still queued or on the
        // air (sleep() mid-transmission is a logic error). Check back in
        // a little while.
        sim_.schedule_in(config_.awake_window, [this, i] { doze(i); },
                         sim::make_tag(sim::EventKind::kSwarmDoze,
                                       static_cast<std::uint32_t>(i)));
        return;
    }
    radio.sleep();
}

// With mobility_threads != 0 the position integration is sharded across a
// thread pool: workers advance disjoint contiguous node ranges (per-robot
// state + per-robot RNG only, so no sharing) and record who moved; the
// index migrations — the only shared-state side effect — are then folded
// on the simulation thread in ascending node order, exactly the sequence
// the inline path produces. Byte-identical at any worker count.
void Swarm::on_mobility_tick() {
    const sim::TimePoint now = sim_.now();
    const auto& nodes = world_->nodes();
    if (mobility_pool_ == nullptr) {
        for (const auto& node : nodes) {
            // Paused (or turn-in-place) robots kept their position:
            // no index work to do, no reason to touch the tree entry.
            if (node->mobility().advance_position_to(now)) {
                world_->medium().note_position_moved(node->radio());
            }
        }
    } else {
        const std::size_t n = nodes.size();
        const std::size_t chunk =
            (n + mobility_pool_->size() - 1) / mobility_pool_->size();
        const auto* nodes_p = &nodes;
        auto* flags = &moved_flags_;
        for (std::size_t begin = 0; begin < n; begin += chunk) {
            const std::size_t end = std::min(n, begin + chunk);
            mobility_pool_->submit([nodes_p, flags, begin, end, now] {
                for (std::size_t i = begin; i < end; ++i) {
                    (*flags)[i] =
                        (*nodes_p)[i]->mobility().advance_position_to(now) ? 1 : 0;
                }
            });
        }
        mobility_pool_->wait_idle();
        for (std::size_t i = 0; i < n; ++i) {
            if (moved_flags_[i] != 0) {
                world_->medium().note_position_moved(nodes[i]->radio());
            }
        }
    }
    sim_.schedule_in(config_.mobility_tick, [this] { on_mobility_tick(); },
                     sim::make_tag(sim::EventKind::kSwarmMobilityTick));
}

void Swarm::run() { run_until(sim::TimePoint::origin() + config_.duration); }

void Swarm::run_until(sim::TimePoint t) { sim_.run_until(t); }

SwarmResult Swarm::result() const {
    SwarmResult result;
    result.nodes = config_.nodes;
    result.area_side_m = config_.area_side_m();
    result.sim_seconds = config_.duration.to_seconds();
    result.executed_events = sim_.executed_events();
    result.medium_stats = world_->medium().stats();
    result.index_stats = world_->medium().index_stats();
    result.radius_cache_stats = world_->medium().radius_cache_stats();
    for (const auto& node : world_->nodes()) {
        result.frames_delivered += node->radio().stats().rx_delivered;
    }
    if (config_.collect_final_positions) {
        result.final_positions.reserve(static_cast<std::size_t>(config_.nodes));
        for (const auto& node : world_->nodes()) {
            result.final_positions.push_back(node->mobility().position());
        }
    }
    return result;
}

namespace {
constexpr std::uint32_t kMarkSwarm = 0x5357524du;  // "SWRM"
constexpr std::uint32_t kMarkSwarmEnd = 0x4d525753u;
}  // namespace

void Swarm::save_state(sim::ckpt::Writer& w) const {
    w.mark(kMarkSwarm);
    net::PacketSaveCtx pkts;
    for (const auto& node : world_->nodes()) {
        node->mobility().save(w);
    }
    world_->medium().save_state(w, pkts);
    for (const auto& node : world_->nodes()) {
        node->radio().save_state(w, pkts);
    }
    sim_.save_kernel(w);
    world_->medium().save_pool_warmth(w);
    w.mark(kMarkSwarmEnd);
}

void Swarm::register_rebuilders(sim::ckpt::CallbackRegistry& reg) {
    reg.add(sim::EventKind::kSwarmBeacon, [this](const sim::EventTag& tag) {
        const int i = static_cast<int>(tag.node);
        return sim::InplaceCallback([this, i] { beacon(i); });
    });
    reg.add(sim::EventKind::kSwarmDoze, [this](const sim::EventTag& tag) {
        const int i = static_cast<int>(tag.node);
        return sim::InplaceCallback([this, i] { doze(i); });
    });
    reg.add(sim::EventKind::kSwarmMobilityTick, [this](const sim::EventTag&) {
        return sim::InplaceCallback([this] { on_mobility_tick(); });
    });
    world_->medium().register_rebuilders(reg);
}

void Swarm::load_state(sim::ckpt::Reader& r) {
    sim_.clear_pending();
    r.expect(kMarkSwarm);
    net::PacketLoadCtx pkts;
    pkts.pool = &world_->medium().packet_pool();
    for (const auto& node : world_->nodes()) {
        node->mobility().load(r);
    }
    world_->medium().load_state(r, pkts);
    for (const auto& node : world_->nodes()) {
        node->radio().load_state(r, pkts);
    }
    sim::ckpt::CallbackRegistry reg;
    register_rebuilders(reg);
    sim_.load_kernel(r, reg);
    world_->medium().load_pool_warmth(r);
    world_->medium().finish_restore();
    r.expect(kMarkSwarmEnd);
}

SwarmResult run_swarm(const SwarmConfig& config) {
    Swarm swarm(config);
    swarm.run();
    return swarm.result();
}

}  // namespace cocoa::core
