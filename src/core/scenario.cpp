#include "core/scenario.hpp"

#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/checkpoint.hpp"
#include "sim/event_tag.hpp"

namespace cocoa::core {

void ScenarioConfig::validate() const {
    sim::fields::check(*this, "ScenarioConfig");
    calibration.validate("ScenarioConfig", "calibration.");
    if (num_anchors > num_robots) {
        throw std::invalid_argument("ScenarioConfig: need num_anchors <= num_robots");
    }
    if (estimator != est::Backend::Odometry && num_anchors < 1) {
        throw std::invalid_argument(
            "ScenarioConfig: RF estimators need at least one anchor");
    }
    if (window >= period) {
        throw std::invalid_argument("ScenarioConfig: need window < period");
    }
    if (max_speed < min_speed) {
        throw std::invalid_argument("ScenarioConfig: need min_speed <= max_speed");
    }
}

Scenario::Scenario(const ScenarioConfig& config,
                   std::shared_ptr<const phy::PdfTable> shared_table)
    // Validated before channel_ is built from it, so a bad field is named by
    // its path.
    : config_((config.validate(), config)),
      sim_(config.seed),
      channel_(config.channel),
      kernels_(std::make_shared<KernelCache>()) {
    // Offline calibration phase (§2.2): build the PDF Table once; every robot
    // stores a copy (here: shares an immutable one). A caller that already
    // owns the table for this (channel, calibration, seed) passes it in.
    if (shared_table != nullptr) {
        table_ = std::move(shared_table);
    } else {
        obs::ProfileScope profile("scenario.calibrate");
        table_ = std::make_shared<const phy::PdfTable>(phy::PdfTable::calibrate(
            channel_, config_.calibration, sim_.rng().stream("calibration")));
    }

    world_ = std::make_unique<net::World>(sim_, channel_, config_.medium);

    mobility::WaypointConfig mobility_config;
    mobility_config.area = geom::Rect::square(config_.area_side_m);
    mobility_config.min_speed = config_.min_speed;
    mobility_config.max_speed = config_.max_speed;

    for (int i = 0; i < config_.num_robots; ++i) {
        world_->add_node(mobility_config, config_.power, config_.mac);
    }

    const bool use_mrmm = config_.sync == SyncMode::Mrmm &&
                          config_.estimator != est::Backend::Odometry;
    if (use_mrmm) {
        multicast::MulticastConfig mc = config_.multicast;
        mc.auto_refresh = false;  // CoCoA drives refreshes at period starts
        mcast_.emplace(*world_, mc);
    }

    GridConfig grid;
    grid.area = mobility_config.area;
    grid.cell_m = config_.cell_m;
    grid.floor_fraction = config_.floor_fraction;
    grid.kernels = kernels_;

    if (config_.grid_update_threads != 0) {
        fix_pool_ = std::make_unique<sim::ThreadPool>(config_.grid_update_threads);
    }

    for (int i = 0; i < config_.num_robots; ++i) {
        AgentConfig ac;
        ac.role = is_anchor(static_cast<net::NodeId>(i)) ? Role::Anchor : Role::Blind;
        ac.estimator = config_.estimator;
        ac.sync = use_mrmm ? SyncMode::Mrmm : SyncMode::PerfectClock;
        ac.period = config_.period;
        ac.window = config_.window;
        ac.beacons_per_window = config_.beacons_per_window;
        ac.grid = grid;
        ac.odometry = config_.odometry;
        ac.tuning = config_.tuning;
        ac.sleep_coordination = config_.sleep_coordination;
        ac.wake_guard = config_.wake_guard;
        ac.window_slack = config_.window_slack;
        ac.clock_skew_sigma_s = config_.clock_skew_sigma_s;
        ac.sync_residual_sigma_s = config_.sync_residual_sigma_s;
        ac.anchor_position_sigma_m = config_.anchor_position_sigma_m;
        ac.heading_correction_at_fix = config_.heading_correction_at_fix;
        ac.blind_beaconing = config_.blind_beaconing;
        ac.blind_beacon_max_spread_m = config_.blind_beacon_max_spread_m;
        ac.initial_pose_known = config_.initial_pose_known ||
                                config_.estimator == est::Backend::Odometry;
        ac.fix_pool = fix_pool_.get();

        multicast::MulticastNode* mcast_node =
            use_mrmm ? &mcast_->at(static_cast<net::NodeId>(i)) : nullptr;
        const bool is_sync_robot = use_mrmm && i == 0;
        if (use_mrmm) {
            if (i == 0) {
                ac.sync_rank = 0;
            } else if (i <= config_.sync_backups) {
                ac.sync_rank = i;
            }
        }
        agents_.push_back(std::make_unique<CocoaAgent>(
            world_->node(static_cast<net::NodeId>(i)), ac, table_, mcast_node,
            is_sync_robot));
    }

    node_error_.resize(static_cast<std::size_t>(config_.num_robots));

    // One handler per kind this scenario owns, the agents' kinds routed by
    // node id; each builds the live event and the one a restore re-creates.
    sim_.on(sim::EventKind::kScenarioTick, [this](const sim::EventTag&) {
        return sim::InplaceCallback([this] { on_tick(); });
    });
    sim_.on(sim::EventKind::kScenarioSample, [this](const sim::EventTag&) {
        return sim::InplaceCallback([this] { on_sample(); });
    });
    sim_.on(sim::EventKind::kScenarioTrace, [this](const sim::EventTag&) {
        if (trace_interval_ <= sim::Duration::zero()) {
            throw std::runtime_error("the position trace interval " +
                                     std::to_string(trace_interval_.to_nanos()) +
                                     " ns is not positive");
        }
        return sim::InplaceCallback([this] { on_trace(); });
    });
    for (const sim::EventKind kind :
         {sim::EventKind::kAgentWake, sim::EventKind::kAgentSyncSettle,
          sim::EventKind::kAgentBeacon, sim::EventKind::kAgentWindowEnd}) {
        sim_.on(kind, [this](const sim::EventTag& tag) {
            if (tag.node >= agents_.size()) {
                throw std::runtime_error("robot " + std::to_string(tag.node) +
                                         " does not exist");
            }
            return agents_[tag.node]->event(tag);
        });
    }

    for (auto& agent : agents_) agent->start();

    // Tick loop (mobility/odometry granularity) and metric sampling. The tick
    // event is scheduled first so that at coinciding times motion is advanced
    // before errors are read.
    sim_.schedule_in(config_.tick, sim::make_tag(sim::EventKind::kScenarioTick));
    sim_.schedule_in(config_.sample_interval, sim::make_tag(sim::EventKind::kScenarioSample));
}

multicast::MulticastNode* Scenario::multicast_node(net::NodeId id) {
    return mcast_.has_value() ? &mcast_->at(id) : nullptr;
}

bool Scenario::is_anchor(net::NodeId id) const {
    if (config_.estimator == est::Backend::Odometry) return false;
    return id < static_cast<net::NodeId>(config_.num_anchors);
}

void Scenario::on_tick() {
    for (auto& agent : agents_) agent->tick();
    sim_.schedule_in(config_.tick, sim::make_tag(sim::EventKind::kScenarioTick));
}

void Scenario::on_sample() {
    metrics::RunningStat blind_errors;
    for (auto& agent : agents_) {
        agent->tick();
        if (agent->role() != Role::Blind) continue;
        const double err = agent->error();
        blind_errors.add(err);
        node_error_[agent->id()].push(sim_.now(), err);
    }
    if (!blind_errors.empty()) {
        avg_error_.push(sim_.now(), blind_errors.mean());
    }
    sim_.schedule_in(config_.sample_interval, sim::make_tag(sim::EventKind::kScenarioSample));
}

void Scenario::enable_position_trace(sim::Duration interval) {
    if (interval <= sim::Duration::zero()) {
        throw std::invalid_argument("Scenario: trace interval must be positive");
    }
    const bool was_enabled = trace_interval_ > sim::Duration::zero();
    trace_interval_ = interval;
    if (!was_enabled) {
        sim_.schedule_in(trace_interval_, sim::make_tag(sim::EventKind::kScenarioTrace));
    }
}

void Scenario::on_trace() {
    for (auto& agent : agents_) {
        agent->tick();
        trace_.push_back(
            {sim_.now(), agent->id(), agent->true_position(), agent->estimate()});
    }
    sim_.schedule_in(trace_interval_, sim::make_tag(sim::EventKind::kScenarioTrace));
}

void Scenario::write_position_trace_csv(std::ostream& os) const {
    os << "t_s,node,role,true_x,true_y,est_x,est_y,error_m\n";
    for (const PositionTraceRow& row : trace_) {
        os << row.time.to_seconds() << ',' << row.node << ','
           << (is_anchor(row.node) ? "anchor" : "blind") << ',' << row.truth.x << ','
           << row.truth.y << ',' << row.estimate.x << ',' << row.estimate.y << ','
           << geom::distance(row.truth, row.estimate) << '\n';
    }
}

obs::Obs& Scenario::obs() { return world_->medium().obs(); }
const obs::Obs& Scenario::obs() const { return world_->medium().obs(); }

void Scenario::run() { run_until(sim::TimePoint::origin() + config_.duration); }

void Scenario::run_until(sim::TimePoint t) {
    obs::ProfileScope scope("scenario.run");
    sim_.run_until(t);
}

ScenarioResult Scenario::result() const {
    ScenarioResult r;
    r.avg_error = avg_error_;
    r.node_error = node_error_;

    for (const auto& node : world_->nodes()) {
        // Settle closes each meter's books through now; the radio stays usable.
        node->radio().settle_energy();
        const energy::EnergyMeter& m = node->radio().meter();
        r.team_energy.tx_mj += m.state_mj(energy::RadioState::Tx);
        r.team_energy.rx_mj += m.state_mj(energy::RadioState::Rx);
        r.team_energy.idle_mj += m.state_mj(energy::RadioState::Idle);
        r.team_energy.sleep_mj += m.state_mj(energy::RadioState::Sleep);
        r.team_energy.transitions_mj += m.transition_mj();
    }

    r.medium_stats = world_->medium().stats();
    if (mcast_.has_value()) {
        r.multicast_stats = mcast_->total_stats();
    }
    for (const auto& agent : agents_) {
        const auto& s = agent->stats();
        r.agent_totals.beacons_sent += s.beacons_sent;
        r.agent_totals.blind_beacons_sent += s.blind_beacons_sent;
        r.agent_totals.beacons_received += s.beacons_received;
        r.agent_totals.fixes += s.fixes;
        r.agent_totals.windows_without_fix += s.windows_without_fix;
        r.agent_totals.syncs_received += s.syncs_received;
        r.agent_totals.sync_takeovers += s.sync_takeovers;
        const auto& ls = agent->localizer_stats();
        r.localizer_totals.fixes += ls.fixes;
        r.localizer_totals.rejected_too_few += ls.rejected_too_few;
        r.localizer_totals.beacons_without_bin += ls.beacons_without_bin;
        r.localizer_totals.beacons_non_gaussian += ls.beacons_non_gaussian;
    }
    r.executed_events = sim_.executed_events();
    r.counters = world_->medium().obs().counters.snapshot();
    return r;
}

namespace {
constexpr std::uint32_t kMarkScenario = 0x53434e4fu;  // "SCNO"
constexpr std::uint32_t kMarkScenarioEnd = 0x4f4e4353u;
}  // namespace

template <typename Ar, typename Self>
void Scenario::walk(Ar& ar, Self& s) {
    ar.mark(kMarkScenario);
    for (const auto& node : s.world_->nodes()) ar(node->mobility());
    // Medium before radios: a radio's restore re-links its locked frame
    // through Medium::restored_frame, so the medium must already be loaded.
    ar(s.world_->medium());
    for (const auto& node : s.world_->nodes()) ar(node->radio());
    bool has_mcast = s.mcast_.has_value();
    ar(has_mcast);
    if (has_mcast != s.mcast_.has_value()) {
        throw std::runtime_error("Scenario::load_state: multicast presence mismatch");
    }
    for (std::size_t i = 0; has_mcast && i < s.mcast_->size(); ++i) {
        ar(s.mcast_->at(static_cast<net::NodeId>(i)));
    }
    for (const auto& agent : s.agents_) ar(*agent);
    // One metric series per robot: on_sample indexes them by agent id.
    ar(s.avg_error_, sim::ckpt::fixed(s.node_error_), s.trace_, s.trace_interval_);
    sim::Simulator::walk_kernel(ar, s.sim_);
    // Pool warmth last: the restores above acquire pooled packets
    // themselves, and the warmth refill must top up the free lists after all
    // of them.
    mac::Medium::walk_pools(ar, s.world_->medium());
    if constexpr (Ar::loading) s.world_->medium().finish_restore();
    ar.mark(kMarkScenarioEnd);
}

void Scenario::save_state(sim::ckpt::Writer& w) const { walk(w, *this); }

void Scenario::load_state(sim::ckpt::Reader& r) {
    // Construction-time events (first tick/sample, agent period zero) are
    // superseded by the blob's pending-event list.
    sim_.clear_pending();
    walk(r, *this);
}

std::vector<double> ScenarioResult::errors_at(sim::TimePoint t) const {
    std::vector<double> out;
    for (const auto& series : node_error) {
        if (series.empty()) continue;  // anchor
        out.push_back(series.value_at(t));
    }
    return out;
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
    Scenario scenario(config);
    scenario.run();
    return scenario.result();
}

}  // namespace cocoa::core
