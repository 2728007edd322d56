#include "core/scenario.hpp"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "net/packet_io.hpp"
#include "sim/checkpoint.hpp"
#include "sim/event_tag.hpp"

namespace cocoa::core {

void ScenarioConfig::validate() const {
    if (num_robots < 1) throw std::invalid_argument("ScenarioConfig: num_robots >= 1");
    if (num_anchors < 0 || num_anchors > num_robots) {
        throw std::invalid_argument("ScenarioConfig: num_anchors in [0, num_robots]");
    }
    if (mode != LocalizationMode::OdometryOnly && num_anchors < 1) {
        throw std::invalid_argument("ScenarioConfig: RF modes need at least one anchor");
    }
    if (area_side_m <= 0.0) throw std::invalid_argument("ScenarioConfig: positive area");
    if (window <= sim::Duration::zero() || window >= period) {
        throw std::invalid_argument("ScenarioConfig: need 0 < window < period");
    }
    if (duration <= sim::Duration::zero() || tick <= sim::Duration::zero() ||
        sample_interval <= sim::Duration::zero()) {
        throw std::invalid_argument("ScenarioConfig: positive durations");
    }
    if (beacons_per_window < 1 || min_beacons_for_fix < 1) {
        throw std::invalid_argument("ScenarioConfig: beacon counts >= 1");
    }
    if (min_speed <= 0.0 || max_speed < min_speed) {
        throw std::invalid_argument("ScenarioConfig: need 0 < min_speed <= max_speed");
    }
    if (estimator != est::Backend::Grid && mode != LocalizationMode::Combined) {
        throw std::invalid_argument(
            "ScenarioConfig: non-grid estimator backends require Combined mode");
    }
}

Scenario::Scenario(const ScenarioConfig& config,
                   std::shared_ptr<const phy::PdfTable> shared_table)
    : config_(config),
      sim_(config.seed),
      channel_(config.channel),
      kernels_(std::make_shared<KernelCache>()) {
    config_.validate();

    // Offline calibration phase (§2.2): build the PDF Table once; every robot
    // stores a copy (here: shares an immutable one). A caller that already
    // owns the table for this (channel, calibration, seed) passes it in.
    if (shared_table != nullptr) {
        table_ = std::move(shared_table);
    } else {
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
                          config_.mode != LocalizationMode::OdometryOnly;
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
        ac.mode = config_.mode;
        ac.sync = use_mrmm ? SyncMode::Mrmm : SyncMode::PerfectClock;
        ac.period = config_.period;
        ac.window = config_.window;
        ac.beacons_per_window = config_.beacons_per_window;
        ac.min_beacons_for_fix = config_.min_beacons_for_fix;
        ac.grid = grid;
        ac.odometry = config_.odometry;
        ac.technique = config_.technique;
        ac.estimator = config_.estimator;
        ac.ekf_q_displacement_frac = config_.ekf_q_displacement_frac;
        ac.ekf_q_floor_var_per_s = config_.ekf_q_floor_var_per_s;
        ac.ekf_gate_sigmas = config_.ekf_gate_sigmas;
        ac.ekf_use_non_gaussian_bins = config_.ekf_use_non_gaussian_bins;
        ac.ekf_min_range_sigma_m = config_.ekf_min_range_sigma_m;
        ac.ekf_reject_inflation_var = config_.ekf_reject_inflation_var;
        ac.ekf_missed_window_var = config_.ekf_missed_window_var;
        ac.lincvx_min_beacons = config_.lincvx_min_beacons;
        ac.beacon_rssi_cutoff_dbm = config_.beacon_rssi_cutoff_dbm;
        ac.use_non_gaussian_bins = config_.use_non_gaussian_bins;
        ac.sleep_coordination = config_.sleep_coordination;
        ac.wake_guard = config_.wake_guard;
        ac.window_slack = config_.window_slack;
        ac.clock_skew_sigma_s = config_.clock_skew_sigma_s;
        ac.sync_residual_sigma_s = config_.sync_residual_sigma_s;
        ac.anchor_position_sigma_m = config_.anchor_position_sigma_m;
        ac.heading_correction_at_fix = config_.heading_correction_at_fix;
        ac.blind_beaconing = config_.blind_beaconing;
        ac.blind_beacon_max_spread_m = config_.blind_beacon_max_spread_m;
        ac.initial_pose_known =
            config_.initial_pose_known || config_.mode == LocalizationMode::OdometryOnly;
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

    for (auto& agent : agents_) agent->start();

    // Tick loop (mobility/odometry granularity) and metric sampling. The tick
    // event is scheduled first so that at coinciding times motion is advanced
    // before errors are read.
    sim_.schedule_in(config_.tick, [this] { on_tick(); },
                     sim::make_tag(sim::EventKind::kScenarioTick));
    sim_.schedule_in(config_.sample_interval, [this] { on_sample(); },
                     sim::make_tag(sim::EventKind::kScenarioSample));
}

multicast::MulticastNode* Scenario::multicast_node(net::NodeId id) {
    return mcast_.has_value() ? &mcast_->at(id) : nullptr;
}

bool Scenario::is_anchor(net::NodeId id) const {
    if (config_.mode == LocalizationMode::OdometryOnly) return false;
    return id < static_cast<net::NodeId>(config_.num_anchors);
}

void Scenario::on_tick() {
    for (auto& agent : agents_) agent->tick();
    sim_.schedule_in(config_.tick, [this] { on_tick(); },
                     sim::make_tag(sim::EventKind::kScenarioTick));
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
    sim_.schedule_in(config_.sample_interval, [this] { on_sample(); },
                     sim::make_tag(sim::EventKind::kScenarioSample));
}

void Scenario::enable_position_trace(sim::Duration interval) {
    if (interval <= sim::Duration::zero()) {
        throw std::invalid_argument("Scenario: trace interval must be positive");
    }
    const bool was_enabled = trace_interval_ > sim::Duration::zero();
    trace_interval_ = interval;
    if (!was_enabled) {
        sim_.schedule_in(trace_interval_, [this] { on_trace(); },
                         sim::make_tag(sim::EventKind::kScenarioTrace));
    }
}

void Scenario::on_trace() {
    for (auto& agent : agents_) {
        agent->tick();
        trace_.push_back(
            {sim_.now(), agent->id(), agent->true_position(), agent->estimate()});
    }
    sim_.schedule_in(trace_interval_, [this] { on_trace(); },
                     sim::make_tag(sim::EventKind::kScenarioTrace));
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

void Scenario::save_state(sim::ckpt::Writer& w) const {
    w.mark(kMarkScenario);
    // One save context spans every subsystem: inner packets alias across
    // medium frames, radio queues and ODMRP parked transmissions, and the
    // blob must preserve that sharing (see net/packet_io.hpp).
    net::PacketSaveCtx pkts;
    for (const auto& node : world_->nodes()) {
        node->mobility().save(w);
    }
    // Medium before radios: Radio::load_state re-links locked frames through
    // Medium::restored_frame, so the medium must already be loaded — save
    // writes in load order.
    world_->medium().save_state(w, pkts);
    for (const auto& node : world_->nodes()) {
        node->radio().save_state(w, pkts);
    }
    w.b(mcast_.has_value());
    if (mcast_.has_value()) {
        for (std::size_t i = 0; i < mcast_->size(); ++i) {
            mcast_->at(static_cast<net::NodeId>(i)).save_state(w, pkts);
        }
    }
    for (const auto& agent : agents_) {
        agent->save_state(w);
    }
    avg_error_.save(w);
    w.u64(node_error_.size());
    for (const metrics::TimeSeries& series : node_error_) series.save(w);
    w.u64(trace_.size());
    for (const PositionTraceRow& row : trace_) {
        w.time(row.time);
        w.u32(row.node);
        w.f64(row.truth.x);
        w.f64(row.truth.y);
        w.f64(row.estimate.x);
        w.f64(row.estimate.y);
    }
    w.dur(trace_interval_);
    sim_.save_kernel(w);
    // Pool warmth last: the loads above acquire pooled packets themselves,
    // and the warmth refill must top up the free lists after all of them.
    world_->medium().save_pool_warmth(w);
    w.mark(kMarkScenarioEnd);
}

void Scenario::register_rebuilders(sim::ckpt::CallbackRegistry& reg) {
    reg.add(sim::EventKind::kScenarioTick, [this](const sim::EventTag&) {
        return sim::InplaceCallback([this] { on_tick(); });
    });
    reg.add(sim::EventKind::kScenarioSample, [this](const sim::EventTag&) {
        return sim::InplaceCallback([this] { on_sample(); });
    });
    reg.add(sim::EventKind::kScenarioTrace, [this](const sim::EventTag&) {
        return sim::InplaceCallback([this] { on_trace(); });
    });
    const sim::ckpt::CallbackRegistry::Make agent_make =
        [this](const sim::EventTag& tag) {
            return agents_.at(tag.node)->rebuild_event(tag);
        };
    reg.add(sim::EventKind::kAgentWake, agent_make);
    reg.add(sim::EventKind::kAgentSyncSettle, agent_make);
    reg.add(sim::EventKind::kAgentBeacon, agent_make);
    reg.add(sim::EventKind::kAgentWindowEnd, agent_make);
    if (mcast_.has_value()) {
        const sim::ckpt::CallbackRegistry::Make mcast_make =
            [this](const sim::EventTag& tag) {
                return mcast_->at(tag.node).rebuild_event(tag);
            };
        const sim::ckpt::CallbackRegistry::Placed mcast_placed =
            [this](const sim::EventTag& tag, sim::EventId id) {
                mcast_->at(tag.node).event_placed(tag, id);
            };
        reg.add(sim::EventKind::kMcastRefresh, mcast_make, mcast_placed);
        reg.add(sim::EventKind::kMcastDecision, mcast_make, mcast_placed);
        reg.add(sim::EventKind::kMcastJitteredTx, mcast_make, mcast_placed);
    }
    world_->medium().register_rebuilders(reg);
}

void Scenario::load_state(
    sim::ckpt::Reader& r,
    const std::function<void(sim::ckpt::CallbackRegistry&)>& extra_rebuilders) {
    // Construction-time events (first tick/sample, agent period zero) are
    // superseded by the blob's pending-event list.
    sim_.clear_pending();
    r.expect(kMarkScenario);
    net::PacketLoadCtx pkts;
    pkts.pool = &world_->medium().packet_pool();
    for (const auto& node : world_->nodes()) {
        node->mobility().load(r);
    }
    world_->medium().load_state(r, pkts);
    for (const auto& node : world_->nodes()) {
        node->radio().load_state(r, pkts);
    }
    const bool has_mcast = r.b();
    if (has_mcast != mcast_.has_value()) {
        throw std::runtime_error("Scenario::load_state: multicast presence mismatch");
    }
    if (mcast_.has_value()) {
        for (std::size_t i = 0; i < mcast_->size(); ++i) {
            mcast_->at(static_cast<net::NodeId>(i)).load_state(r, pkts);
        }
    }
    for (auto& agent : agents_) {
        agent->load_state(r);
    }
    avg_error_.load(r);
    node_error_.resize(r.u64());
    for (metrics::TimeSeries& series : node_error_) series.load(r);
    trace_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        PositionTraceRow row;
        row.time = r.time();
        row.node = r.u32();
        row.truth.x = r.f64();
        row.truth.y = r.f64();
        row.estimate.x = r.f64();
        row.estimate.y = r.f64();
        trace_.push_back(row);
    }
    trace_interval_ = r.dur();
    sim::ckpt::CallbackRegistry reg;
    register_rebuilders(reg);
    if (extra_rebuilders) extra_rebuilders(reg);
    sim_.load_kernel(r, reg);
    world_->medium().load_pool_warmth(r);
    world_->medium().finish_restore();
    r.expect(kMarkScenarioEnd);
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
