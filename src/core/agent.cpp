#include "core/agent.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/checkpoint.hpp"
#include "sim/event_tag.hpp"

namespace cocoa::core {

CocoaAgent::CocoaAgent(net::Node& node, const AgentConfig& config,
                       std::shared_ptr<const phy::PdfTable> table,
                       multicast::MulticastNode* mcast, bool is_sync_robot)
    : node_(node),
      config_(config),
      mcast_(mcast),
      is_sync_robot_(is_sync_robot),
      table_(std::move(table)),
      odometry_(config.odometry, node.simulator().rng().stream("odometry", node.id())),
      noise_rng_(node.simulator().rng().stream("agent.noise", node.id())) {
    if (config_.beacons_per_window < 1) {
        throw std::invalid_argument("CocoaAgent: beacons_per_window must be >= 1");
    }
    if (config_.window >= config_.period || config_.window <= sim::Duration::zero()) {
        throw std::invalid_argument("CocoaAgent: need 0 < window < period");
    }
    if (config_.sync == SyncMode::Mrmm && mcast_ == nullptr) {
        throw std::invalid_argument("CocoaAgent: Mrmm sync requires a multicast node");
    }
    if (config_.estimator != est::Backend::Grid &&
        config_.mode != LocalizationMode::Combined) {
        throw std::invalid_argument(
            "CocoaAgent: non-grid estimator backends require Combined mode");
    }

    est::Config ec;
    // LocalizationMode::Ekf predates the interface; it maps to the EKF
    // backend in its bit-exact legacy-continuous flavour.
    ec.backend = config_.mode == LocalizationMode::Ekf ? est::Backend::Ekf
                                                       : config_.estimator;
    ec.legacy_continuous = config_.mode == LocalizationMode::Ekf;
    ec.hold_fixes = config_.mode == LocalizationMode::RfOnly;
    ec.grid = config_.grid;
    ec.technique = config_.technique;
    ec.min_beacons_for_fix = config_.min_beacons_for_fix;
    ec.beacon_rssi_cutoff_dbm = config_.beacon_rssi_cutoff_dbm;
    ec.use_non_gaussian_bins = config_.use_non_gaussian_bins;
    ec.ekf_q_displacement_frac = config_.ekf_q_displacement_frac;
    ec.ekf_q_floor_var_per_s = config_.ekf_q_floor_var_per_s;
    ec.ekf_gate_sigmas = config_.ekf_gate_sigmas;
    ec.ekf_use_non_gaussian_bins = config_.ekf_use_non_gaussian_bins;
    ec.ekf_min_range_sigma_m = config_.ekf_min_range_sigma_m;
    ec.ekf_reject_inflation_var = config_.ekf_reject_inflation_var;
    ec.ekf_missed_window_var = config_.ekf_missed_window_var;
    ec.lincvx_min_beacons = config_.lincvx_min_beacons;
    estimator_ = est::make_estimator(ec, table_, &odometry_);

    node_.host().register_handler(
        net::Port::Beacon,
        [this](const net::Packet& p, const net::RxInfo& i) { on_beacon(p, i); });
    if (mcast_ != nullptr) {
        mcast_->join(config_.sync_group);
        mcast_->set_deliver_handler(
            [this](net::GroupId, const net::Packet& inner, const net::RxInfo&) {
                on_mcast_deliver(inner);
            });
    }

    const std::string prefix = "node." + std::to_string(node_.id()) + ".";
    obs::CounterRegistry& reg = node_.radio().medium().obs().counters;
    reg.add(prefix + "agent.beacons_sent", &stats_.beacons_sent);
    reg.add(prefix + "agent.blind_beacons_sent", &stats_.blind_beacons_sent);
    reg.add(prefix + "agent.beacons_received", &stats_.beacons_received);
    reg.add(prefix + "agent.fixes", &stats_.fixes);
    reg.add(prefix + "agent.windows_without_fix", &stats_.windows_without_fix);
    reg.add(prefix + "agent.syncs_received", &stats_.syncs_received);
    reg.add(prefix + "agent.sync_takeovers", &stats_.sync_takeovers);
    estimator_->register_counters(reg, prefix);
}

CocoaAgent::~CocoaAgent() {
    // The worker writes into this object; join (and fold in) any in-flight
    // job before members start dying.
    resolve_pending_fix();
}

void CocoaAgent::start() {
    tick();
    // Odometry starts anchored either at the true pose (the paper provides
    // initial coordinates in the odometry-only study) or provisionally at the
    // area centre until the first RF fix replaces it.
    if (config_.initial_pose_known) {
        odometry_.reset(true_position(), node_.mobility().heading());
    } else {
        odometry_.reset(config_.grid.area.center(), node_.mobility().heading());
    }
    last_odometry_position_ = odometry_.position();
    last_predict_time_ = node_.simulator().now();
    estimator_->reset(config_.initial_pose_known ? true_position()
                                                 : config_.grid.area.center(),
                      config_.initial_pose_known);

    if (config_.mode == LocalizationMode::OdometryOnly) {
        return;  // no RF activity at all: radio idles, no windows
    }
    if (is_sync_robot_ && mcast_ != nullptr) {
        mcast_->start_source(config_.sync_group);
    }
    schedule_period(0);
}

void CocoaAgent::tick() {
    // A pooled fix from the last window folds in before anything else: the
    // agent's observable state must be exactly what the inline computation
    // would have left at this point of the event time-line.
    resolve_pending();
    const auto increments = node_.mobility().advance_to(node_.simulator().now());
    bool moved = false;
    for (const auto& inc : increments) moved = moved || inc.forward_m != 0.0;
    if (moved) {
        // The medium's spatial index keys off positions; a transmission later
        // in this same timestamp must not reuse pre-movement cells. Only this
        // node moved, so the incremental per-radio path suffices (an O(1)
        // cell migration, vs the bulk note that forces a full sweep). Pure
        // rotation or a waypoint pause leaves the position untouched, so
        // those increments don't warrant a note at all.
        node_.radio().medium().note_position_moved(node_.radio());
    }
    const bool runs_odometry = config_.mode != LocalizationMode::RfOnly &&
                               (config_.role == Role::Blind);
    if (runs_odometry) {
        odometry_.observe_all(increments);
    }
    if (config_.role == Role::Blind && estimator_->integrates_odometry()) {
        // Prediction from the *measured* (noisy) odometry displacement.
        const geom::Vec2 delta = odometry_.position() - last_odometry_position_;
        const double dt =
            (node_.simulator().now() - last_predict_time_).to_seconds();
        estimator_->predict(delta, dt);
    }
    last_odometry_position_ = odometry_.position();
    last_predict_time_ = node_.simulator().now();
}

void CocoaAgent::reboot() {
    tick();
    // Everything volatile is lost: the pose belief restarts as unlocalized
    // (provisionally at the area centre, like a fresh deployment), half-
    // collected windows drop, and the clock restarts with fresh skew. The
    // odometry's velocity *bias* survives — it is miscalibration of the
    // hardware, not state.
    odometry_.reset(config_.grid.area.center(), node_.mobility().heading());
    last_odometry_position_ = odometry_.position();
    last_predict_time_ = node_.simulator().now();
    window_beacons_.clear();
    estimator_->reset(config_.grid.area.center(), /*position_known=*/false);
    if (config_.sync == SyncMode::Mrmm && !is_sync_robot_) {
        clock_offset_s_ = noise_rng_.gaussian(0.0, config_.clock_skew_sigma_s);
    } else {
        clock_offset_s_ = 0.0;
    }
    node_.radio().medium().obs().trace.instant(
        node_.simulator().now(), "cocoa", "reboot",
        static_cast<std::int64_t>(node_.id()));
}

void CocoaAgent::retune(sim::Duration period, sim::Duration window) {
    if (window <= sim::Duration::zero() || window >= period) {
        throw std::invalid_argument("CocoaAgent::retune: need 0 < window < period");
    }
    config_.period = period;
    config_.window = window;
}

void CocoaAgent::schedule_period(std::uint32_t seq) {
    // Coarse clocks drift a little every period; SYNC messages re-align them
    // (§2.3). The sync robot's clock defines the time-line.
    if (config_.sync == SyncMode::Mrmm && !is_sync_robot_) {
        clock_offset_s_ += noise_rng_.gaussian(0.0, config_.clock_skew_sigma_s);
    }
    const sim::TimePoint wake_at =
        period_start_ + clock_offset() - config_.wake_guard;
    node_.simulator().schedule_at(
        std::max(node_.simulator().now(), wake_at), [this, seq] { on_wake(seq); },
        sim::make_tag(sim::EventKind::kAgentWake, node_.id(), 0, 0, seq));
}

void CocoaAgent::on_wake(std::uint32_t seq) {
    tick();
    if (!node_.radio().awake()) {
        node_.radio().wake();
    }

    sim::Simulator& sim = node_.simulator();
    const sim::TimePoint start = period_start_ + clock_offset();

    if (is_sync_robot_ && mcast_ != nullptr) {
        // Rebuild the mesh while everyone is awake, then push SYNC down it.
        mcast_->refresh_now(config_.sync_group);
        sim.schedule_at(
            std::max(sim.now(), start + config_.sync_settle),
            [this, seq] { send_sync(seq); },
            sim::make_tag(sim::EventKind::kAgentSyncSettle, node_.id(), 0, 0, seq));
    }

    const bool blind_beacons_now =
        config_.role == Role::Blind && config_.blind_beaconing &&
        estimator_->ever_fixed() &&
        estimator_->last_fix_spread_m() <= config_.blind_beacon_max_spread_m &&
        config_.mode == LocalizationMode::Combined;
    if (config_.role == Role::Anchor || blind_beacons_now) {
        // k beacons spread across the transmit window t (§2.3 uses k = 3 for
        // delivery reliability); CSMA adds its own dispersion.
        for (int i = 0; i < config_.beacons_per_window; ++i) {
            const sim::Duration offset =
                config_.window * static_cast<std::int64_t>(i + 1) /
                static_cast<std::int64_t>(config_.beacons_per_window + 1);
            sim.schedule_at(
                std::max(sim.now(), start + offset),
                [this, seq, i] { send_beacon(seq, i); },
                sim::make_tag(sim::EventKind::kAgentBeacon, node_.id(),
                              static_cast<std::uint32_t>(i), 0, seq));
        }
    }

    const sim::TimePoint window_end = start + config_.window + config_.window_slack;
    sim.schedule_at(
        std::max(sim.now(), window_end), [this, seq] { on_window_end(seq); },
        sim::make_tag(sim::EventKind::kAgentWindowEnd, node_.id(), 0, 0, seq));
}

void CocoaAgent::send_sync(std::uint32_t seq) {
    net::SyncPayload sync;
    sync.period_s = config_.period.to_seconds();
    sync.window_s = config_.window.to_seconds();
    sync.seq = seq;
    sync.period_start = period_start_;
    // Drawn from the medium's packet pool: one SYNC per round per
    // leader, recycled once the multicast fan-out lets go of it.
    auto inner = node_.radio().medium().packet_pool().acquire();
    inner->src = node_.id();
    inner->port = net::Port::Test;  // carried inside McastData, not demuxed
    inner->payload_bytes = config_.sync_bytes;
    inner->payload = sync;
    mcast_->send_data(config_.sync_group, std::move(inner));
}

void CocoaAgent::send_beacon(std::uint32_t seq, int index) {
    if (!node_.radio().awake()) return;  // defensive: schedule drift past sleep
    tick();  // beacon carries the *current* device position

    net::BeaconPayload beacon;
    beacon.anchor_id = node_.id();
    if (config_.role == Role::Anchor) {
        // The localization device (laser ranger + SLAM) reports the position
        // with small Gaussian error.
        beacon.anchor_position =
            true_position() +
            geom::Vec2{noise_rng_.gaussian(0.0, config_.anchor_position_sigma_m),
                       noise_rng_.gaussian(0.0, config_.anchor_position_sigma_m)};
    } else {
        // Blind-beaconing extension: advertise our own estimate; its error
        // becomes part of every receiver's constraint.
        beacon.anchor_position = estimate();
        ++stats_.blind_beacons_sent;
    }
    beacon.window_seq = seq;
    beacon.beacon_index = static_cast<std::uint8_t>(index);

    net::Packet packet;
    packet.port = net::Port::Beacon;
    packet.payload_bytes = config_.beacon_bytes;
    packet.payload = beacon;
    node_.radio().send(std::move(packet));
    ++stats_.beacons_sent;
    node_.radio().medium().obs().trace.instant(
        node_.simulator().now(), "cocoa", "beacon_tx",
        static_cast<std::int64_t>(node_.id()),
        {{"seq", static_cast<double>(seq)}, {"index", static_cast<double>(index)}});
}

void CocoaAgent::on_beacon(const net::Packet& packet, const net::RxInfo& info) {
    if (config_.role != Role::Blind || config_.mode == LocalizationMode::OdometryOnly) {
        return;
    }
    const auto* beacon = std::get_if<net::BeaconPayload>(&packet.payload);
    if (beacon == nullptr) return;
    ++stats_.beacons_received;
    node_.radio().medium().obs().trace.instant(
        node_.simulator().now(), "cocoa", "beacon_rx",
        static_cast<std::int64_t>(node_.id()),
        {{"from", static_cast<double>(beacon->anchor_id)},
         {"rssi_dbm", info.rssi_dbm}});

    if (!estimator_->collects_window_beacons()) {
        // Continuous fusion: every beacon range updates the belief at once.
        tick();  // bring the prediction up to the beacon's arrival time
        estimator_->observe_beacon({beacon->anchor_position, info.rssi_dbm});
        return;
    }
    window_beacons_.push_back({beacon->anchor_position, info.rssi_dbm});
}

void CocoaAgent::on_window_end(std::uint32_t seq) {
    tick();

    if (config_.role == Role::Blind && config_.mode != LocalizationMode::OdometryOnly) {
        if (estimator_->collects_window_beacons()) {
            // Heading is sampled at window end either way (see AgentConfig
            // for the heading_correction_at_fix rationale): a deferred fix
            // must re-anchor with the heading the inline computation would
            // have used.
            const double heading = config_.heading_correction_at_fix
                                       ? node_.mobility().heading()
                                       : odometry_.heading();
            if (config_.fix_pool != nullptr && estimator_->pool_safe_fix() &&
                !node_.radio().medium().obs().trace.enabled()) {
                // Batched path: snapshot the window's beacons and hand the
                // pure fix computation (no RNG, no shared state beyond this
                // agent's own estimator) to the pool. Everything after this
                // branch — failover, sleep, scheduling the next period — is
                // independent of the fix outcome, so the event time-line
                // continues at once and the other robots' window_end events
                // at this timestamp get their updates in flight alongside
                // this one.
                fix_pending_ = true;
                pending_ready_.store(false, std::memory_order_relaxed);
                pending_heading_ = heading;
                config_.fix_pool->submit(
                    [this, beacons = std::move(window_beacons_)] {
                        pending_fix_ = estimator_->compute_fix(beacons);
                        pending_ready_.store(true, std::memory_order_release);
                        pending_ready_.notify_one();
                    });
                window_beacons_.clear();  // moved-from: make it empty again
            } else {
                const std::optional<Fix> fix =
                    estimator_->compute_fix(window_beacons_);
                window_beacons_.clear();
                apply_fix_outcome(fix, heading);
            }
        } else {
            // Continuous-fusion backend: close this window's books. The
            // legacy LocalizationMode::Ekf keeps none (tracked == false).
            const est::WindowSummary summary = estimator_->end_window();
            if (summary.tracked) {
                if (summary.fixed) {
                    ++stats_.fixes;
                    const geom::Vec2 position = estimator_->estimate();
                    node_.radio().medium().obs().trace.instant(
                        node_.simulator().now(), "cocoa", "fix",
                        static_cast<std::int64_t>(node_.id()),
                        {{"x", position.x},
                         {"y", position.y},
                         {"beacons", static_cast<double>(summary.beacons_used)},
                         {"err_m", (position - true_position()).norm()}});
                } else {
                    ++stats_.windows_without_fix;
                    node_.radio().medium().obs().trace.instant(
                        node_.simulator().now(), "cocoa", "no_fix",
                        static_cast<std::int64_t>(node_.id()));
                }
            }
        }
    }

    // Sync-robot failover: a backup that has heard nothing from the Sync
    // robot for (2 * rank + 2) periods takes over SYNC duties.
    if (config_.sync == SyncMode::Mrmm && !is_sync_robot_ && config_.sync_rank > 0 &&
        mcast_ != nullptr) {
        const sim::Duration silence = node_.simulator().now() - last_sync_heard_;
        const sim::Duration patience =
            config_.period * static_cast<std::int64_t>(2 * config_.sync_rank + 2);
        if (silence > patience) {
            is_sync_robot_ = true;
            ++stats_.sync_takeovers;
            mcast_->start_source(config_.sync_group);
        }
    }

    if (config_.sleep_coordination) {
        node_.radio().sleep();
    }
    period_start_ += config_.period;
    schedule_period(seq + 1);
}

void CocoaAgent::apply_fix_outcome(const std::optional<Fix>& fix, double heading) {
    estimator_->apply_fix(fix, heading);
    if (fix.has_value()) {
        ++stats_.fixes;
        node_.radio().medium().obs().trace.instant(
            node_.simulator().now(), "cocoa", "fix",
            static_cast<std::int64_t>(node_.id()),
            {{"x", fix->position.x},
             {"y", fix->position.y},
             {"beacons", static_cast<double>(fix->beacons_used)},
             {"err_m", (fix->position - true_position()).norm()}});
        // A fix that re-anchors the dead reckoning must not be double-counted
        // as odometry displacement by the next predict() (invisible to the
        // grid backend, which never predicts).
        last_odometry_position_ = odometry_.position();
    } else {
        // "If certain robots do not receive any beacons, they continue
        // with their old estimated position" (§2.3).
        ++stats_.windows_without_fix;
        node_.radio().medium().obs().trace.instant(
            node_.simulator().now(), "cocoa", "no_fix",
            static_cast<std::int64_t>(node_.id()));
    }
}

void CocoaAgent::resolve_pending_fix() {
    if (!fix_pending_) return;
    // Block until the worker publishes the result (usually long done: a
    // whole inter-window period of events separates submission from the
    // first resolution point).
    pending_ready_.wait(false, std::memory_order_acquire);
    fix_pending_ = false;
    apply_fix_outcome(pending_fix_, pending_heading_);
    pending_fix_.reset();
}

void CocoaAgent::on_mcast_deliver(const net::Packet& inner) {
    const auto* sync = std::get_if<net::SyncPayload>(&inner.payload);
    if (sync == nullptr) return;
    ++stats_.syncs_received;
    node_.radio().medium().obs().trace.instant(
        node_.simulator().now(), "cocoa", "sync_rx",
        static_cast<std::int64_t>(node_.id()),
        {{"seq", static_cast<double>(sync->seq)}});
    sync_seq_ = sync->seq;
    last_sync_heard_ = node_.simulator().now();
    // Re-align the local clock and phase to the sync robot's time-line; the
    // residual models the precision of coarse multicast synchronization.
    // Also adopt the advertised T and t, so an operator can retune them at
    // runtime (§2.3): the change takes effect when this period ends.
    clock_offset_s_ = noise_rng_.gaussian(0.0, config_.sync_residual_sigma_s);
    config_.period = sim::Duration::seconds(sync->period_s);
    config_.window = sim::Duration::seconds(sync->window_s);
    // Re-anchor phase, but never backwards: a straggler SYNC copy arriving
    // after this period's books closed must not reopen it.
    period_start_ = std::max(period_start_, sync->period_start);
}

namespace {
constexpr std::uint32_t kMarkAgent = 0x41474e54u;  // "AGNT"
}

void CocoaAgent::save_state(sim::ckpt::Writer& w) const {
    // Fold any pooled fix first: the straight run folds it at its next
    // resolution point, so the settled state is the canonical one.
    resolve_pending();
    w.mark(kMarkAgent);
    w.b(is_sync_robot_);
    w.dur(config_.period);  // SYNC retuning mutates these two at runtime
    w.dur(config_.window);
    odometry_.save(w);
    estimator_->save_state(w);
    w.f64(last_odometry_position_.x);
    w.f64(last_odometry_position_.y);
    w.time(last_predict_time_);
    noise_rng_.save(w);
    w.u64(window_beacons_.size());
    for (const BeaconObservation& beacon : window_beacons_) {
        w.f64(beacon.anchor_position.x);
        w.f64(beacon.anchor_position.y);
        w.f64(beacon.rssi_dbm);
    }
    w.f64(clock_offset_s_);
    w.time(period_start_);
    w.time(last_sync_heard_);
    w.u32(sync_seq_);
    w.u64(stats_.beacons_sent);
    w.u64(stats_.blind_beacons_sent);
    w.u64(stats_.beacons_received);
    w.u64(stats_.fixes);
    w.u64(stats_.windows_without_fix);
    w.u64(stats_.syncs_received);
    w.u64(stats_.sync_takeovers);
}

void CocoaAgent::load_state(sim::ckpt::Reader& r) {
    r.expect(kMarkAgent);
    is_sync_robot_ = r.b();
    config_.period = r.dur();
    config_.window = r.dur();
    odometry_.load(r);
    estimator_->load_state(r);
    last_odometry_position_.x = r.f64();
    last_odometry_position_.y = r.f64();
    last_predict_time_ = r.time();
    noise_rng_.load(r);
    window_beacons_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        BeaconObservation beacon;
        beacon.anchor_position.x = r.f64();
        beacon.anchor_position.y = r.f64();
        beacon.rssi_dbm = r.f64();
        window_beacons_.push_back(beacon);
    }
    clock_offset_s_ = r.f64();
    period_start_ = r.time();
    last_sync_heard_ = r.time();
    sync_seq_ = r.u32();
    stats_.beacons_sent = r.u64();
    stats_.blind_beacons_sent = r.u64();
    stats_.beacons_received = r.u64();
    stats_.fixes = r.u64();
    stats_.windows_without_fix = r.u64();
    stats_.syncs_received = r.u64();
    stats_.sync_takeovers = r.u64();
}

sim::InplaceCallback CocoaAgent::rebuild_event(const sim::EventTag& tag) {
    const auto seq = static_cast<std::uint32_t>(tag.a);
    switch (static_cast<sim::EventKind>(tag.kind)) {
        case sim::EventKind::kAgentWake:
            return sim::InplaceCallback([this, seq] { on_wake(seq); });
        case sim::EventKind::kAgentSyncSettle:
            return sim::InplaceCallback([this, seq] { send_sync(seq); });
        case sim::EventKind::kAgentBeacon: {
            const int i = static_cast<int>(tag.x);
            return sim::InplaceCallback([this, seq, i] { send_beacon(seq, i); });
        }
        case sim::EventKind::kAgentWindowEnd:
            return sim::InplaceCallback([this, seq] { on_window_end(seq); });
        default:
            throw std::logic_error("CocoaAgent::rebuild_event: unexpected tag kind");
    }
}

geom::Vec2 CocoaAgent::estimate() const {
    resolve_pending();
    if (config_.role == Role::Anchor) {
        return true_position();  // from the localization device
    }
    if (config_.mode == LocalizationMode::OdometryOnly) {
        return odometry_.position();
    }
    return estimator_->estimate();
}

}  // namespace cocoa::core
