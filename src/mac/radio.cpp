#include "mac/radio.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "sim/checkpoint.hpp"

namespace cocoa::mac {

namespace {
constexpr std::uint32_t kMarkRadio = 0x4f494452u;  // "RDIO"
}  // namespace

Radio::Radio(sim::Simulator& sim, Medium& medium, net::NodeId id, PositionProvider position,
             const energy::PowerProfile& profile, sim::RandomStream backoff_rng,
             MacConfig config)
    : sim_(sim),
      medium_(medium),
      id_(id),
      position_(std::move(position)),
      config_(config),
      meter_(profile, sim.now(), energy::RadioState::Idle),
      backoff_rng_(std::move(backoff_rng)) {
    if (!position_) {
        throw std::invalid_argument("Radio: position provider required");
    }
    sim::fields::check(config_, "MacConfig");
    attach_index_ = medium_.attach(*this);

    // Swarm-scale scenarios disable the per-node registry names (a 100k-node
    // team would otherwise hold ~1M counter strings); aggregates and the
    // meters themselves are unaffected.
    if (medium_.config().register_node_counters) {
        const std::string prefix = "node." + std::to_string(id_) + ".";
        obs::CounterRegistry& reg = medium_.obs().counters;
        reg.add(prefix + "mac.tx_frames", &stats_.tx_frames);
        reg.add(prefix + "mac.rx_delivered", &stats_.rx_delivered);
        reg.add(prefix + "mac.rx_corrupted", &stats_.rx_corrupted);
        reg.add(prefix + "mac.rx_captured", &stats_.rx_captured);
        reg.add(prefix + "mac.rx_aborted", &stats_.rx_aborted);
        meter_.register_counters(reg, prefix + "energy.");
    }
}

void Radio::publish_availability() {
    medium_.set_radio_available(*this, !is_off() && !in_outage());
}

void Radio::set_state(energy::RadioState next) {
    meter_.change_state(sim_.now(), next);
    state_ = next;
    medium_.set_radio_awake(attach_index_, awake());
}

sim::Duration Radio::airtime(const net::Packet& packet) const {
    const double payload_s =
        static_cast<double>(packet.wire_bytes()) * 8.0 / config_.bitrate_bps;
    if (!sim::Duration::fits_seconds(payload_s)) {
        throw std::invalid_argument("MacConfig: bitrate_bps puts a " +
                                    std::to_string(packet.wire_bytes()) +
                                    "-byte frame's airtime beyond the Duration range");
    }
    return config_.plcp_preamble + sim::Duration::seconds(payload_s);
}

void Radio::send(net::Packet packet) {
    if (!awake()) {
        throw std::logic_error("Radio::send while asleep (coordination bug)");
    }
    packet.src = id_;
    queue_.push_back(std::move(packet));
    try_start_csma();
}

void Radio::try_start_csma() {
    if (csma_pending_ || queue_.empty() || state_ == energy::RadioState::Tx || !awake()) {
        return;
    }
    csma_pending_ = true;
    schedule_attempt();
}

void Radio::schedule_attempt() {
    const sim::TimePoint idle_at = std::max(sim_.now(), sensed_until_);
    const sim::Duration backoff =
        config_.slot * backoff_rng_.uniform_int(0, config_.cw_min);
    attempt_event_ = sim_.schedule_at(
        idle_at + config_.difs + backoff,
        sim::make_tag(sim::EventKind::kRadioAttempt, static_cast<std::uint32_t>(attach_index_)));
}

void Radio::attempt_tx() {
    attempt_event_ = sim::EventId{};
    if (!awake()) {
        // Went to sleep while deferring; wake() restarts CSMA.
        csma_pending_ = false;
        return;
    }
    if (channel_busy() || lock_.has_value()) {
        schedule_attempt();
        return;
    }
    begin_tx();
}

void Radio::begin_tx() {
    net::Packet packet = std::move(queue_.front());
    queue_.erase(queue_.begin());
    const sim::Duration on_air = airtime(packet);
    set_state(energy::RadioState::Tx);
    medium_.begin_transmission(*this, packet, on_air);
    sim_.schedule_in(on_air, sim::make_tag(sim::EventKind::kRadioEndTx,
                                           static_cast<std::uint32_t>(attach_index_)));
}

void Radio::end_tx() {
    // Only a transmission that actually completed counts: power_off and
    // begin_outage truncate the frame and leave the radio Off/Sleep.
    if (state_ != energy::RadioState::Tx) return;
    ++stats_.tx_frames;
    set_state(energy::RadioState::Idle);
    csma_pending_ = false;
    try_start_csma();
}

void Radio::on_frame_start(const std::shared_ptr<const AirFrame>& frame, double rssi_dbm,
                           bool decodable) {
    sensed_until_ = std::max(sensed_until_, frame->end);
    if (state_ == energy::RadioState::Tx) return;  // half duplex: deaf while sending

    if (lock_.has_value()) {
        // Overlap with the frame being received. A frame stronger than the
        // lock by the capture margin takes the receiver over (physical
        // capture works both ways); one inside the margin corrupts the lock;
        // anything weaker is captured over and ignored.
        if (decodable && rssi_dbm >= lock_->rssi_dbm + medium_.capture_margin_db()) {
            ++stats_.rx_corrupted;  // the abandoned frame is lost
            ++stats_.rx_captured;
            medium_.obs().trace.instant(sim_.now(), "mac", "rx_capture",
                                        static_cast<std::int64_t>(id_),
                                        {{"rssi_dbm", rssi_dbm},
                                         {"old_rssi_dbm", lock_->rssi_dbm}});
            lock_ = RxLock{frame, rssi_dbm, false};
            medium_.schedule_frame_end(*this, frame);
            return;  // the old frame's on_frame_end no-ops (lock moved on)
        }
        if (rssi_dbm >= lock_->rssi_dbm - medium_.capture_margin_db()) {
            lock_->corrupted = true;
            medium_.obs().trace.instant(sim_.now(), "mac", "rx_corrupt",
                                        static_cast<std::int64_t>(id_),
                                        {{"rssi_dbm", rssi_dbm}});
        }
        return;
    }
    if (!decodable) return;

    lock_ = RxLock{frame, rssi_dbm, false};
    medium_.obs().trace.instant(sim_.now(), "mac", "rx_lock",
                                static_cast<std::int64_t>(id_),
                                {{"rssi_dbm", rssi_dbm}});
    set_state(energy::RadioState::Rx);
    medium_.schedule_frame_end(*this, frame);
}

void Radio::on_frame_end(const std::shared_ptr<const AirFrame>& frame) {
    if (!lock_.has_value() || lock_->frame != frame) return;  // aborted by sleep
    const RxLock lock = *std::exchange(lock_, std::nullopt);
    set_state(energy::RadioState::Idle);
    if (lock.corrupted) {
        ++stats_.rx_corrupted;
    } else {
        ++stats_.rx_delivered;
        medium_.obs().trace.instant(sim_.now(), "mac", "rx_deliver",
                                    static_cast<std::int64_t>(id_),
                                    {{"rssi_dbm", lock.rssi_dbm},
                                     {"from", static_cast<double>(frame->sender)}});
        if (handler_) {
            handler_(frame->packet, net::RxInfo{lock.rssi_dbm, sim_.now()});
        }
    }
    try_start_csma();
}

template <typename Ar, typename Self>
void Radio::walk(Ar& ar, Self& r) {
    ar.mark(kMarkRadio);
    // The receive lock names its frame by launch number.
    struct SavedLock {
        std::uint64_t frame_seq;
        double rssi_dbm;
        bool corrupted;
    };
    std::optional<SavedLock> lock;
    if (r.lock_) lock = SavedLock{r.lock_->frame->seq, r.lock_->rssi_dbm, r.lock_->corrupted};
    ar(r.state_, r.outage_, r.csma_pending_, r.sensed_until_, lock, r.queue_, r.stats_,
       r.backoff_rng_, r.meter_);
    if constexpr (Ar::loading) {
        r.lock_.reset();
        if (lock) {
            r.lock_ = RxLock{r.medium_.restored_frame(lock->frame_seq), lock->rssi_dbm,
                             lock->corrupted};
        }
        r.attempt_event_ = sim::EventId{};  // re-learned via the placed hook
        // Sync the medium's awake map and availability table (and
        // spatial-index membership) with the restored power state — off /
        // in-outage radios leave the tree.
        r.medium_.set_radio_awake(r.attach_index_, r.awake());
        r.publish_availability();
    }
}
template void Radio::walk(sim::ckpt::Writer&, const Radio&);
template void Radio::walk(sim::ckpt::Reader&, Radio&);

void Radio::sleep() {
    if (state_ == energy::RadioState::Sleep || state_ == energy::RadioState::Off) {
        return;
    }
    if (state_ == energy::RadioState::Tx) {
        throw std::logic_error("Radio::sleep during transmission");
    }
    if (lock_.has_value()) {
        lock_.reset();
        ++stats_.rx_aborted;
        medium_.obs().trace.instant(sim_.now(), "mac", "rx_abort",
                                    static_cast<std::int64_t>(id_));
    }
    if (attempt_event_.valid()) {
        sim_.cancel(attempt_event_);
        attempt_event_ = sim::EventId{};
    }
    csma_pending_ = false;
    backoff_rng_.park();  // a sleeping radio draws no backoff
    set_state(energy::RadioState::Sleep);
    medium_.obs().trace.instant(sim_.now(), "mac", "sleep",
                                static_cast<std::int64_t>(id_));
}

void Radio::on_frame_truncated(const std::shared_ptr<const AirFrame>& frame) {
    if (!awake()) return;  // asleep/off radios rebuild sense on wake anyway
    // The air went quiet early; re-derive carrier sense from what is still
    // in flight (the truncated frame no longer counts).
    sensed_until_ = std::max(sim_.now(), medium_.sensed_until_for(*this));
    if (lock_.has_value() && lock_->frame == frame) {
        lock_.reset();
        ++stats_.rx_aborted;
        medium_.obs().trace.instant(sim_.now(), "mac", "rx_abort",
                                    static_cast<std::int64_t>(id_));
        set_state(energy::RadioState::Idle);
        try_start_csma();
    }
}

void Radio::wake() {
    if (awake() || state_ == energy::RadioState::Off || outage_) return;
    set_state(energy::RadioState::Idle);
    sensed_until_ = medium_.sensed_until_for(*this);
    medium_.obs().trace.instant(sim_.now(), "mac", "wake",
                                static_cast<std::int64_t>(id_));
    try_start_csma();
}

void Radio::power_off() {
    if (state_ == energy::RadioState::Off) return;
    if (state_ == energy::RadioState::Tx) {
        // The frame dies with the radio: truncate it on the medium so
        // receivers stop decoding (and abort any lock) instead of receiving
        // from a corpse.
        medium_.truncate_transmission(*this);
    }
    if (lock_.has_value()) {
        lock_.reset();
        ++stats_.rx_aborted;
    }
    if (attempt_event_.valid()) {
        sim_.cancel(attempt_event_);
        attempt_event_ = sim::EventId{};
    }
    outage_ = false;
    csma_pending_ = false;
    queue_.clear();
    set_state(energy::RadioState::Off);
    publish_availability();
}

void Radio::power_on() {
    if (state_ != energy::RadioState::Off) return;
    outage_ = false;
    set_state(energy::RadioState::Idle);
    publish_availability();
    sensed_until_ = medium_.sensed_until_for(*this);
    medium_.obs().trace.instant(sim_.now(), "mac", "power_on",
                                static_cast<std::int64_t>(id_));
    try_start_csma();
}

void Radio::begin_outage() {
    if (outage_ || state_ == energy::RadioState::Off) return;
    outage_ = true;
    if (state_ == energy::RadioState::Tx) {
        medium_.truncate_transmission(*this);
    }
    if (lock_.has_value()) {
        lock_.reset();
        ++stats_.rx_aborted;
        medium_.obs().trace.instant(sim_.now(), "mac", "rx_abort",
                                    static_cast<std::int64_t>(id_));
    }
    if (attempt_event_.valid()) {
        sim_.cancel(attempt_event_);
        attempt_event_ = sim::EventId{};
    }
    csma_pending_ = false;
    queue_.clear();
    set_state(energy::RadioState::Sleep);
    publish_availability();
    medium_.obs().trace.instant(sim_.now(), "mac", "outage_begin",
                                static_cast<std::int64_t>(id_));
}

void Radio::end_outage() {
    if (!outage_) return;
    outage_ = false;
    if (state_ == energy::RadioState::Off) return;  // crashed during the outage
    set_state(energy::RadioState::Idle);
    publish_availability();
    sensed_until_ = medium_.sensed_until_for(*this);
    medium_.obs().trace.instant(sim_.now(), "mac", "outage_end",
                                static_cast<std::int64_t>(id_));
    try_start_csma();
}

}  // namespace cocoa::mac
