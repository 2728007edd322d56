#include "mac/medium.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "mac/radio.hpp"
#include "sim/checkpoint.hpp"

namespace cocoa::mac {

namespace {
/// Truncation fan-out slack: a receiver can drift this far between a frame's
/// launch and its (early) end, so the truncation query widens the cull radius
/// by it. One metre covers any robot the scenarios model for the few
/// milliseconds a frame stays on the air.
constexpr double kTruncateSlackM = 1.0;
/// Sensed vectors reserve at least this many entries so paper-scale frames
/// all draw the same-sized block from the slab pool (64 entries * 4 bytes);
/// denser swarm neighbourhoods fall through to ordinary allocation.
constexpr std::size_t kSensedReserve = 64;
/// Radius-cache sizing: a key is one of a cell's 4x4 sub-cell quanta, so
/// 4096 masks cover 256 cells, a ~2 km x 2 km active area of the swarm's
/// ~128 m cells, before the LRU recycles, a few hundred KB; tiles below 16
/// radios skip the cache (scanning a handful of candidates outright is
/// cheaper than the mask lookup).
constexpr std::size_t kRadiusCacheCapacity = 4096;
constexpr std::uint32_t kRadiusCacheDensePopulation = 16;
}  // namespace

Medium::Medium(sim::Simulator& sim, const phy::Channel& channel, MediumConfig config)
    : sim_(sim),
      channel_(channel),
      config_(config),
      rssi_seed_base_(sim.rng().derive_seed("medium.rssi", 0)),
      loss_seed_base_(sim.rng().derive_seed("fault.loss", 0)),
      // Inflate the influence radius by a hair so the bisection rounding in
      // solve_range can never put a should-be-visited radio on the culled
      // side.
      cull_radius_m_(channel_.max_influence_range_m() * (1.0 + 1e-9) + 1e-3),
      truncate_radius_m_(cull_radius_m_ + kTruncateSlackM),
      // Cell side = the largest radius ever queried (the truncation fan-out),
      // so every query stays within the tree's exact 3x3 neighbourhood bound.
      tree_(truncate_radius_m_) {
    obs_.counters.add("medium.frames_sent", &stats_.frames_sent);
    obs_.counters.add("medium.missed_asleep", &stats_.missed_asleep);
    // Kernel observability: event-queue stats and slab-pool recycling.
    const sim::KernelStats& ks = sim_.kernel_stats();
    obs_.counters.add("kernel.events.scheduled", &ks.scheduled);
    obs_.counters.add("kernel.events.cancelled", &ks.cancelled);
    obs_.counters.add("kernel.events.sbo_miss", &ks.sbo_misses);
    obs_.counters.add("kernel.events.peak_pending", &ks.peak_pending);
    obs_.counters.add("kernel.events.executed", &sim_.executed_events_ref());
    const auto add_pool = [this](const char* prefix, const sim::PoolStats& ps) {
        const std::string base = std::string("kernel.pool.") + prefix;
        obs_.counters.add(base + ".reused", &ps.reused);
        obs_.counters.add(base + ".fresh", &ps.fresh);
        obs_.counters.add(base + ".oversize", &ps.oversize);
    };
    add_pool("frame", frame_pool_.stats());
    add_pool("sensed", sensed_core_->stats());
    add_pool("packet", packet_pool_.stats());
    radius_cache_.configure(tree_.cell_side_m(), cull_radius_m_,
                            kRadiusCacheCapacity, kRadiusCacheDensePopulation);
    gaps_ = fanout::GapTable(channel_, cull_radius_m_ * cull_radius_m_);
    // Steady-state scratch: sized once here so paper-scale neighbourhoods
    // never grow it again (swarm densities warm it within a few frames).
    cca_tags_.reserve(kSensedReserve);
}

std::size_t Medium::attach(Radio& radio) {
    const std::size_t index = radios_.size();
    radios_.push_back(&radio);
    ids_.push_back(radio.id());
    available_.push_back(1);
    note_stamp_.push_back(kNeverNoted);
    tree_.insert(static_cast<std::uint32_t>(index), radio.position());
    return index;
}

void Medium::set_radio_available(const Radio& radio, bool available) {
    const std::size_t index = radio.attach_index();
    assert(index < radios_.size() && radios_[index] == &radio);
    if ((available_[index] != 0) == available) return;
    available_[index] = available ? 1 : 0;
    if (available) {
        // Re-enter the index at wherever the robot is *now* — it kept moving
        // while the radio was dark.
        tree_.insert(static_cast<std::uint32_t>(index), radio.position());
    } else {
        tree_.remove(static_cast<std::uint32_t>(index));
    }
}

void Medium::note_position_moved(const Radio& radio) {
    // Coalesce duplicate notes within one timestamp: mobility advances a
    // radio's position at most once per simulation instant (a second
    // advance_to the same time is a no-op), so a second note at the same
    // time can only repeat the first, and would pay an in-cell update per
    // duplicate caller.
    const std::int64_t now_ns = sim_.now().to_nanos();
    if (note_stamp_[radio.attach_index()] == now_ns) return;
    note_stamp_[radio.attach_index()] = now_ns;
    // No-op for detached (off / in-outage) radios; they re-enter at their
    // live position in set_radio_available.
    tree_.update(static_cast<std::uint32_t>(radio.attach_index()), radio.position());
}

void Medium::sweep_expired() {
    const sim::TimePoint now = sim_.now();
    std::erase_if(active_, [now](const auto& f) { return f->end <= now; });
    // Compact the weak launch registry in the same stride: entries die once
    // the last lock / pending callback lets go of the frame.
    std::erase_if(launched_, [](const auto& e) { return e.second.expired(); });
}

void Medium::refresh_tree_if_stale() {
    if (!bulk_stale_) {
#ifndef NDEBUG
        for (std::size_t i = 0; i < radios_.size(); ++i) {
            // A mismatch means something moved a radio without calling
            // note_position[s]_moved() — the position contract.
            assert(!available_[i] ||
                   tree_.cached_position(static_cast<std::uint32_t>(i)) ==
                       radios_[i]->position());
        }
#endif
        return;
    }
    tree_.refresh_all(
        [this](std::uint32_t id) { return radios_[id]->position(); });
    bulk_stale_ = false;
}

void Medium::begin_transmission(Radio& sender, const net::Packet& packet,
                                sim::Duration airtime) {
    sweep_expired();
    const sim::TimePoint start = sim_.now();
    const sim::TimePoint end = start + airtime;
    const geom::Vec2 tx_pos = sender.position();

    // Per-frame key for the counter-based RSSI draws. frame_seq_ advances
    // once per transmission whether or not culling is enabled, so a frame's
    // draws are a pure function of (medium seed, frame number, receiver id).
    // The launch number doubles as the frame's durable identity
    // (AirFrame::seq) for checkpoint/restore.
    const std::uint64_t fseq = frame_seq_++;
    const std::uint64_t frame_key =
        sim::splitmix64_mix(rssi_seed_base_ ^ sim::splitmix64_mix(fseq));

    // Fault-injected loss bursts covering this frame's start (none on the
    // default path: loss_ stays empty unless a FaultInjector armed bursts).
    phy::LossSchedule::Effect loss_effect;
    if (!loss_.empty()) loss_effect = loss_.effect_at(start);

    // Sample each visited receiver's RSSI and record the carrier-sense
    // verdicts sparsely, so a radio that wakes mid-flight reads the same
    // answer the live path acted on. Culled (out-of-influence) radios keep
    // the not-sensed verdict their clamped draw could never overturn, and
    // unavailable (off / in-outage) radios are invisible to propagation.
    cca_tags_.clear();
    std::uint64_t visited = 0;
    // The tail of one visited receiver's evaluation once its RSSI is known
    // (std::nullopt: quiet, it cannot sense the frame): loss bursts, then
    // the sensed verdict. The receiver id comes from ids_, so a quiet lane
    // never touches its Radio.
    const auto record = [&](std::size_t i, std::uint64_t id, std::optional<double> rssi) {
        ++visited;
        if (loss_effect.active) {
            if (rssi) *rssi -= loss_effect.attenuation_db;
            if (loss_effect.drop_prob > 0.0) {
                // Counter-based drop draw keyed like the RSSI draw (its own
                // base seed): dropping receiver i is a pure function of
                // (medium seed, frame number, receiver id), independent of
                // culling and of every other receiver's draw. Quiet lanes
                // draw it too, so fault.rx_dropped counts every visited one.
                sim::SplitMix64 drop_rng(sim::splitmix64_mix(
                    loss_seed_base_ ^ frame_key ^ sim::splitmix64_mix(id + 0x7b2ec997)));
                const double u = static_cast<double>(drop_rng() >> 11) * 0x1.0p-53;
                if (u < loss_effect.drop_prob) {
                    // The frame never exists for this receiver: not sensed,
                    // not decodable, invisible to a wake-time rebuild too.
                    ++stats_.fault_rx_dropped;
                    return;
                }
            }
        }
        if (rssi && channel_.sensed(*rssi)) {
            cca_tags_.push_back(sim::make_tag(
                sim::EventKind::kMediumCca, static_cast<std::uint32_t>(i),
                channel_.decodable(*rssi) ? 1u : 0u, 0, fseq,
                std::bit_cast<std::uint64_t>(*rssi)));
        }
    };
    if (config_.interference_culling) {
        refresh_tree_if_stale();
        // Vectorized fanout: gather the window's candidates (cached slot
        // positions — equal to the live ones under the note_position_moved
        // contract the Debug sweep above just verified) into the SoA batch,
        // and let the kernel cull them and finish every kept lane's draw.
        // The radius cache prunes provably-out-of-disk window cells before
        // the gather in dense neighbourhoods.
        fanout_batch_.clear();
        const auto sender_idx = static_cast<std::uint32_t>(sender.attach_index());
        // The sender is gathered like any candidate (no per-candidate branch
        // on the hot gather) and filtered below, where the check runs once
        // per *kept* lane instead of once per lane.
        tree_.for_each_in_radius(tx_pos, cull_radius_m_, &radius_cache_,
                                 [&](std::uint32_t i, geom::Vec2 cached) {
                                     fanout_batch_.push(i, cached.x, cached.y);
                                 });
        fanout_batch_.seal();
        const std::size_t kept = fanout::cull_and_prepare(
            fanout::make_plan(fanout_batch_, tx_pos, gaps_, ids_.data(), frame_key));
        for (std::size_t k = 0; k < kept; ++k) {
            const std::size_t l = fanout_batch_.kept_lanes[k];
            const std::uint32_t i = fanout_batch_.idx[l];
            if (i == sender_idx) continue;
            const fanout::Verdict verdict = fanout_batch_.verdict[l];
            const bool settled = verdict == fanout::Verdict::kSettledQuiet ||
                                 verdict == fanout::Verdict::kSettledUnsensed;
#ifndef NDEBUG
            {
                // Every lane against the scalar draw from the same key: a
                // settled lane's draw ends unsensed (and a step-1 lane's is
                // quiet), a drawn lane's verdict and RSSI are its bits.
                const double d = std::sqrt(fanout_batch_.dq[l]);
                const double mean = channel_.mean_rssi_dbm(d);
                const double sigma = channel_.shadowing_sigma_db(d);
                const double fade = channel_.fade_mean_db(d);
                const std::uint64_t key = fanout::rssi_key(frame_key, ids_[i]);
                sim::SplitMix64 quick(key);
                sim::SplitMix64 full(key);
                const std::optional<double> want =
                    channel_.sample_rssi_or_quiet(mean, sigma, fade, quick);
                const double full_rssi = channel_.sample_rssi_from(mean, sigma, fade, full);
                // Decodability-threshold invariant: every kept lane lies
                // within the influence radius, where the mean plus the
                // maximum clamped shadowing boost reaches carrier sense (the
                // 1e-2 dB tolerance absorbs the radius inflation sliver the
                // cull radius adds over the influence range).
                assert(mean + channel_.config().shadowing_clamp_sigmas * sigma >=
                       channel_.config().carrier_sense_dbm - 1e-2);
                if (settled) {
                    assert(!channel_.sensed(full_rssi));
                    assert(verdict != fanout::Verdict::kSettledQuiet || !want);
                } else if (verdict == fanout::Verdict::kQuiet) {
                    assert(!want);
                } else {
                    assert(want && std::bit_cast<std::uint64_t>(*want) ==
                                       std::bit_cast<std::uint64_t>(
                                           fanout_batch_.rssi_dbm[l]));
                }
            }
#endif
            // A settled lane is recorded as quiet: it is visited, takes the
            // loss-burst drop draw, and stays unsensed, exactly as the
            // scalar draw would leave it.
            if (settled) ++settled_lanes_;
            record(i, ids_[i],
                   verdict == fanout::Verdict::kHeard
                       ? std::optional<double>(fanout_batch_.rssi_dbm[l])
                       : std::nullopt);
        }
        // The CCA run below fires its elements in tag order, which must be
        // attach order: the unculled sweep records receivers ascending, and
        // the frame's sensed_by list is binary-searched.
        std::sort(cca_tags_.begin(), cca_tags_.end(),
                  [](const sim::EventTag& a, const sim::EventTag& b) {
                      return a.node < b.node;
                  });
    } else {
        // The unculled sweep, the batch fanout's whole-run reference:
        // live-position distance, the channel terms, then the scalar
        // counter-based draw. The channel terms here and in the kernels are
        // the same out-of-line functions over the same IEEE distance, and
        // the kernel's drawn lanes repeat this draw's operation sequence.
        // Where the mean RSSI lies below carrier sense, the channel's quiet
        // draw mostly settles the verdict from the gaussian's polar pair
        // alone (no log, no sqrt, no fade).
        for (std::size_t i = 0; i < radios_.size(); ++i) {
            Radio* r = radios_[i];
            if (r == &sender) continue;
            if (available_[i] == 0) continue;  // dead air for dead radios
            const double dist = geom::distance(r->position(), tx_pos);
            const double mean = channel_.mean_rssi_dbm(dist);
            const double sigma = channel_.shadowing_sigma_db(dist);
            const double fade = channel_.fade_mean_db(dist);
            const std::uint64_t key = fanout::rssi_key(frame_key, ids_[i]);
            sim::SplitMix64 rng(key);
            const std::optional<double> rssi =
                channel_.sample_rssi_or_quiet(mean, sigma, fade, rng);
#ifndef NDEBUG
            if (!rssi) {
                // Quiet-verdict invariant: the full draw from the same key
                // stays below carrier sense (attenuation only lowers it
                // further).
                sim::SplitMix64 full(key);
                assert(!channel_.sensed(channel_.sample_rssi_from(mean, sigma, fade, full)));
            }
#endif
            record(i, ids_[i], rssi);
        }
    }
    stats_.radios_visited += visited;
    stats_.radios_culled += static_cast<std::uint64_t>(radios_.size()) - 1 - visited;

    AirFrame::SensedBy sensed{sim::PoolAllocator<std::uint32_t>(sensed_core_)};
    sensed.reserve(std::max(kSensedReserve, cca_tags_.size()));
    for (const sim::EventTag& tag : cca_tags_) sensed.push_back(tag.node);

    // One pooled block carries the shared_ptr control block and the frame;
    // in steady state both it and the sensed_by block above come straight
    // off a free list, so a transmission allocates nothing.
    auto frame = frame_pool_.acquire(
        AirFrame{packet, sender.id(), tx_pos, start, end, fseq, false, std::move(sensed)});
    active_.push_back(frame);
    launched_.emplace_back(fseq, frame);
    ++stats_.frames_sent;
    obs_.trace.complete(start, end, "mac", "frame",
                        static_cast<std::int64_t>(sender.id()),
                        {{"bytes", static_cast<double>(packet.wire_bytes())}});

    // Carrier sensing and receiver lock-on take a CCA delay; radio state is
    // re-checked at that point (the radio may have slept meanwhile). One run
    // carries every sensed receiver's delivery, in attach order: the events,
    // seqs and tags of one schedule per receiver, in one heap slot.
    sim_.schedule_run(
        start + config_.cca_delay,
        [this, frame = std::shared_ptr<const AirFrame>(frame)](const sim::EventTag& tag) {
            cca_fire(radios_[tag.node], frame, std::bit_cast<double>(tag.b), tag.x != 0);
        },
        cca_tags_);
}

void Medium::schedule_frame_end(const Radio& radio,
                                const std::shared_ptr<const AirFrame>& frame) {
    const sim::EventTag tag =
        sim::make_tag(sim::EventKind::kRadioFrameEnd,
                      static_cast<std::uint32_t>(radio.attach_index()), 0, 0, frame->seq);
    // Receivers lock onto a frame only while its CCA run fires, back to back,
    // so the frame's frame-ends extend one run. The kernel refuses the
    // extension once the run has fired or anything else has been scheduled
    // since; the frame then opens a fresh run.
    if (frame_end_run_.frame_seq == frame->seq &&
        sim_.extend_run(frame_end_run_.id, frame->end, tag)) {
        return;
    }
    frame_end_run_.frame_seq = frame->seq;
    frame_end_run_.id = sim_.schedule_run(
        frame->end,
        [this, frame](const sim::EventTag& t) { radios_[t.node]->on_frame_end(frame); },
        std::span<const sim::EventTag>(&tag, 1));
}

void Medium::cca_fire(Radio* r, const std::shared_ptr<const AirFrame>& frame,
                      double rssi_dbm, bool decodable) {
    // A frame whose transmitter died within the CCA window never registers
    // at the receiver (its end may already be in the past).
    if (frame->truncated) return;
    if (!r->awake()) {
        if (decodable) ++stats_.missed_asleep;
        return;
    }
    r->on_frame_start(frame, rssi_dbm, decodable);
}

void Medium::truncate_transmission(Radio& sender) {
    const sim::TimePoint now = sim_.now();
    for (const auto& frame : active_) {
        if (frame->sender != sender.id() || frame->end <= now || frame->truncated) {
            continue;
        }
        frame->truncated = true;
        frame->end = now;
        ++stats_.frames_truncated;
        obs_.trace.instant(now, "mac", "frame_truncated",
                           static_cast<std::int64_t>(sender.id()));
        // Tell nearby radios the air went quiet early: carrier sense
        // shortens, and a receiver locked on this frame aborts its decode.
        // Radios beyond the (slack-padded) cull radius of the transmit
        // position never sensed the frame, so the tree query skips them.
        const double r2 = truncate_radius_m_ * truncate_radius_m_;
        const auto in_range = [&](std::uint32_t i) {
            return radios_[i] != &sender &&
                   geom::distance_sq(radios_[i]->position(), frame->sender_position) <= r2;
        };
        // Notifications restart CSMA (schedule events), so they must run in
        // ascending attach order — the FIFO tie-break same-timestamp events
        // rely on.
        std::vector<std::uint32_t> targets;
        refresh_tree_if_stale();
        tree_.for_each_in_radius(frame->sender_position, truncate_radius_m_,
                                 [&](std::uint32_t i, geom::Vec2 /*cached*/) {
                                     if (in_range(i)) targets.push_back(i);
                                 });
        std::sort(targets.begin(), targets.end());
        for (const std::uint32_t i : targets) radios_[i]->on_frame_truncated(frame);
    }
}

namespace {
constexpr std::uint32_t kMarkMedium = 0x4d45444du;  // "MEDM"
}  // namespace

template <typename Ar, typename Self>
void Medium::walk(Ar& ar, Self& m) {
    ar.mark(kMarkMedium);
    std::vector<phy::LossBurst> bursts = m.loss_.bursts();
    // Index and radius-cache bookkeeping: unregistered, but surfaced through
    // the swarm table / swarm-json line, so a restored run must report the
    // straight run's values.
    spatial::CellTreeStats tree_stats = m.tree_.stats();
    spatial::RadiusCacheStats cache_stats = m.radius_cache_.stats();
    // Cache content (recency order): a restored cache must be exactly as
    // warm as the straight run's, or hit/miss counts diverge afterwards.
    auto cached = m.radius_cache_.export_entries();
    // Learned block sizes come before the frames so a restore can pre-seed
    // the cores: the first restored allocation must classify exactly like the
    // straight run's did.
    std::array<std::size_t, 3> block_sizes = {m.frame_pool_.core()->block_size(),
                                              m.sensed_core_->block_size(),
                                              m.packet_pool_.core()->block_size()};
    ar(m.frame_seq_, bursts, m.stats_, tree_stats, cache_stats, cached, block_sizes);
    if constexpr (Ar::loading) {
        for (std::size_t i = 0; i < bursts.size(); ++i) {
            try {
                m.loss_.add(bursts[i]);
            } catch (const std::invalid_argument& e) {
                throw std::runtime_error("checkpoint: loss burst " + std::to_string(i) +
                                         " rejected (" + e.what() + ") — corrupt blob");
            }
        }
        m.restore_tree_stats_ = tree_stats;
        m.restore_cache_stats_ = cache_stats;
        m.radius_cache_.import_entries(cached);
        m.frame_pool_.core()->set_block_size(block_sizes[0]);
        m.sensed_core_->set_block_size(block_sizes[1]);
        m.packet_pool_.core()->set_block_size(block_sizes[2]);
        // Inner packets come back into the pool live code builds them from.
        ar.restore_shared_into(m.packet_pool_.core());
        m.active_.clear();
        m.launched_.clear();
        m.restore_frames_.clear();
    }
    // Every frame still referenced anywhere, in launch order (canonical form:
    // identical runs write identical blobs).
    std::vector<std::shared_ptr<AirFrame>> frames;
    if constexpr (!Ar::loading) {
        for (const auto& [seq, weak] : m.launched_) {
            if (auto frame = weak.lock()) frames.push_back(std::move(frame));
        }
        std::sort(frames.begin(), frames.end(),
                  [](const auto& a, const auto& b) { return a->seq < b->seq; });
    }
    const std::size_t nframes = ar.count(frames);
    for (std::size_t i = 0; i < nframes; ++i) {
        if constexpr (Ar::loading) {
            // A blank frame whose sensed list allocates from the sensed pool.
            frames.push_back(m.frame_pool_.acquire(AirFrame{
                {}, net::kInvalidId, {}, {}, {}, 0, false,
                AirFrame::SensedBy{sim::PoolAllocator<std::uint32_t>(m.sensed_core_)}}));
        }
        AirFrame& f = *frames[i];
        ar(f.seq, f.packet, f.sender, f.sender_position, f.start, f.end, f.truncated);
        // Mirror begin_transmission's reservation exactly, so the sensed
        // block classifies (pooled vs oversize) like the original did.
        const std::size_t nsensed = ar.count(f.sensed_by);
        if constexpr (Ar::loading) {
            f.sensed_by.reserve(std::max(kSensedReserve, nsensed));
            f.sensed_by.resize(nsensed);
        }
        for (auto& idx : f.sensed_by) ar(idx);
        if constexpr (Ar::loading) {
            m.launched_.emplace_back(f.seq, frames[i]);
            m.restore_frames_.emplace(f.seq, frames[i]);
        }
    }
    std::vector<std::uint64_t> active;
    for (const auto& frame : m.active_) active.push_back(frame->seq);
    ar(active);
    if constexpr (Ar::loading) {
        for (const std::uint64_t seq : active) m.active_.push_back(m.restored_frame(seq));
        // Cached tree positions refresh wholesale before the next query;
        // membership itself is rebuilt by the radios' availability restore.
        // The churn perturbs only unregistered index stats, which
        // finish_restore() stamps back to the saved values once it is over.
        m.note_positions_moved();
    }
}
template void Medium::walk(sim::ckpt::Writer&, const Medium&);
template void Medium::walk(sim::ckpt::Reader&, Medium&);

void Medium::finish_restore() {
    restore_frames_.clear();
    // Run the post-load refresh sweep NOW, while it is still attributable to
    // the restore, then overwrite the bookkeeping with the snapshot values.
    // From here on the index counters advance exactly as the straight run's
    // would — a restored run's swarm table diffs clean.
    refresh_tree_if_stale();
    tree_.set_stats(restore_tree_stats_);
    radius_cache_.set_stats(restore_cache_stats_);
}

const std::shared_ptr<AirFrame>& Medium::restored_frame(std::uint64_t seq) const {
    const auto it = restore_frames_.find(seq);
    if (it == restore_frames_.end()) {
        throw std::runtime_error("Medium::restored_frame: unknown frame seq " +
                                 std::to_string(seq));
    }
    return it->second;
}

void Medium::register_rebuilders(sim::ckpt::CallbackRegistry& reg) {
    reg.add(sim::EventKind::kMediumCca, [this](const sim::EventTag& tag) {
        Radio* r = radios_.at(tag.node);
        std::shared_ptr<const AirFrame> frame = restored_frame(tag.a);
        const double rssi = std::bit_cast<double>(tag.b);
        const bool decodable = tag.x != 0;
        return sim::InplaceCallback([this, r, frame, rssi, decodable] {
            cca_fire(r, frame, rssi, decodable);
        });
    });
    reg.add(
        sim::EventKind::kRadioAttempt,
        [this](const sim::EventTag& tag) {
            Radio* r = radios_.at(tag.node);
            return sim::InplaceCallback([r] { r->attempt_tx(); });
        },
        [this](const sim::EventTag& tag, sim::EventId id) {
            radios_.at(tag.node)->attempt_event_ = id;
        });
    reg.add(sim::EventKind::kRadioEndTx, [this](const sim::EventTag& tag) {
        Radio* r = radios_.at(tag.node);
        return sim::InplaceCallback([r] { r->end_tx(); });
    });
    reg.add(sim::EventKind::kRadioFrameEnd, [this](const sim::EventTag& tag) {
        Radio* r = radios_.at(tag.node);
        std::shared_ptr<const AirFrame> frame = restored_frame(tag.a);
        return sim::InplaceCallback([r, frame] { r->on_frame_end(frame); });
    });
}

sim::TimePoint Medium::sensed_until_for(const Radio& listener) const {
    const std::size_t idx = listener.attach_index();
    sim::TimePoint until = sim_.now();
    for (const auto& frame : active_) {
        if (frame->end <= sim_.now() || frame->sender == listener.id()) continue;
        if (frame->senses(idx)) {
            until = std::max(until, frame->end);
        }
    }
    return until;
}

}  // namespace cocoa::mac
