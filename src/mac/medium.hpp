#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mac/airframe.hpp"
#include "mac/fanout_kernels.hpp"
#include "mac/spatial.hpp"
#include "obs/obs.hpp"
#include "phy/channel.hpp"
#include "phy/loss.hpp"
#include "sim/fields.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace cocoa::mac {

class Radio;

struct MediumConfig {
    /// An interfering frame within this margin (dB) of the locked frame's
    /// power corrupts the reception; weaker interference is captured over.
    double capture_margin_db = 10.0;
    /// Clear-channel-assessment latency: a transmission is only sensed (and
    /// receivable) this long after it starts. Two stations whose backoffs
    /// expire within this window both transmit — the DCF vulnerability slot
    /// that makes collisions physical.
    sim::Duration cca_delay = sim::Duration::micros(15);
    /// Skip radios beyond the channel's max-influence radius when fanning a
    /// transmission out (Glomosim-style interference culling). Because RSSI
    /// draws are counter-based per (frame, receiver) and the clamped
    /// shadowing tail bounds the radius conservatively, culling is exact:
    /// the simulation is bit-identical with it on or off.
    bool interference_culling = true;
    /// Register per-node "node.<id>.*" counters (MAC + energy) when radios
    /// attach. On by default; the 10k–100k-node swarm scenarios turn it off
    /// so the registry does not hold hundreds of thousands of string names.
    bool register_node_counters = true;

    /// The field list (sim/fields.hpp).
    static constexpr auto fields() {
        using namespace sim::fields;
        using C = MediumConfig;
        return std::tuple{
            field("capture_margin_db", &C::capture_margin_db, non_negative),
            field("cca_delay", &C::cca_delay, non_negative),
            field("interference_culling", &C::interference_culling),
            field("register_node_counters", &C::register_node_counters),
        };
    }
};
static_assert(sim::fields::lists_every_member<MediumConfig>());

/// The shared wireless medium: propagates every transmission to all attached
/// radios using the channel model, sampling per-link RSSI and applying
/// wake/sleep, sensitivity, collision and capture rules.
///
/// Also owns the per-simulation observability context (counter registry +
/// trace sink): every radio, agent and multicast node shares the medium, so
/// they all register their counters and emit trace events through obs().
class Medium {
  public:
    struct Stats {
        std::uint64_t frames_sent = 0;
        /// Frames a sleeping radio would have decoded had it been awake.
        std::uint64_t missed_asleep = 0;
        /// Receivers actually visited (RSSI sampled) across transmissions,
        /// and receivers skipped by interference culling or radio
        /// unavailability. Deliberately NOT registered in the counter
        /// registry: culling must be unobservable, and the
        /// sparse_3k@no-culling golden case pins `--counters` output between
        /// culling on and off. Tests read them through stats() instead.
        std::uint64_t radios_visited = 0;
        std::uint64_t radios_culled = 0;
        /// In-flight frames cut short by their transmitter dying, and
        /// receptions suppressed by a fault-injected loss burst. Registered
        /// (as fault.*) only when a FaultInjector arms a non-empty plan, so
        /// the off-path `--counters` output is unchanged.
        std::uint64_t frames_truncated = 0;
        std::uint64_t fault_rx_dropped = 0;
    };

    /// Radius-cache sizing: a key is one of a cell's 4x4 sub-cell quanta, so
    /// 4096 masks cover 256 cells, a ~2 km x 2 km active area of the swarm's
    /// ~128 m cells, before the LRU recycles, ~220 KB once full; tiles below
    /// 16 radios skip the cache (scanning a handful of candidates outright
    /// is cheaper than the mask lookup).
    static constexpr std::size_t kRadiusCacheCapacity = 4096;
    static constexpr std::uint32_t kRadiusCacheDensePopulation = 16;

    Medium(sim::Simulator& sim, const phy::Channel& channel, MediumConfig config = {});

    Medium(const Medium&) = delete;
    Medium& operator=(const Medium&) = delete;

    /// Registers a radio and returns its attach index (dense, starting at
    /// 0); the pointer must outlive the medium's use. Radios are born
    /// available (powered on) and enter the cell tree at their current
    /// position.
    std::size_t attach(Radio& radio);

    /// Starts propagating `packet` from `sender` for `airtime`. Called by
    /// Radio::begin_tx only.
    void begin_transmission(Radio& sender, const net::Packet& packet,
                            sim::Duration airtime);

    /// Schedules `radio`'s end-of-reception event for `frame` (at
    /// frame->end), as an element of the frame's frame-end run when it can.
    /// Called by Radio::on_frame_start only.
    void schedule_frame_end(const Radio& radio,
                            const std::shared_ptr<const AirFrame>& frame);

    /// Cuts `sender`'s in-flight frame short at the current time (the
    /// transmitter died or dropped into an outage): the frame becomes
    /// undecodable, nearby radios' carrier-sense state is rebuilt, and
    /// receivers locked on it abort (counted as rx_aborted). No-op when the
    /// sender has no frame in flight.
    void truncate_transmission(Radio& sender);

    /// Adds a fault-injected loss burst: while it lasts, every propagated
    /// frame is attenuated and/or dropped per receiver (counter-based draws,
    /// so determinism is unaffected). Fault path only — with no bursts the
    /// transmission path is byte-identical to a build without this feature.
    /// Throws std::invalid_argument for a burst that could amplify or is
    /// empty (see phy::LossSchedule::add).
    void add_loss_burst(const phy::LossBurst& burst) { loss_.add(burst); }

    /// Latest end time of any in-flight frame whose *sampled* power reached
    /// the carrier-sense threshold at `listener` (the verdict recorded on the
    /// AirFrame at transmission start); used to rebuild carrier-sense state
    /// after a radio wakes mid-frame, consistent with the live receive path.
    sim::TimePoint sensed_until_for(const Radio& listener) const;

    /// One radio moved: the position contract. Any code that moves a
    /// position visible through Radio::position() calls this, which migrates
    /// just that radio's cell-tree entry (an integer compare when it stayed
    /// in its cell). CocoaAgent::tick calls it right after advancing its own
    /// mobility. Duplicate notes for the same radio within one simulation
    /// instant are coalesced (a position changes at most once per instant).
    void note_position_moved(const Radio& radio);

    /// Radio availability transitions, called by Radio's power state
    /// machine: an off / in-outage radio is invisible to propagation (no
    /// RSSI draw, no sensed verdict, no missed_asleep accounting) and leaves
    /// the cell tree entirely, so dead robots cost nothing per transmission.
    /// Idempotent.
    void set_radio_available(const Radio& radio, bool available);
    bool radio_available(std::size_t attach_index) const {
        return available_[attach_index] != 0;
    }

    /// Radio power-state transitions, called by Radio::set_state and after a
    /// radio's restore: whether the radio at `attach_index` is awake, so a
    /// CCA delivery to a sleeping radio is counted without loading it.
    void set_radio_awake(std::size_t attach_index, bool awake) {
        awake_[attach_index] = awake ? 1 : 0;
    }

    /// The culling radius actually in use (slightly inflated over the
    /// channel's max-influence range to absorb its bisection rounding).
    double cull_radius_m() const { return cull_radius_m_; }

    const phy::Channel& channel() const { return channel_; }
    double capture_margin_db() const { return config_.capture_margin_db; }
    const MediumConfig& config() const { return config_; }
    const Stats& stats() const { return stats_; }
    sim::Simulator& simulator() { return sim_; }

    /// Cell-tree traffic statistics. Unregistered — see CellTreeStats.
    const spatial::CellTreeStats& index_stats() const { return tree_.stats(); }

    /// The spatial.radius_cache.* family (zeros without interference
    /// culling). Unregistered — see RadiusCacheStats.
    const spatial::RadiusCacheStats& radius_cache_stats() const {
        return radius_cache_.stats();
    }

    /// The fanout gather batch, exposed for tests that pin the steady-state
    /// fast path as allocation-free (capacity stops growing once warm).
    const fanout::Batch& fanout_scratch() const { return fanout_batch_; }

    /// Visited receivers the fanout kernel settled from its bounds (no
    /// channel terms, no draw: fanout::Verdict's two settled kinds) since
    /// this medium was built; the kernel drew every other visited receiver.
    /// A diagnostic: neither registered nor checkpointed, so counter listings
    /// and blobs keep their bytes, and a restored medium counts from zero.
    std::uint64_t settled_lanes() const { return settled_lanes_; }

    /// Slab pool recycling net::Packet blocks, for components that build
    /// steady-state packets (CocoaAgent's SYNC payloads). Stats surface as
    /// kernel.pool.packet.* counters.
    sim::ObjectPool<net::Packet>& packet_pool() { return packet_pool_; }

    /// Frame-pool statistics (kernel.pool.frame.* / kernel.pool.sensed.*),
    /// exposed for tests that assert steady-state recycling directly.
    const sim::PoolStats& frame_pool_stats() const { return frame_pool_.stats(); }
    const sim::PoolStats& sensed_pool_stats() const { return sensed_core_->stats(); }

    obs::Obs& obs() { return obs_; }
    const obs::Obs& obs() const { return obs_; }

    // ------------------------------------------------------------------
    // Checkpoint hooks (sim/checkpoint.hpp). walk() covers the frame
    // counter, armed loss bursts, stats, and every *alive* AirFrame — a frame
    // is alive while anything still references it: the active list, a
    // receiver's lock, or a pending CCA / frame-end callback (a truncated
    // frame can outlive the active list through those). Frames are keyed by
    // AirFrame::seq; restore materialises each exactly once and every
    // reference re-links to that shared instance, preserving both aliasing
    // and the pool free-list lengths.
    // ------------------------------------------------------------------

    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& m);

    /// Frame restored by walk(), by launch number. Throws
    /// std::runtime_error for unknown seqs (blob inconsistency). Valid
    /// between the restore walk and finish_restore.
    const std::shared_ptr<AirFrame>& restored_frame(std::uint64_t seq) const;

    /// Drops the restore table once every subsystem and the kernel have
    /// re-linked their frame references, then refreshes every cached
    /// cell-tree position and stamps the straight run's index/radius-cache
    /// bookkeeping back on (construction and availability-restore churned
    /// them). Must run LAST: it reads the radios' restored positions.
    void finish_restore();

    /// Pool warmth (free-list lengths + stats) for the frame / sensed /
    /// packet pools. Walked *after* every subsystem's state, since later
    /// subsystems still acquire pooled packets during restore.
    template <typename Ar, typename Self>
    static void walk_pools(Ar& ar, Self& m) {
        ar.mark(0x4c4f4f50u);  // "POOL"
        ar(*m.frame_pool_.core(), *m.sensed_core_, *m.packet_pool_.core());
    }

  private:
    void sweep_expired();
    /// CCA-delay delivery tail to the radio at attach index `i`, shared by
    /// the live CCA run and the kMediumCca handler so a restored callback
    /// behaves identically to the one it replaces.
    void cca_fire(std::uint32_t i, const std::shared_ptr<const AirFrame>& frame,
                  double rssi_dbm, bool decodable);
    /// Debug builds: every available radio's cached cell-tree position is its
    /// live one (the note_position_moved contract). No-op in Release.
    void check_position_contract() const;

    sim::Simulator& sim_;
    phy::Channel channel_;
    MediumConfig config_;
    std::vector<Radio*> radios_;
    /// ids_[i] == radios_[i]->id(): the RSSI draw keys on the receiver id,
    /// and reading it here keeps a quiet lane from touching its Radio.
    std::vector<net::NodeId> ids_;
    /// available_[i] mirrors radios_[i]'s power availability (not off, not
    /// in outage); kept here so the medium can gate propagation and index
    /// membership without poking radio internals per receiver.
    std::vector<std::uint8_t> available_;
    /// awake_[i] mirrors radios_[i]->awake(). Coordinated sleep keeps most
    /// swarm radios asleep when a CCA delivery reaches them, and this byte
    /// settles such a delivery without touching the Radio.
    std::vector<std::uint8_t> awake_;
    /// note_stamp_[i]: sim time (ns) of radio i's last note_position_moved,
    /// for coalescing duplicate same-timestamp notes (a position changes at
    /// most once per instant). kNeverNoted never collides with a real time.
    static constexpr std::int64_t kNeverNoted = std::numeric_limits<std::int64_t>::min();
    std::vector<std::int64_t> note_stamp_;
    /// Non-const so truncate_transmission can pull a frame's end forward;
    /// radios only ever see shared_ptr<const AirFrame>.
    std::vector<std::shared_ptr<AirFrame>> active_;
    /// Weak registry of launched frames, compacted alongside the active
    /// sweep. Checkpointing locks it to enumerate every frame still alive
    /// anywhere (locks and pending callbacks hold strong refs the active
    /// list alone would miss).
    std::vector<std::pair<std::uint64_t, std::weak_ptr<AirFrame>>> launched_;
    /// seq -> restored frame, populated by a restore walk so radios and the
    /// CCA / frame-end handlers re-link references; cleared by finish_restore().
    std::unordered_map<std::uint64_t, std::shared_ptr<AirFrame>> restore_frames_;
    /// Snapshot-time index bookkeeping, parked by a restore walk and stamped
    /// back by finish_restore() once the restore churn is over.
    spatial::CellTreeStats restore_tree_stats_;
    spatial::RadiusCacheStats restore_cache_stats_;
    /// Base seed of the counter-based per-(frame, receiver) RSSI draws; mixed
    /// with the frame sequence number and the receiver id, so a draw depends
    /// only on *which* frame reaches *which* radio — never on attach order or
    /// on how many other radios were sampled before it.
    std::uint64_t rssi_seed_base_ = 0;
    /// Same scheme for the per-(frame, receiver) loss-burst drop draws,
    /// under its own base seed so loss draws never correlate with RSSI.
    std::uint64_t loss_seed_base_ = 0;
    std::uint64_t frame_seq_ = 0;
    phy::LossSchedule loss_;
    Stats stats_;
    obs::Obs obs_;

    /// Per-simulation slab pools. Steady-state beacon traffic recycles
    /// AirFrames (control block + object in one pooled block), their
    /// sensed-index vectors and SYNC Packets, so the transmission fast
    /// path performs no heap allocation once warm. Allocator copies hold the
    /// cores via shared_ptr, so pooled blocks safely outlive the Medium
    /// (queue callbacks keep shared_ptr<AirFrame> past world teardown).
    sim::ObjectPool<AirFrame> frame_pool_;
    sim::ObjectPool<net::Packet> packet_pool_;
    std::shared_ptr<sim::SlabCore> sensed_core_ = std::make_shared<sim::SlabCore>();

    // --- spatial index -------------------------------------------------------
    /// See cull_radius_m().
    double cull_radius_m_ = 0.0;
    /// Receivers farther than this from a truncated frame's transmit
    /// position cannot have sensed it (cull radius + slack for the distance
    /// a robot can travel during one frame's airtime).
    double truncate_radius_m_ = 0.0;
    /// Cell side is the cull radius plus the truncation slack, so both the
    /// fan-out query (radius == cull radius) and the truncation fan-out
    /// (radius == cull radius + slack) stay within the tree's exact 3x3
    /// neighbourhood bound.
    spatial::CellTree tree_;
    /// LRU-cached 3x3 window masks for the hot cull-radius query (the
    /// density-adaptive query radius); armed in the constructor for exactly
    /// cull_radius_m_.
    spatial::RadiusCache radius_cache_;
    /// SoA gather target of the vectorized fanout (candidate indices +
    /// cached positions in, per-lane cull verdicts, draw verdicts and RSSI
    /// out); recycled across transmissions so steady-state fanout never
    /// allocates.
    fanout::Batch fanout_batch_;
    /// Per-bucket bounds over the cull disc, for the kernel's settle steps.
    fanout::GapTable gaps_;
    std::uint64_t settled_lanes_ = 0;

    /// Per-transmission scratch, reused across frames: the sensed receivers
    /// of the frame under construction, as the tags of their CCA deliveries
    /// (attach index, sampled RSSI bits, decodable flag), which the frame's
    /// CCA run takes as they are. Sized by the neighbourhood, never by the
    /// team — the fan-out path carries no O(attached radios) work or
    /// storage.
    std::vector<sim::EventTag> cca_tags_;
    /// The frame-end run schedule_frame_end last opened, and its frame.
    struct FrameEndRun {
        sim::EventId id;
        std::uint64_t frame_seq = 0;
    };
    FrameEndRun frame_end_run_;
};

}  // namespace cocoa::mac
