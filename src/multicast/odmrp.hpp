#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/fields.hpp"

namespace cocoa::sim {
struct EventTag;
namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt
}  // namespace cocoa::sim

namespace cocoa::multicast {

/// Protocol variant. MRMM (Das et al., ICRA'05) is ODMRP extended with the
/// mobility knowledge of robot networks:
///  - upstream selection by maximum predicted bottleneck link lifetime
///    instead of first-heard JOIN QUERY, which concentrates the mesh on
///    long-lived links (fewer reconstructions, sparser forwarding group);
///  - redundant data rebroadcast suppression (a forwarder that has already
///    heard the same data echoed by enough neighbours stays quiet).
enum class Variant { Odmrp, Mrmm };

struct MulticastConfig {
    Variant variant = Variant::Mrmm;

    /// JOIN QUERY refresh period while a source is active.
    sim::Duration refresh_interval = sim::Duration::seconds(20.0);
    /// When false, no periodic timer runs: the application drives mesh
    /// refreshes via refresh_now() (CoCoA does this at period starts so all
    /// radios are guaranteed awake).
    bool auto_refresh = true;
    /// Forwarding-group soft-state lifetime (typically ~3x refresh).
    sim::Duration fg_timeout = sim::Duration::seconds(60.0);
    /// Max hops a JOIN QUERY travels.
    std::uint8_t max_hops = 16;

    /// Random delay before JOIN REPLY / query rebroadcast (collision avoidance).
    sim::Duration reply_jitter_max = sim::Duration::millis(50);
    /// Random delay before a forwarder echoes a data packet.
    sim::Duration data_jitter_max = sim::Duration::millis(20);

    /// MRMM: how long a node collects JOIN QUERY copies before picking its
    /// upstream (0 = act on first copy, i.e. classic ODMRP behaviour).
    sim::Duration query_aggregation = sim::Duration::millis(120);
    /// MRMM: suppress a data rebroadcast after hearing this many copies
    /// (0 = never suppress).
    int data_suppression_copies = 2;
    /// Range used by the link-lifetime predictor; 0 = channel nominal range.
    double lifetime_range_m = 0.0;

    /// Wire-size accounting (application payload bytes).
    std::size_t query_bytes = 44;
    std::size_t reply_bytes = 24;
    std::size_t data_header_bytes = 16;

    /// The field list (sim/fields.hpp).
    static constexpr auto fields() {
        using namespace sim::fields;
        using C = MulticastConfig;
        return std::tuple{
            field("variant", &C::variant, up_to(Variant::Mrmm)),
            field("refresh_interval", &C::refresh_interval, positive),
            field("auto_refresh", &C::auto_refresh),
            field("fg_timeout", &C::fg_timeout, positive),
            field("max_hops", &C::max_hops),
            field("reply_jitter_max", &C::reply_jitter_max, non_negative),
            field("data_jitter_max", &C::data_jitter_max, non_negative),
            field("query_aggregation", &C::query_aggregation, non_negative),
            field("data_suppression_copies", &C::data_suppression_copies, at_least(0)),
            field("lifetime_range_m", &C::lifetime_range_m, non_negative),
            field("query_bytes", &C::query_bytes),
            field("reply_bytes", &C::reply_bytes),
            field("data_header_bytes", &C::data_header_bytes),
        };
    }
};
static_assert(sim::fields::lists_every_member<MulticastConfig>());

/// Per-node ODMRP/MRMM instance. Attach one to each robot; pick one node as
/// the source per group (CoCoA: the Sync robot), join() the members, then
/// send_data() flows down the mesh.
class MulticastNode {
  public:
    /// Called on group members for each unique data packet, with the inner
    /// application packet.
    using DeliverHandler =
        std::function<void(net::GroupId, const net::Packet& inner, const net::RxInfo&)>;

    struct Stats {
        std::uint64_t queries_sent = 0;      ///< originated + rebroadcast
        std::uint64_t replies_sent = 0;
        std::uint64_t data_sent = 0;         ///< originated + forwarded
        std::uint64_t data_suppressed = 0;   ///< MRMM redundancy suppression
        std::uint64_t data_delivered = 0;    ///< unique deliveries to this member
        std::uint64_t data_duplicates = 0;
        std::uint64_t dropped_asleep = 0;    ///< sends skipped because the radio slept
    };

    MulticastNode(net::Node& node, const MulticastConfig& config);

    MulticastNode(const MulticastNode&) = delete;
    MulticastNode& operator=(const MulticastNode&) = delete;

    void set_deliver_handler(DeliverHandler handler) { deliver_ = std::move(handler); }

    /// Becomes a receiving member of `group`.
    void join(net::GroupId group);
    void leave(net::GroupId group);
    bool is_member(net::GroupId group) const { return member_groups_.contains(group); }

    /// Starts periodic JOIN QUERY refreshes for `group` with this node as the
    /// multicast source.
    void start_source(net::GroupId group);
    void stop_source(net::GroupId group);

    /// Immediately floods one extra JOIN QUERY round (e.g. right before an
    /// important data burst, as CoCoA does at period boundaries).
    void refresh_now(net::GroupId group);

    /// Sends `inner` down the mesh. Only valid on an active source.
    void send_data(net::GroupId group, std::shared_ptr<const net::Packet> inner);

    /// True while this node holds forwarding-group soft state for `group`.
    bool is_forwarder(net::GroupId group) const;

    /// Drops all volatile protocol state, as a real reboot would: pending
    /// upstream decisions and forward timers are cancelled; forwarding-group
    /// membership, reply history and the data-dedup cache are cleared. Group
    /// membership and active-source roles (with their sequence counters)
    /// survive — they are configuration, and a rebooted source re-using old
    /// seqs would collide with copies still cached at receivers.
    void reset_soft_state();

    const Stats& stats() const { return stats_; }
    net::NodeId id() const { return node_.id(); }

    /// Checkpoint walk (sim/checkpoint.hpp): all protocol soft state
    /// (rounds, forwarding group, dedup caches, parked jittered
    /// transmissions with their packets) plus the stats and the jitter RNG.
    /// Pending kernel events are *not* walked here — the kernel snapshot
    /// holds them; event()/event_placed() rebuild the callbacks and re-learn
    /// the EventIds on restore.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& n);
    /// The callback of one of this node's tagged events (kMcastRefresh /
    /// kMcastDecision / kMcastJitteredTx), live or restored; the fleet's
    /// handlers route each tag here by node id.
    sim::InplaceCallback event(const sim::EventTag& tag);
    /// Invoked after the kernel re-schedules a rebuilt event, so the state
    /// maps can re-learn the EventId (for later cancel()).
    void event_placed(const sim::EventTag& tag, sim::EventId id);

  private:
    struct QueryKey {
        net::GroupId group;
        net::NodeId source;
        auto operator<=>(const QueryKey&) const = default;
    };
    // The walks of the three structs below skip their EventIds, which
    // event_placed() re-learns on restore.
    /// Pending upstream decision for one (group, source) refresh round.
    struct QueryRound {
        std::uint32_t seq = 0;
        bool rebroadcast_done = false;
        std::uint8_t best_hops = 0;
        net::NodeId best_upstream = net::kInvalidId;
        double best_lifetime = -1.0;
        double best_path_lifetime = -1.0;  ///< value to propagate if we rebroadcast
        sim::EventId decision_event;

        template <typename Ar, typename Self>
        static void walk(Ar& ar, Self& r) {
            ar(r.seq, r.rebroadcast_done, r.best_hops, r.best_upstream, r.best_lifetime,
               r.best_path_lifetime);
        }
    };
    struct SourceState {
        std::uint32_t next_query_seq = 0;
        std::uint32_t next_data_seq = 0;
        sim::EventId refresh_event;

        template <typename Ar, typename Self>
        static void walk(Ar& ar, Self& s) {
            ar(s.next_query_seq, s.next_data_seq);
        }
    };
    struct PendingForward {
        sim::EventId event;
        int copies_heard = 0;
        std::uint64_t tx_id = 0;  ///< parked packet in pending_tx_

        template <typename Ar, typename Self>
        static void walk(Ar& ar, Self& f) {
            ar(f.copies_heard, f.tx_id);
        }
    };
    /// What a parked jittered transmission does when its timer fires.
    enum class TxKind : std::uint8_t { Query = 0, Reply = 1, DataForward = 2 };
    friend constexpr TxKind last_enumerator(TxKind) { return TxKind::DataForward; }
    /// A fully-built packet waiting out its collision-avoidance jitter. The
    /// kernel event only carries the id, so the packet itself checkpoints
    /// with the rest of the protocol state.
    struct PendingTx {
        net::Packet packet;
        TxKind kind = TxKind::Reply;
        QueryKey key{};             ///< DataForward: pending_forwards_ entry
        std::uint32_t data_seq = 0;

        template <typename Ar, typename Self>
        static void walk(Ar& ar, Self& t) {
            ar(t.kind, t.key, t.data_seq, t.packet);
        }
    };

    /// Sends unless the radio has gone to sleep in the meantime (window-edge
    /// races between protocol jitter timers and the CoCoA sleep schedule).
    void safe_send(net::Packet packet);

    void on_control(const net::Packet& packet, const net::RxInfo& info);
    void on_data(const net::Packet& packet, const net::RxInfo& info);
    void handle_query(const net::JoinQueryPayload& query, const net::RxInfo& info);
    void handle_reply(const net::JoinReplyPayload& reply);
    void decide_upstream(QueryKey key);
    void send_reply(net::GroupId group, net::NodeId source, std::uint32_t seq,
                    net::NodeId next_hop);
    void schedule_refresh(net::GroupId group);
    void do_refresh(net::GroupId group);
    double predicted_link_lifetime(const geom::MotionState& sender) const;
    std::uint64_t park_tx(net::Packet packet, TxKind kind, QueryKey key = {},
                          std::uint32_t data_seq = 0);
    void fire_pending_tx(std::uint64_t id);

    net::Node& node_;
    MulticastConfig config_;
    sim::RandomStream jitter_rng_;
    DeliverHandler deliver_;

    std::map<net::GroupId, bool> member_groups_;
    std::map<net::GroupId, SourceState> sources_;
    std::map<net::GroupId, sim::TimePoint> forwarder_until_;
    std::map<QueryKey, QueryRound> rounds_;
    /// Seq of the last JOIN REPLY sent per (group, source) — one per round.
    std::map<QueryKey, std::uint32_t> replied_seq_;
    /// Data seqs already seen per (group, source); traffic is light enough
    /// that an explicit set is the simplest correct dedup.
    std::map<QueryKey, std::set<std::uint32_t>> data_seen_;
    std::map<std::pair<QueryKey, std::uint32_t>, PendingForward> pending_forwards_;
    /// Jitter-parked transmissions keyed by the id their kernel event carries.
    std::map<std::uint64_t, PendingTx> pending_tx_;
    std::uint64_t next_tx_id_ = 0;

    Stats stats_;
};

/// Bundles per-node instances for a whole world (used by scenarios/benches)
/// and registers the multicast kinds' handlers with the world's simulator,
/// so at most one fleet serves a simulator.
class MulticastFleet {
  public:
    MulticastFleet(net::World& world, const MulticastConfig& config);

    /// Not copyable: the registered handlers hold `this`.
    MulticastFleet(const MulticastFleet&) = delete;
    MulticastFleet& operator=(const MulticastFleet&) = delete;

    MulticastNode& at(net::NodeId id) { return *nodes_.at(id); }
    const MulticastNode& at(net::NodeId id) const { return *nodes_.at(id); }
    std::size_t size() const { return nodes_.size(); }

    /// Sums per-node stats across the fleet.
    MulticastNode::Stats total_stats() const;

  private:
    std::vector<std::unique_ptr<MulticastNode>> nodes_;
};

}  // namespace cocoa::multicast
