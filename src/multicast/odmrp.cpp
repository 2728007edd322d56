#include "multicast/odmrp.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <variant>

#include "geom/motion.hpp"
#include "net/packet_io.hpp"
#include "sim/checkpoint.hpp"
#include "sim/event_tag.hpp"

namespace cocoa::multicast {

namespace {
constexpr double kInfiniteLifetime = std::numeric_limits<double>::infinity();
}

MulticastNode::MulticastNode(net::Node& node, const MulticastConfig& config)
    : node_(node),
      config_(config),
      jitter_rng_(node.simulator().rng().stream("multicast.jitter", node.id())) {
    node_.host().register_handler(
        net::Port::McastControl,
        [this](const net::Packet& p, const net::RxInfo& i) { on_control(p, i); });
    node_.host().register_handler(
        net::Port::McastData,
        [this](const net::Packet& p, const net::RxInfo& i) { on_data(p, i); });

    const std::string prefix = "node." + std::to_string(node_.id()) + ".mcast.";
    obs::CounterRegistry& reg = node_.radio().medium().obs().counters;
    reg.add(prefix + "queries_sent", &stats_.queries_sent);
    reg.add(prefix + "replies_sent", &stats_.replies_sent);
    reg.add(prefix + "data_sent", &stats_.data_sent);
    reg.add(prefix + "data_suppressed", &stats_.data_suppressed);
    reg.add(prefix + "data_delivered", &stats_.data_delivered);
    reg.add(prefix + "data_duplicates", &stats_.data_duplicates);
    reg.add(prefix + "dropped_asleep", &stats_.dropped_asleep);
}

void MulticastNode::safe_send(net::Packet packet) {
    if (!node_.radio().awake()) {
        ++stats_.dropped_asleep;
        return;
    }
    node_.radio().send(std::move(packet));
}

void MulticastNode::join(net::GroupId group) { member_groups_[group] = true; }

void MulticastNode::leave(net::GroupId group) { member_groups_.erase(group); }

void MulticastNode::start_source(net::GroupId group) {
    if (sources_.contains(group)) return;
    sources_[group];  // default state
    do_refresh(group);
}

void MulticastNode::stop_source(net::GroupId group) {
    auto it = sources_.find(group);
    if (it == sources_.end()) return;
    node_.simulator().cancel(it->second.refresh_event);
    sources_.erase(it);
}

void MulticastNode::refresh_now(net::GroupId group) {
    if (!sources_.contains(group)) {
        throw std::logic_error("MulticastNode::refresh_now: not a source for group");
    }
    do_refresh(group);
}

void MulticastNode::schedule_refresh(net::GroupId group) {
    auto it = sources_.find(group);
    if (it == sources_.end() || !config_.auto_refresh) return;
    it->second.refresh_event = node_.simulator().schedule_in(
        config_.refresh_interval, [this, group] { do_refresh(group); },
        sim::make_tag(sim::EventKind::kMcastRefresh, node_.id(), group));
}

void MulticastNode::do_refresh(net::GroupId group) {
    auto it = sources_.find(group);
    if (it == sources_.end()) return;
    // Cancel any timer refresh that refresh_now() is pre-empting.
    node_.simulator().cancel(it->second.refresh_event);

    net::JoinQueryPayload query;
    query.group = group;
    query.source = node_.id();
    query.seq = it->second.next_query_seq++;
    query.prev_hop = node_.id();
    query.hop_count = 0;
    query.sender_motion = node_.mobility().motion_state();
    query.path_lifetime_s = kInfiniteLifetime;

    net::Packet packet;
    packet.port = net::Port::McastControl;
    packet.payload_bytes = config_.query_bytes;
    packet.payload = query;
    safe_send(std::move(packet));
    ++stats_.queries_sent;

    schedule_refresh(group);
}

double MulticastNode::predicted_link_lifetime(const geom::MotionState& sender) const {
    double range = config_.lifetime_range_m;
    if (range <= 0.0) {
        range = node_.radio().medium().channel().max_range_m();
    }
    return geom::link_lifetime(sender, node_.mobility().motion_state(), range);
}

void MulticastNode::on_control(const net::Packet& packet, const net::RxInfo& info) {
    if (const auto* query = std::get_if<net::JoinQueryPayload>(&packet.payload)) {
        handle_query(*query, info);
    } else if (const auto* reply = std::get_if<net::JoinReplyPayload>(&packet.payload)) {
        handle_reply(*reply);
    }
}

void MulticastNode::handle_query(const net::JoinQueryPayload& query,
                                 const net::RxInfo& /*info*/) {
    if (query.source == node_.id()) return;  // echo of our own flood

    const QueryKey key{query.group, query.source};
    QueryRound& round = rounds_[key];

    if (round.best_upstream != net::kInvalidId && query.seq < round.seq) return;  // stale
    const bool new_round = query.seq > round.seq || round.best_upstream == net::kInvalidId;
    if (new_round && query.seq >= round.seq) {
        node_.simulator().cancel(round.decision_event);
        round = QueryRound{};
        round.seq = query.seq;
        if (config_.variant == Variant::Mrmm && !config_.query_aggregation.is_zero()) {
            round.decision_event = node_.simulator().schedule_in(
                config_.query_aggregation, [this, key] { decide_upstream(key); },
                sim::make_tag(sim::EventKind::kMcastDecision, node_.id(), key.group,
                              key.source));
        }
    } else if (query.seq != round.seq || round.rebroadcast_done) {
        // A late copy of the round we already acted on.
        return;
    }

    // Candidate upstream: the node that (re)broadcast this copy.
    const double link_life = predicted_link_lifetime(query.sender_motion);
    const double path_life = std::min(query.path_lifetime_s, link_life);
    const std::uint8_t hops = static_cast<std::uint8_t>(query.hop_count + 1);

    bool better = false;
    if (round.best_upstream == net::kInvalidId) {
        better = true;
    } else if (config_.variant == Variant::Mrmm) {
        better = path_life > round.best_path_lifetime ||
                 (path_life == round.best_path_lifetime && hops < round.best_hops);
    }
    if (better) {
        round.best_upstream = query.prev_hop;
        round.best_hops = hops;
        round.best_lifetime = link_life;
        round.best_path_lifetime = path_life;
    }

    // Classic ODMRP (or aggregation disabled): act on the first copy.
    if (config_.variant == Variant::Odmrp || config_.query_aggregation.is_zero()) {
        decide_upstream(key);
    }
}

void MulticastNode::decide_upstream(QueryKey key) {
    QueryRound& round = rounds_[key];
    if (round.best_upstream == net::kInvalidId || round.rebroadcast_done) return;
    round.rebroadcast_done = true;

    // Members answer the query with a JOIN REPLY that recruits the chosen
    // upstream into the forwarding group.
    if (is_member(key.group)) {
        send_reply(key.group, key.source, round.seq, round.best_upstream);
    }

    // Everyone floods the query onward (bounded by max_hops).
    if (round.best_hops < config_.max_hops) {
        net::JoinQueryPayload onward;
        onward.group = key.group;
        onward.source = key.source;
        onward.seq = round.seq;
        onward.prev_hop = node_.id();
        onward.hop_count = round.best_hops;
        onward.path_lifetime_s = round.best_path_lifetime;

        net::Packet packet;
        packet.port = net::Port::McastControl;
        packet.payload_bytes = config_.query_bytes;
        packet.payload = onward;

        const sim::Duration jitter = sim::Duration::nanos(
            jitter_rng_.uniform_int(0, config_.reply_jitter_max.to_nanos()));
        const std::uint64_t id = park_tx(std::move(packet), TxKind::Query);
        node_.simulator().schedule_in(
            jitter, [this, id] { fire_pending_tx(id); },
            sim::make_tag(sim::EventKind::kMcastJitteredTx, node_.id(), 0, 0, id));
    }
}

void MulticastNode::send_reply(net::GroupId group, net::NodeId source, std::uint32_t seq,
                               net::NodeId next_hop) {
    const QueryKey key{group, source};
    if (const auto it = replied_seq_.find(key);
        it != replied_seq_.end() && it->second >= seq) {
        return;  // already answered this round
    }
    replied_seq_[key] = seq;

    net::JoinReplyPayload reply;
    reply.group = group;
    reply.source = source;
    reply.seq = seq;
    reply.sender = node_.id();
    reply.next_hop = next_hop;

    net::Packet packet;
    packet.port = net::Port::McastControl;
    packet.payload_bytes = config_.reply_bytes;
    packet.payload = reply;

    const sim::Duration jitter = sim::Duration::nanos(
        jitter_rng_.uniform_int(0, config_.reply_jitter_max.to_nanos()));
    const std::uint64_t id = park_tx(std::move(packet), TxKind::Reply);
    node_.simulator().schedule_in(
        jitter, [this, id] { fire_pending_tx(id); },
        sim::make_tag(sim::EventKind::kMcastJitteredTx, node_.id(), 0, 0, id));
}

void MulticastNode::handle_reply(const net::JoinReplyPayload& reply) {
    if (reply.next_hop != node_.id()) return;

    // We are recruited: hold forwarding-group state for this group.
    forwarder_until_[reply.group] =
        node_.simulator().now() + config_.fg_timeout;

    if (reply.source == node_.id()) return;  // mesh reached the source

    // Propagate the recruitment toward the source along our own upstream.
    const QueryKey key{reply.group, reply.source};
    const auto it = rounds_.find(key);
    if (it == rounds_.end() || it->second.best_upstream == net::kInvalidId) return;
    send_reply(reply.group, reply.source, it->second.seq, it->second.best_upstream);
}

bool MulticastNode::is_forwarder(net::GroupId group) const {
    const auto it = forwarder_until_.find(group);
    return it != forwarder_until_.end() && node_.simulator().now() < it->second;
}

void MulticastNode::reset_soft_state() {
    for (auto& [key, round] : rounds_) {
        if (round.decision_event.valid()) {
            node_.simulator().cancel(round.decision_event);
        }
    }
    rounds_.clear();
    for (auto& [key, pending] : pending_forwards_) {
        if (pending.event.valid()) {
            node_.simulator().cancel(pending.event);
        }
        pending_tx_.erase(pending.tx_id);
    }
    pending_forwards_.clear();
    replied_seq_.clear();
    forwarder_until_.clear();
    data_seen_.clear();
}

void MulticastNode::send_data(net::GroupId group,
                              std::shared_ptr<const net::Packet> inner) {
    auto it = sources_.find(group);
    if (it == sources_.end()) {
        throw std::logic_error("MulticastNode::send_data: not a source for group");
    }
    if (!inner) {
        throw std::invalid_argument("MulticastNode::send_data: null inner packet");
    }

    net::McastDataPayload data;
    data.group = group;
    data.source = node_.id();
    data.seq = it->second.next_data_seq++;
    data.prev_hop = node_.id();
    data.inner = std::move(inner);

    net::Packet packet;
    packet.port = net::Port::McastData;
    packet.payload_bytes = config_.data_header_bytes + data.inner->payload_bytes;
    packet.payload = std::move(data);
    safe_send(std::move(packet));
    ++stats_.data_sent;
}

void MulticastNode::on_data(const net::Packet& packet, const net::RxInfo& info) {
    const auto* data = std::get_if<net::McastDataPayload>(&packet.payload);
    if (data == nullptr || data->source == node_.id()) return;

    const QueryKey key{data->group, data->source};
    auto& seen = data_seen_[key];
    if (seen.contains(data->seq)) {
        ++stats_.data_duplicates;
        // MRMM redundancy suppression: if we are still waiting to echo this
        // packet and enough neighbours already have, stay quiet.
        const auto pf = pending_forwards_.find({key, data->seq});
        if (pf != pending_forwards_.end()) {
            pf->second.copies_heard += 1;
            if (config_.variant == Variant::Mrmm && config_.data_suppression_copies > 0 &&
                pf->second.copies_heard >= config_.data_suppression_copies) {
                node_.simulator().cancel(pf->second.event);
                pending_tx_.erase(pf->second.tx_id);
                pending_forwards_.erase(pf);
                ++stats_.data_suppressed;
            }
        }
        return;
    }
    seen.insert(data->seq);

    if (is_member(data->group) && data->inner) {
        ++stats_.data_delivered;
        if (deliver_) deliver_(data->group, *data->inner, info);
    }

    if (!is_forwarder(data->group)) return;

    // Forward along the mesh after a short jitter (cancellable for MRMM
    // suppression).
    net::McastDataPayload onward = *data;
    onward.prev_hop = node_.id();
    net::Packet fwd;
    fwd.port = net::Port::McastData;
    fwd.payload_bytes = packet.payload_bytes;
    fwd.payload = std::move(onward);

    const auto pf_key = std::make_pair(key, data->seq);
    const sim::Duration jitter = sim::Duration::nanos(
        jitter_rng_.uniform_int(0, config_.data_jitter_max.to_nanos()));
    const std::uint64_t id = park_tx(std::move(fwd), TxKind::DataForward, key, data->seq);
    const sim::EventId event = node_.simulator().schedule_in(
        jitter, [this, id] { fire_pending_tx(id); },
        sim::make_tag(sim::EventKind::kMcastJitteredTx, node_.id(), 0, 0, id));
    pending_forwards_[pf_key] = PendingForward{event, 0, id};
}

std::uint64_t MulticastNode::park_tx(net::Packet packet, TxKind kind, QueryKey key,
                                     std::uint32_t data_seq) {
    const std::uint64_t id = next_tx_id_++;
    pending_tx_.emplace(id, PendingTx{std::move(packet), kind, key, data_seq});
    return id;
}

void MulticastNode::fire_pending_tx(std::uint64_t id) {
    const auto it = pending_tx_.find(id);
    if (it == pending_tx_.end()) return;  // suppressed/reset while parked
    PendingTx tx = std::move(it->second);
    pending_tx_.erase(it);
    switch (tx.kind) {
        case TxKind::Query: {
            // Motion snapshot taken at transmit time, not decision time.
            auto& onward = std::get<net::JoinQueryPayload>(tx.packet.payload);
            onward.sender_motion = node_.mobility().motion_state();
            safe_send(std::move(tx.packet));
            ++stats_.queries_sent;
            break;
        }
        case TxKind::Reply:
            safe_send(std::move(tx.packet));
            ++stats_.replies_sent;
            break;
        case TxKind::DataForward:
            pending_forwards_.erase({tx.key, tx.data_seq});
            safe_send(std::move(tx.packet));
            ++stats_.data_sent;
            break;
    }
}

namespace {
constexpr std::uint32_t kMarkMcast = 0x4d435354u;  // "MCST"
}

void MulticastNode::save_state(sim::ckpt::Writer& w, net::PacketSaveCtx& pkts) const {
    w.mark(kMarkMcast);
    w.u64(member_groups_.size());
    for (const auto& [group, on] : member_groups_) {
        w.u32(group);
        w.b(on);
    }
    w.u64(sources_.size());
    for (const auto& [group, src] : sources_) {
        w.u32(group);
        w.u32(src.next_query_seq);
        w.u32(src.next_data_seq);
    }
    w.u64(forwarder_until_.size());
    for (const auto& [group, until] : forwarder_until_) {
        w.u32(group);
        w.time(until);
    }
    w.u64(rounds_.size());
    for (const auto& [key, round] : rounds_) {
        w.u32(key.group);
        w.u32(key.source);
        w.u32(round.seq);
        w.b(round.rebroadcast_done);
        w.u8(round.best_hops);
        w.u32(round.best_upstream);
        w.f64(round.best_lifetime);
        w.f64(round.best_path_lifetime);
    }
    w.u64(replied_seq_.size());
    for (const auto& [key, seq] : replied_seq_) {
        w.u32(key.group);
        w.u32(key.source);
        w.u32(seq);
    }
    w.u64(data_seen_.size());
    for (const auto& [key, seen] : data_seen_) {
        w.u32(key.group);
        w.u32(key.source);
        w.u64(seen.size());
        for (const std::uint32_t seq : seen) w.u32(seq);
    }
    w.u64(pending_forwards_.size());
    for (const auto& [pf_key, pending] : pending_forwards_) {
        w.u32(pf_key.first.group);
        w.u32(pf_key.first.source);
        w.u32(pf_key.second);
        w.i32(pending.copies_heard);
        w.u64(pending.tx_id);
    }
    w.u64(pending_tx_.size());
    for (const auto& [id, tx] : pending_tx_) {
        w.u64(id);
        w.u8(static_cast<std::uint8_t>(tx.kind));
        w.u32(tx.key.group);
        w.u32(tx.key.source);
        w.u32(tx.data_seq);
        net::save_packet(w, tx.packet, pkts);
    }
    w.u64(next_tx_id_);
    w.u64(stats_.queries_sent);
    w.u64(stats_.replies_sent);
    w.u64(stats_.data_sent);
    w.u64(stats_.data_suppressed);
    w.u64(stats_.data_delivered);
    w.u64(stats_.data_duplicates);
    w.u64(stats_.dropped_asleep);
    jitter_rng_.save(w);
}

void MulticastNode::load_state(sim::ckpt::Reader& r, net::PacketLoadCtx& pkts) {
    r.expect(kMarkMcast);
    member_groups_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        const net::GroupId group = r.u32();
        member_groups_[group] = r.b();
    }
    sources_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        const net::GroupId group = r.u32();
        SourceState& src = sources_[group];
        src.next_query_seq = r.u32();
        src.next_data_seq = r.u32();
    }
    forwarder_until_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        const net::GroupId group = r.u32();
        forwarder_until_[group] = r.time();
    }
    rounds_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        QueryKey key;
        key.group = r.u32();
        key.source = r.u32();
        QueryRound& round = rounds_[key];
        round.seq = r.u32();
        round.rebroadcast_done = r.b();
        round.best_hops = r.u8();
        round.best_upstream = r.u32();
        round.best_lifetime = r.f64();
        round.best_path_lifetime = r.f64();
    }
    replied_seq_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        QueryKey key;
        key.group = r.u32();
        key.source = r.u32();
        replied_seq_[key] = r.u32();
    }
    data_seen_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        QueryKey key;
        key.group = r.u32();
        key.source = r.u32();
        std::set<std::uint32_t>& seen = data_seen_[key];
        for (std::uint64_t m = r.u64(); m > 0; --m) seen.insert(r.u32());
    }
    pending_forwards_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        QueryKey key;
        key.group = r.u32();
        key.source = r.u32();
        const std::uint32_t seq = r.u32();
        PendingForward pending;
        pending.copies_heard = r.i32();
        pending.tx_id = r.u64();
        pending_forwards_[{key, seq}] = pending;
    }
    pending_tx_.clear();
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        const std::uint64_t id = r.u64();
        PendingTx tx;
        tx.kind = r.enumerator(TxKind::DataForward);
        tx.key.group = r.u32();
        tx.key.source = r.u32();
        tx.data_seq = r.u32();
        tx.packet = net::load_packet(r, pkts);
        pending_tx_.emplace(id, std::move(tx));
    }
    next_tx_id_ = r.u64();
    stats_.queries_sent = r.u64();
    stats_.replies_sent = r.u64();
    stats_.data_sent = r.u64();
    stats_.data_suppressed = r.u64();
    stats_.data_delivered = r.u64();
    stats_.data_duplicates = r.u64();
    stats_.dropped_asleep = r.u64();
    jitter_rng_.load(r);
}

sim::InplaceCallback MulticastNode::rebuild_event(const sim::EventTag& tag) {
    switch (static_cast<sim::EventKind>(tag.kind)) {
        case sim::EventKind::kMcastRefresh: {
            const net::GroupId group = tag.x;
            return sim::InplaceCallback([this, group] { do_refresh(group); });
        }
        case sim::EventKind::kMcastDecision: {
            const QueryKey key{tag.x, tag.y};
            return sim::InplaceCallback([this, key] { decide_upstream(key); });
        }
        case sim::EventKind::kMcastJitteredTx: {
            const std::uint64_t id = tag.a;
            return sim::InplaceCallback([this, id] { fire_pending_tx(id); });
        }
        default:
            throw std::logic_error("MulticastNode::rebuild_event: unexpected tag kind");
    }
}

void MulticastNode::event_placed(const sim::EventTag& tag, sim::EventId id) {
    switch (static_cast<sim::EventKind>(tag.kind)) {
        case sim::EventKind::kMcastRefresh:
            sources_.at(tag.x).refresh_event = id;
            break;
        case sim::EventKind::kMcastDecision:
            rounds_.at(QueryKey{tag.x, tag.y}).decision_event = id;
            break;
        case sim::EventKind::kMcastJitteredTx: {
            const auto it = pending_tx_.find(tag.a);
            if (it != pending_tx_.end() && it->second.kind == TxKind::DataForward) {
                pending_forwards_.at({it->second.key, it->second.data_seq}).event = id;
            }
            break;
        }
        default:
            break;
    }
}

MulticastFleet::MulticastFleet(net::World& world, const MulticastConfig& config) {
    nodes_.reserve(world.size());
    for (const auto& node : world.nodes()) {
        nodes_.push_back(std::make_unique<MulticastNode>(*node, config));
    }
}

MulticastNode::Stats MulticastFleet::total_stats() const {
    MulticastNode::Stats total;
    for (const auto& n : nodes_) {
        const auto& s = n->stats();
        total.queries_sent += s.queries_sent;
        total.replies_sent += s.replies_sent;
        total.data_sent += s.data_sent;
        total.data_suppressed += s.data_suppressed;
        total.data_delivered += s.data_delivered;
        total.data_duplicates += s.data_duplicates;
        total.dropped_asleep += s.dropped_asleep;
    }
    return total;
}

}  // namespace cocoa::multicast
