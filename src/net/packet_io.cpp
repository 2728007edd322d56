#include "net/packet_io.hpp"

#include <stdexcept>

#include "sim/checkpoint.hpp"

namespace cocoa::net {

namespace {

namespace ckpt = sim::ckpt;

constexpr std::uint32_t kNullInner = 0xffffffffu;

void save_vec2(ckpt::Writer& w, const geom::Vec2& v) {
    w.f64(v.x);
    w.f64(v.y);
}

geom::Vec2 load_vec2(ckpt::Reader& r) {
    geom::Vec2 v;
    v.x = r.f64();
    v.y = r.f64();
    return v;
}

void save_motion(ckpt::Writer& w, const geom::MotionState& m) {
    save_vec2(w, m.position);
    save_vec2(w, m.velocity);
    w.f64(m.plan_horizon_s);
}

geom::MotionState load_motion(ckpt::Reader& r) {
    geom::MotionState m;
    m.position = load_vec2(r);
    m.velocity = load_vec2(r);
    m.plan_horizon_s = r.f64();
    return m;
}

void save_payload(ckpt::Writer& w, const Payload& payload, PacketSaveCtx& ctx) {
    w.u8(static_cast<std::uint8_t>(payload.index()));
    std::visit(
        [&](const auto& p) {
            using T = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<T, BeaconPayload>) {
                w.u32(p.anchor_id);
                save_vec2(w, p.anchor_position);
                w.u32(p.window_seq);
                w.u8(p.beacon_index);
            } else if constexpr (std::is_same_v<T, SyncPayload>) {
                w.f64(p.period_s);
                w.f64(p.window_s);
                w.u32(p.seq);
                w.time(p.period_start);
            } else if constexpr (std::is_same_v<T, JoinQueryPayload>) {
                w.u32(p.group);
                w.u32(p.source);
                w.u32(p.seq);
                w.u32(p.prev_hop);
                w.u8(p.hop_count);
                save_motion(w, p.sender_motion);
                w.f64(p.path_lifetime_s);
            } else if constexpr (std::is_same_v<T, JoinReplyPayload>) {
                w.u32(p.group);
                w.u32(p.source);
                w.u32(p.seq);
                w.u32(p.sender);
                w.u32(p.next_hop);
            } else if constexpr (std::is_same_v<T, McastDataPayload>) {
                w.u32(p.group);
                w.u32(p.source);
                w.u32(p.seq);
                w.u32(p.prev_hop);
                save_inner(w, p.inner, ctx);
            } else if constexpr (std::is_same_v<T, GeoHelloPayload>) {
                save_vec2(w, p.position);
            } else if constexpr (std::is_same_v<T, GeoDataPayload>) {
                w.u32(p.origin);
                w.u32(p.dest);
                save_vec2(w, p.dest_position);
                w.u32(p.seq);
                w.u8(p.ttl);
                w.u32(p.next_hop);
                w.u32(p.prev_hop);
                w.u8(static_cast<std::uint8_t>(p.mode));
                save_vec2(w, p.face_entry);
                w.u64(p.app_tag);
            } else if constexpr (std::is_same_v<T, GeoAckPayload>) {
                w.u32(p.origin);
                w.u32(p.seq);
                w.u32(p.acker);
            } else if constexpr (std::is_same_v<T, TestPayload>) {
                w.u64(p.value);
            }
        },
        payload);
}

Payload load_payload(ckpt::Reader& r, PacketLoadCtx& ctx) {
    const std::uint8_t index = r.u8();
    switch (index) {
        case 0: {
            BeaconPayload p;
            p.anchor_id = r.u32();
            p.anchor_position = load_vec2(r);
            p.window_seq = r.u32();
            p.beacon_index = r.u8();
            return p;
        }
        case 1: {
            SyncPayload p;
            p.period_s = r.f64();
            p.window_s = r.f64();
            p.seq = r.u32();
            p.period_start = r.time();
            return p;
        }
        case 2: {
            JoinQueryPayload p;
            p.group = r.u32();
            p.source = r.u32();
            p.seq = r.u32();
            p.prev_hop = r.u32();
            p.hop_count = r.u8();
            p.sender_motion = load_motion(r);
            p.path_lifetime_s = r.f64();
            return p;
        }
        case 3: {
            JoinReplyPayload p;
            p.group = r.u32();
            p.source = r.u32();
            p.seq = r.u32();
            p.sender = r.u32();
            p.next_hop = r.u32();
            return p;
        }
        case 4: {
            McastDataPayload p;
            p.group = r.u32();
            p.source = r.u32();
            p.seq = r.u32();
            p.prev_hop = r.u32();
            p.inner = load_inner(r, ctx);
            return p;
        }
        case 5: {
            GeoHelloPayload p;
            p.position = load_vec2(r);
            return p;
        }
        case 6: {
            GeoDataPayload p;
            p.origin = r.u32();
            p.dest = r.u32();
            p.dest_position = load_vec2(r);
            p.seq = r.u32();
            p.ttl = r.u8();
            p.next_hop = r.u32();
            p.prev_hop = r.u32();
            p.mode = r.enumerator(GeoMode::Face);
            p.face_entry = load_vec2(r);
            p.app_tag = r.u64();
            return p;
        }
        case 7: {
            GeoAckPayload p;
            p.origin = r.u32();
            p.seq = r.u32();
            p.acker = r.u32();
            return p;
        }
        case 8: {
            TestPayload p;
            p.value = r.u64();
            return p;
        }
        default:
            throw std::runtime_error("packet_io: unknown payload alternative " +
                                     std::to_string(index));
    }
}

}  // namespace

void save_packet(sim::ckpt::Writer& w, const Packet& p, PacketSaveCtx& ctx) {
    w.u32(p.src);
    w.u8(static_cast<std::uint8_t>(p.port));
    w.u64(p.payload_bytes);
    save_payload(w, p.payload, ctx);
}

Packet load_packet(sim::ckpt::Reader& r, PacketLoadCtx& ctx) {
    Packet p;
    p.src = r.u32();
    p.port = r.enumerator(Port::Test);
    p.payload_bytes = static_cast<std::size_t>(r.u64());
    p.payload = load_payload(r, ctx);
    return p;
}

void save_inner(sim::ckpt::Writer& w, const std::shared_ptr<const Packet>& p,
                PacketSaveCtx& ctx) {
    if (!p) {
        w.u32(kNullInner);
        return;
    }
    const auto it = ctx.inner_ids.find(p.get());
    if (it != ctx.inner_ids.end()) {
        w.u32(it->second);
        return;
    }
    const auto id = static_cast<std::uint32_t>(ctx.inner_ids.size());
    ctx.inner_ids.emplace(p.get(), id);
    w.u32(id);
    save_packet(w, *p, ctx);
}

std::shared_ptr<const Packet> load_inner(sim::ckpt::Reader& r, PacketLoadCtx& ctx) {
    const std::uint32_t id = r.u32();
    if (id == kNullInner) return nullptr;
    if (id < ctx.inners.size()) {
        if (!ctx.inners[id]) {
            throw std::runtime_error("packet_io: cyclic inner-packet reference");
        }
        return ctx.inners[id];
    }
    if (id != ctx.inners.size()) {
        throw std::runtime_error("packet_io: inner-packet id out of sequence");
    }
    // Reserve the slot before recursing: a nested inner must take the next
    // dense id, exactly as save assigned them (pre-order).
    ctx.inners.push_back(nullptr);
    std::shared_ptr<Packet> pkt =
        ctx.pool ? ctx.pool->acquire() : std::make_shared<Packet>();
    *pkt = load_packet(r, ctx);
    ctx.inners[id] = pkt;
    return pkt;
}

}  // namespace cocoa::net
