#pragma once

#include <cstdint>
#include <memory>
#include <variant>

#include "geom/motion.hpp"
#include "geom/vec2.hpp"
#include "sim/time.hpp"

namespace cocoa::net {

using NodeId = std::uint32_t;
constexpr NodeId kBroadcastId = 0xFFFFFFFF;
constexpr NodeId kInvalidId = 0xFFFFFFFE;
using GroupId = std::uint32_t;

/// Header sizes used for wire-size accounting. The paper states each beacon
/// carries IP and UDP headers of 20 bytes each, on top of the 802.11
/// MAC/PHY framing.
constexpr std::size_t kIpHeaderBytes = 20;
constexpr std::size_t kUdpHeaderBytes = 20;  // as stated in the paper (§2.3)
constexpr std::size_t kMacHeaderBytes = 24;
constexpr std::size_t kFcsBytes = 4;

/// Application demultiplexing key (the "UDP port").
enum class Port : std::uint8_t {
    Beacon,         ///< CoCoA RF localization beacons
    McastControl,   ///< ODMRP/MRMM JOIN QUERY / JOIN REPLY
    McastData,      ///< multicast data delivery (carries SYNC in CoCoA)
    GeoHello,       ///< geographic-routing neighbour discovery
    GeoData,        ///< geographic-routing unicast data
    Test,           ///< loopback traffic for unit tests
};
constexpr Port last_enumerator(Port) { return Port::Test; }

struct Packet;

/// CoCoA RF beacon (§2.2): the coordinates of the sending anchor robot, as
/// obtained from its localization device.
struct BeaconPayload {
    NodeId anchor_id = kInvalidId;
    geom::Vec2 anchor_position;
    std::uint32_t window_seq = 0;  ///< which transmit window this belongs to
    std::uint8_t beacon_index = 0; ///< 0..k-1 within the window
};

/// CoCoA SYNC message (§2.3): advertises the beacon period T and transmit
/// window t; delivered down the MRMM mesh from the Sync robot.
struct SyncPayload {
    double period_s = 0.0;
    double window_s = 0.0;
    std::uint32_t seq = 0;
    sim::TimePoint period_start;  ///< start of the period this SYNC opens
};

/// ODMRP/MRMM JOIN QUERY, flooded to (re)build the forwarding mesh. MRMM
/// additionally carries the sender's motion snapshot and the minimum
/// predicted link lifetime along the path so far (§2.3).
struct JoinQueryPayload {
    GroupId group = 0;
    NodeId source = kInvalidId;
    std::uint32_t seq = 0;
    NodeId prev_hop = kInvalidId;
    std::uint8_t hop_count = 0;
    geom::MotionState sender_motion;   ///< MRMM mobility knowledge
    double path_lifetime_s = 0.0;      ///< bottleneck link lifetime, source..sender
};

/// ODMRP/MRMM JOIN REPLY: sent by members (and propagated by selected
/// forwarders) toward the source; the named next hop joins the forwarding
/// group.
struct JoinReplyPayload {
    GroupId group = 0;
    NodeId source = kInvalidId;
    std::uint32_t seq = 0;
    NodeId sender = kInvalidId;
    NodeId next_hop = kInvalidId;  ///< upstream node being recruited
};

/// Multicast data frame forwarded along the mesh; wraps an inner application
/// packet (CoCoA uses this for SYNC).
struct McastDataPayload {
    GroupId group = 0;
    NodeId source = kInvalidId;
    std::uint32_t seq = 0;
    NodeId prev_hop = kInvalidId;
    std::shared_ptr<const Packet> inner;  ///< application payload
};

/// Geographic-routing HELLO: advertises the sender's (estimated) position to
/// one-hop neighbours (§6's "scalable geographic routing" application).
struct GeoHelloPayload {
    geom::Vec2 position;
};

/// How a geographic data packet is currently being forwarded.
enum class GeoMode : std::uint8_t {
    Greedy,  ///< forward to the neighbour closest to the destination
    Face,    ///< right-hand traversal of the planarized neighbour graph
};
constexpr GeoMode last_enumerator(GeoMode) { return GeoMode::Face; }

/// Geographic-routing unicast data (greedy + face recovery, after Bose et
/// al.'s "routing with guaranteed delivery", the paper's citation [23]).
struct GeoDataPayload {
    NodeId origin = kInvalidId;
    NodeId dest = kInvalidId;
    geom::Vec2 dest_position;      ///< where the origin believes dest to be
    std::uint32_t seq = 0;
    std::uint8_t ttl = 64;
    NodeId next_hop = kInvalidId;  ///< link-layer intended receiver
    NodeId prev_hop = kInvalidId;
    GeoMode mode = GeoMode::Greedy;
    geom::Vec2 face_entry;         ///< position where face mode started
    std::uint64_t app_tag = 0;     ///< opaque application identifier
};

/// Link-layer acknowledgement for geographic-routing data (emulates the
/// 802.11 unicast ACK that broadcast frames lack).
struct GeoAckPayload {
    NodeId origin = kInvalidId;   ///< origin of the acknowledged data packet
    std::uint32_t seq = 0;
    NodeId acker = kInvalidId;    ///< the hop confirming reception
};

/// Opaque payload for unit tests.
struct TestPayload {
    std::uint64_t value = 0;
};

using Payload = std::variant<BeaconPayload, SyncPayload, JoinQueryPayload,
                             JoinReplyPayload, McastDataPayload, GeoHelloPayload,
                             GeoDataPayload, GeoAckPayload, TestPayload>;

/// A link-layer broadcast frame. All CoCoA traffic is UDP broadcast; there
/// is no unicast addressing below the protocol logic.
struct Packet {
    NodeId src = kInvalidId;
    Port port = Port::Test;
    std::size_t payload_bytes = 0;  ///< application payload size on the wire
    Payload payload;

    /// Total frame size used for airtime and energy accounting.
    std::size_t wire_bytes() const {
        return payload_bytes + kIpHeaderBytes + kUdpHeaderBytes + kMacHeaderBytes +
               kFcsBytes;
    }
};

/// Reception metadata handed to protocol handlers along with the packet.
struct RxInfo {
    double rssi_dbm = 0.0;
    sim::TimePoint received_at;
};

}  // namespace cocoa::net
