#pragma once

#include <cstddef>
#include <cstdint>

namespace cocoa::sim {

/// Identifies what a scheduled callback *does*, so a checkpoint can rebuild
/// it. Callbacks are type-erased closures; their captures cannot be walked at
/// save time. Instead every event that can be pending at a checkpoint is
/// scheduled by its EventTag alone, which describes it in terms of durable
/// state (node ids, sequence numbers, frame keys). Each kind has one handler,
/// registered with Simulator::on by the component that owns the kind, which
/// builds the callback from the tag: the same handler serves the live event
/// and the one a restore re-creates, and it rejects a tag that names no live
/// owner. Values are part of the checkpoint format; never renumber, only
/// append.
enum class EventKind : std::uint32_t {
    kUntagged = 0,  ///< not restorable; save_checkpoint throws if one is pending

    // core::Scenario
    kScenarioTick = 1,
    kScenarioSample = 2,
    kScenarioTrace = 3,

    // core::CocoaAgent   (node = agent's node id)
    kAgentWake = 10,        ///< a = period seq
    kAgentSyncSettle = 11,  ///< a = period seq
    kAgentBeacon = 12,      ///< a = period seq, x = beacon index
    kAgentWindowEnd = 13,   ///< a = period seq

    // mac::Radio   (node = attach index)
    kRadioAttempt = 20,   ///< CSMA attempt timer (radio re-learns the EventId)
    kRadioEndTx = 21,     ///< end of the frame currently on air
    /// a = frame seq of the frame whose end we await. Scheduled through
    /// Medium::schedule_frame_end as an element of the frame's frame-end run
    /// (sim::EventQueue::schedule_run); restored as a single event.
    kRadioFrameEnd = 22,

    // mac::Medium   (node = receiver attach index)
    /// a = frame seq, b = rssi bits, x = decodable flag. One frame's
    /// deliveries are scheduled as one run, in attach order; restored as
    /// single events.
    kMediumCca = 30,

    // multicast::MulticastNode   (node = node id)
    kMcastRefresh = 40,     ///< x = group
    kMcastDecision = 41,    ///< x = group, y = source (query-round decision)
    kMcastJitteredTx = 42,  ///< a = pending-tx id (packet parked in the node)
    // 43 is retired (a data-forward kind nothing scheduled); never reuse it.

    // fault::FaultInjector   (x = index into the armed plan's event list)
    kFaultStrike = 50,         ///< the plan event's `at` callback (node = id)
    kFaultRecover = 51,        ///< the plan event's `until` callback (node = id)
    kFaultBatteryWatch = 52,   ///< self-rescheduling budget poll (node = id)
    kFaultReacquirePoll = 53,  ///< a = recovered_at ns, b = fixes_before

    // core::Swarm   (node = node id)
    kSwarmBeacon = 60,
    kSwarmDoze = 61,
    kSwarmMobilityTick = 62,
};

/// One past the largest EventKind: the size of a table indexed by kind.
/// Appending a kind past it makes Simulator::on throw until this grows.
inline constexpr std::size_t kEventKinds = 63;

/// Compact, POD description of one pending callback. Field meaning depends on
/// EventKind (see the enum comments); unused fields stay zero so blobs diff
/// clean. Doubles travel through `a`/`b` bit-cast to uint64.
struct EventTag {
    std::uint32_t kind = 0;  ///< EventKind, stored raw for trivial serialization
    std::uint32_t node = 0;
    std::uint32_t x = 0;
    std::uint32_t y = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    constexpr bool tagged() const { return kind != 0; }
};

constexpr EventTag make_tag(EventKind kind, std::uint32_t node = 0,
                            std::uint32_t x = 0, std::uint32_t y = 0,
                            std::uint64_t a = 0, std::uint64_t b = 0) {
    return EventTag{static_cast<std::uint32_t>(kind), node, x, y, a, b};
}

}  // namespace cocoa::sim
