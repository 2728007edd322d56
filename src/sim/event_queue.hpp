#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_tag.hpp"
#include "sim/time.hpp"

namespace cocoa::sim {

class EventQueue;

/// Handle to a scheduled event; lets the owner cancel it before it fires.
///
/// Encodes {slot, generation} for the slot-indexed EventQueue. The slot's
/// generation is bumped every time it is recycled, so a stale id (the event
/// fired, was cancelled, or the queue was cleared) neither cancels nor
/// reports pending — no tombstone bookkeeping required.
class EventId {
  public:
    constexpr EventId() = default;
    constexpr bool valid() const { return slot_ != 0 || gen_ != 0; }
    constexpr bool operator==(const EventId&) const = default;

  private:
    friend class EventQueue;
    constexpr EventId(std::uint32_t slot, std::uint32_t gen)
        : slot_(slot), gen_(gen) {}
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;  // {0,0} = invalid; live generations are never 0
};

/// Event-kernel counters. The fields are stable uint64_t lvalues so the
/// Medium can register them with obs::CounterRegistry (kernel.events.*).
struct KernelStats {
    std::uint64_t scheduled = 0;     ///< total schedule() calls
    std::uint64_t cancelled = 0;     ///< successful cancel() calls
    std::uint64_t sbo_misses = 0;    ///< callbacks that spilled to the heap
    std::uint64_t peak_pending = 0;  ///< high-water mark of pending events
};

/// A cancellable priority queue of timed callbacks.
///
/// Implementation: a slot arena plus a 4-ary min-heap of slot indices ordered
/// by (time, seq). Events at equal times fire in scheduling order (FIFO, via
/// the monotone seq), making runs deterministic. Each slot carries a
/// back-pointer into the heap, so cancel() is a real O(log n) removal — no
/// tombstones accumulate from rescheduled carrier-sense timers — and
/// pending() is an O(1) generation check. next_time() is O(1) and genuinely
/// const. Freed slots go on a free list, so a steady-state schedule/fire
/// cycle performs no allocation at all once the arena has grown to the
/// high-water mark.
///
/// Invariants:
///  - seq is monotone for the lifetime of the queue and is never reset, not
///    even by clear(); FIFO tie-breaking therefore stays well-defined if a
///    queue is reused after clear().
///  - clear() bumps the generation of every live slot, so ids issued before
///    the clear neither cancel nor report pending afterwards. It does not
///    touch stats().scheduled/cancelled (clearing is not cancellation).
///  - A slot's generation is bumped exactly once per recycle; an id can only
///    alias a later event after 2^32 reuses of one slot.
class EventQueue {
  public:
    using Callback = InplaceCallback;

    /// Visitor over pending events for checkpointing: (time, seq, tag).
    using PendingVisitor =
        std::function<void(TimePoint, std::uint64_t, const EventTag&)>;

    /// Schedules `cb` to fire at time `t`. Returns a handle for cancellation.
    /// The tag (default: untagged) describes the callback for checkpointing;
    /// see sim/event_tag.hpp.
    EventId schedule(TimePoint t, Callback cb, const EventTag& tag = {});

    /// Checkpoint-restore path: schedules `cb` with an explicit sequence
    /// number instead of drawing from next_seq_, so the restored queue's
    /// (time, seq) pop order reproduces the straight run's exactly. Counts in
    /// stats() like schedule() (restore overwrites stats afterwards; the
    /// forked-sweep path relies on the natural counting). Does not advance
    /// next_seq_ — callers restore it via set_next_seq().
    EventId schedule_with_seq(TimePoint t, std::uint64_t seq, Callback cb,
                              const EventTag& tag);

    /// Calls `fn(time, seq, tag)` for every pending event, in arbitrary
    /// (heap) order. Save paths sort by seq afterwards.
    void for_each_pending(const PendingVisitor& fn) const;

    /// Smallest seq among pending events; UINT64_MAX when empty. The forked
    /// sweep reserves sequence numbers below this for late-armed fault events.
    std::uint64_t min_pending_seq() const;

    std::uint64_t next_seq() const { return next_seq_; }
    void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }
    void set_stats(const KernelStats& stats) { stats_ = stats; }

    /// Cancels a pending event; returns false if it already fired, was
    /// already cancelled, or the id is invalid/stale.
    bool cancel(EventId id);

    /// True if `id` refers to an event that has not yet fired or been
    /// cancelled. O(1): a bounds check plus a generation compare.
    bool pending(EventId id) const {
        return id.slot_ < slots_.size() &&
               slots_[id.slot_].generation == id.gen_ &&
               slots_[id.slot_].heap_index != kNoHeapIndex;
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /// Time of the earliest pending event; TimePoint::max() if empty.
    TimePoint next_time() const {
        if (heap_.empty()) return TimePoint::max();
        return slots_[heap_[0]].time;
    }

    /// Removes and returns the earliest pending event.
    /// Precondition: !empty().
    struct Fired {
        TimePoint time;
        Callback callback;
    };
    Fired pop();

    /// Drops all pending events (see class invariants: generations are
    /// bumped, seq keeps counting).
    void clear();

    const KernelStats& stats() const { return stats_; }

  private:
    static constexpr std::uint32_t kNoHeapIndex = 0xffffffffu;

    struct Slot {
        TimePoint time{};
        std::uint64_t seq = 0;
        Callback callback;
        std::uint32_t generation = 1;  // never 0, so any issued id is valid()
        std::uint32_t heap_index = kNoHeapIndex;
    };

    /// (time, seq) ordering between two slots referenced from the heap.
    bool earlier(std::uint32_t a, std::uint32_t b) const {
        const Slot& sa = slots_[a];
        const Slot& sb = slots_[b];
        if (sa.time != sb.time) return sa.time < sb.time;
        return sa.seq < sb.seq;
    }

    void sift_up(std::size_t i);
    void sift_down(std::size_t i);
    void remove_from_heap(std::size_t i);
    void release_slot(std::uint32_t si);
    EventId place(TimePoint t, std::uint64_t seq, Callback cb, const EventTag& tag);

    std::vector<Slot> slots_;
    /// Parallel to slots_: the checkpoint tag of each slot's event. Kept out
    /// of Slot so the hot (time, seq, heap_index) comparisons stay dense.
    std::vector<EventTag> tags_;
    std::vector<std::uint32_t> heap_;        ///< 4-ary min-heap of slot indices
    std::vector<std::uint32_t> free_slots_;  ///< recyclable slot indices (LIFO)
    std::uint64_t next_seq_ = 1;
    KernelStats stats_;
};

}  // namespace cocoa::sim
