#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
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
/// Every count is per event: a run of n elements counts as n events.
struct KernelStats {
    std::uint64_t scheduled = 0;     ///< events scheduled (run elements included)
    std::uint64_t cancelled = 0;     ///< events cancelled (run elements included)
    std::uint64_t sbo_misses = 0;    ///< callbacks that spilled to the heap
    std::uint64_t peak_pending = 0;  ///< high-water mark of pending events
};

/// A cancellable priority queue of timed callbacks.
///
/// Implementation: a slot arena plus a 4-ary min-heap of keyed entries, each
/// entry a slot index next to its (time, seq) key. Events at equal times fire
/// in scheduling order (FIFO, via the monotone seq), making runs
/// deterministic. A sift compares keys inside the heap array alone and
/// touches a slot only to update its heap back-pointer, so deep queues (a
/// 16k-node swarm keeps ~17k events pending) do not load a callback-sized
/// slot per comparison. The back-pointer makes cancel() a real O(log n)
/// removal — no tombstones accumulate from rescheduled carrier-sense timers —
/// and pending() an O(1) generation check. next_time() is O(1) and genuinely
/// const. Freed slots go on a free list, so a steady-state schedule/fire
/// cycle performs no allocation at all once the arena has grown to the
/// high-water mark.
///
/// Runs: one heap slot can hold n events due at one instant with consecutive
/// seqs (schedule_run, extend_run), e.g. one frame's fan-out to its
/// receivers. Element i gets exactly the seq a separate schedule() would
/// have given it, so the queue's order, its stats, size(), and the pending
/// list (for_each_pending, min_pending_seq) are the same as if the elements
/// had been scheduled one by one. Popping a run fires its head and re-keys
/// the slot to (time, seq + 1) in place without a sift: no other pending
/// event can hold a seq inside the run's block, so the re-keyed slot still
/// sorts before every other pending event and stays at the root. Run storage
/// (callback plus per-element tags) is recycled through its own free list,
/// so a warm queue schedules runs without allocating.
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
    /// A run's callback, invoked once per element with that element's tag.
    using RunCallback = InplaceFunction<void(const EventTag&)>;

    /// Visitor over pending events for checkpointing: (time, seq, tag).
    using PendingVisitor =
        std::function<void(TimePoint, std::uint64_t, const EventTag&)>;

    /// Schedules `cb` to fire at time `t`. Returns a handle for cancellation.
    /// The tag (default: untagged) describes the callback for checkpointing;
    /// see sim/event_tag.hpp.
    EventId schedule(TimePoint t, Callback cb, const EventTag& tag = {});

    /// Schedules tags.size() events at `t` as one run: element i fires
    /// `cb(tags[i])` with seq next_seq() + i, exactly as tags.size()
    /// schedule() calls would order it. Returns the run's handle; cancel()
    /// on it cancels every element still pending. An empty `tags` schedules
    /// nothing and returns an invalid id.
    EventId schedule_run(TimePoint t, RunCallback cb, std::span<const EventTag> tags);

    /// Appends one element with `tag` to run `id`, at the seq a schedule()
    /// would give it now. Returns false, and changes nothing, unless the run
    /// is still pending, is due at `t`, and nothing else has been scheduled
    /// since its last element (so its seqs stay one contiguous block).
    bool extend_run(EventId id, TimePoint t, const EventTag& tag);

    /// Checkpoint-restore path: schedules `cb` with an explicit sequence
    /// number instead of drawing from next_seq_, so the restored queue's
    /// (time, seq) pop order reproduces the straight run's exactly. `seq`
    /// must not fall inside a pending run's block. Counts in
    /// stats() like schedule() (restore overwrites stats afterwards; the
    /// forked-sweep path relies on the natural counting). Does not advance
    /// next_seq_ — callers restore it via set_next_seq().
    EventId schedule_with_seq(TimePoint t, std::uint64_t seq, Callback cb,
                              const EventTag& tag);

    /// Calls `fn(time, seq, tag)` for every pending event (each pending run
    /// element on its own), in arbitrary (heap) order. Save paths sort by
    /// seq afterwards.
    void for_each_pending(const PendingVisitor& fn) const;

    /// Smallest seq among pending events; UINT64_MAX when empty. The forked
    /// sweep reserves sequence numbers below this for late-armed fault events.
    std::uint64_t min_pending_seq() const;

    std::uint64_t next_seq() const { return next_seq_; }
    void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }
    void set_stats(const KernelStats& stats) { stats_ = stats; }

    /// Cancels a pending event (for a run: every element still pending);
    /// returns false if it already fired, was already cancelled, or the id
    /// is invalid/stale. A run's callback must not cancel its own run.
    bool cancel(EventId id);

    /// True if `id` refers to an event that has not yet fired or been
    /// cancelled. O(1): a bounds check plus a generation compare.
    bool pending(EventId id) const {
        return id.slot_ < slots_.size() &&
               slots_[id.slot_].generation == id.gen_ &&
               slots_[id.slot_].heap_index != kNoHeapIndex;
    }

    bool empty() const { return heap_.empty(); }
    /// Pending events, each pending run element counted.
    std::size_t size() const { return pending_; }

    /// Time of the earliest pending event; TimePoint::max() if empty.
    TimePoint next_time() const {
        if (heap_.empty()) return TimePoint::max();
        return heap_[0].time;
    }

    /// Removes the earliest pending event (a run's head element) and
    /// invokes it. The caller reads its time from next_time() first.
    /// Precondition: !empty().
    void fire_next();

    /// Drops all pending events (see class invariants: generations are
    /// bumped, seq keeps counting). Not from inside a run's callback.
    void clear();

    const KernelStats& stats() const { return stats_; }

  private:
    static constexpr std::uint32_t kNoHeapIndex = 0xffffffffu;
    static constexpr std::uint32_t kNoRun = 0xffffffffu;

    /// One pending event or run; its key lives in its heap entry.
    struct Slot {
        Callback callback;  ///< empty for a run
        std::uint32_t generation = 1;  // never 0, so any issued id is valid()
        std::uint32_t heap_index = kNoHeapIndex;
        std::uint32_t run = kNoRun;  ///< index into runs_, or kNoRun
    };

    /// A pending slot's heap entry. The key is (time, seq) of the slot's next
    /// event: for a run, the head element, whose seq advances by one per
    /// fired element.
    struct HeapEntry {
        TimePoint time;
        std::uint64_t seq;
        /// A slot index in a full word, so an entry has no padding: gcc
        /// copies a padded entry's last field with a 4-byte store but loads
        /// it back with an 8-byte one, which misses store forwarding.
        std::uint64_t slot;
    };

    /// Elements [head, tags.size()) are pending, with seqs from the slot's
    /// heap key onward.
    struct Run {
        RunCallback callback;
        std::vector<EventTag> tags;
        std::size_t head = 0;
        std::size_t remaining() const { return tags.size() - head; }
    };

    /// (time, seq) ordering between two heap entries.
    static bool earlier(const HeapEntry& a, const HeapEntry& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
    }

    /// Fill the hole at heap position `i` with the entry (time, seq, slot),
    /// first moving the entries it must pass into the hole (toward the root
    /// for sift_up, toward the leaves for sift_down). The entry arrives in
    /// registers: a HeapEntry argument goes through the stack, and copying
    /// it out with a 16-byte load right after its 8-byte field stores misses
    /// store forwarding, which doubled the cost of a push.
    void sift_up(std::size_t i, TimePoint time, std::uint64_t seq, std::uint64_t slot);
    void sift_down(std::size_t i, TimePoint time, std::uint64_t seq, std::uint64_t slot);
    /// heap_[i] = e, and e's slot learns its new position.
    void set_entry(std::size_t i, const HeapEntry& e) {
        heap_[i] = e;
        slots_[e.slot].heap_index = static_cast<std::uint32_t>(i);
    }
    void remove_from_heap(std::size_t i);
    void release_slot(std::uint32_t si);
    void release_run(std::uint32_t ri);
    std::uint32_t acquire_slot();
    EventId place(TimePoint t, std::uint64_t seq, Callback cb, const EventTag& tag);
    /// Keys slot `si` at (t, seq), pushes it on the heap and counts
    /// `events` scheduled events.
    EventId push(std::uint32_t si, TimePoint t, std::uint64_t seq, std::size_t events);

    std::vector<Slot> slots_;
    /// Parallel to slots_: the checkpoint tag of each slot's event. Kept out
    /// of Slot, which the fire and cancel paths load.
    std::vector<EventTag> tags_;
    std::vector<HeapEntry> heap_;            ///< 4-ary min-heap of keyed slots
    std::vector<std::uint32_t> free_slots_;  ///< recyclable slot indices (LIFO)
    /// Run storage. A deque, so a run's callback stays put while it fires
    /// even if it schedules further runs; freed runs keep their tag capacity.
    std::deque<Run> runs_;
    std::vector<std::uint32_t> free_runs_;  ///< recyclable run indices (LIFO)
    std::size_t pending_ = 0;  ///< pending events, run elements counted
    std::uint64_t next_seq_ = 1;
    KernelStats stats_;
};

}  // namespace cocoa::sim
