#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cocoa::sim {

EventId EventQueue::place(TimePoint t, std::uint64_t seq, Callback cb,
                          const EventTag& tag) {
    ++stats_.scheduled;
    if (cb.on_heap()) ++stats_.sbo_misses;

    std::uint32_t si;
    if (!free_slots_.empty()) {
        si = free_slots_.back();
        free_slots_.pop_back();
    } else {
        si = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        tags_.emplace_back();
    }
    Slot& slot = slots_[si];
    slot.time = t;
    slot.seq = seq;
    slot.callback = std::move(cb);
    tags_[si] = tag;

    heap_.push_back(si);
    slot.heap_index = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);

    stats_.peak_pending = std::max<std::uint64_t>(stats_.peak_pending, heap_.size());
    return EventId{si, slot.generation};
}

EventId EventQueue::schedule(TimePoint t, Callback cb, const EventTag& tag) {
    return place(t, next_seq_++, std::move(cb), tag);
}

EventId EventQueue::schedule_with_seq(TimePoint t, std::uint64_t seq, Callback cb,
                                      const EventTag& tag) {
    return place(t, seq, std::move(cb), tag);
}

void EventQueue::for_each_pending(const PendingVisitor& fn) const {
    for (const std::uint32_t si : heap_) {
        const Slot& slot = slots_[si];
        fn(slot.time, slot.seq, tags_[si]);
    }
}

std::uint64_t EventQueue::min_pending_seq() const {
    std::uint64_t min_seq = UINT64_MAX;
    for (const std::uint32_t si : heap_) {
        min_seq = std::min(min_seq, slots_[si].seq);
    }
    return min_seq;
}

bool EventQueue::cancel(EventId id) {
    if (!pending(id)) return false;
    ++stats_.cancelled;
    remove_from_heap(slots_[id.slot_].heap_index);
    release_slot(id.slot_);
    return true;
}

EventQueue::Fired EventQueue::pop() {
    assert(!heap_.empty() && "pop() on empty EventQueue");
    const std::uint32_t si = heap_[0];
    Slot& slot = slots_[si];
    Fired fired{slot.time, std::move(slot.callback)};
    remove_from_heap(0);
    release_slot(si);
    return fired;
}

void EventQueue::clear() {
    for (const std::uint32_t si : heap_) {
        Slot& slot = slots_[si];
        slot.callback.reset();
        ++slot.generation;
        slot.heap_index = kNoHeapIndex;
        free_slots_.push_back(si);
    }
    heap_.clear();
}

void EventQueue::sift_up(std::size_t i) {
    const std::uint32_t moving = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!earlier(moving, heap_[parent])) break;
        heap_[i] = heap_[parent];
        slots_[heap_[i]].heap_index = static_cast<std::uint32_t>(i);
        i = parent;
    }
    heap_[i] = moving;
    slots_[moving].heap_index = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const std::uint32_t moving = heap_[i];
    for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        // Pick the earliest of up to four children. Scanning left to right
        // with a strict '<' keeps sibling ties resolved identically on every
        // platform (they cannot happen anyway: seq is unique).
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
            if (earlier(heap_[c], heap_[best])) best = c;
        }
        if (!earlier(heap_[best], moving)) break;
        heap_[i] = heap_[best];
        slots_[heap_[i]].heap_index = static_cast<std::uint32_t>(i);
        i = best;
    }
    heap_[i] = moving;
    slots_[moving].heap_index = static_cast<std::uint32_t>(i);
}

void EventQueue::remove_from_heap(std::size_t i) {
    const std::size_t last = heap_.size() - 1;
    const std::uint32_t moved = heap_[last];
    heap_.pop_back();
    if (i == last) return;
    heap_[i] = moved;
    slots_[moved].heap_index = static_cast<std::uint32_t>(i);
    // The displaced element may need to move either way; after sift_up the
    // follow-up sift_down is a single no-op comparison if it already moved.
    sift_up(i);
    sift_down(slots_[moved].heap_index);
}

void EventQueue::release_slot(std::uint32_t si) {
    Slot& slot = slots_[si];
    slot.callback.reset();  // release captures (e.g. shared_ptr<AirFrame>) now
    ++slot.generation;
    slot.heap_index = kNoHeapIndex;
    free_slots_.push_back(si);
}

}  // namespace cocoa::sim
