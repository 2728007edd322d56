#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cocoa::sim {

std::uint32_t EventQueue::acquire_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t si = free_slots_.back();
        free_slots_.pop_back();
        return si;
    }
    slots_.emplace_back();
    tags_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventId EventQueue::push(std::uint32_t si, TimePoint t, std::uint64_t seq,
                         std::size_t events) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, t, seq, si);

    stats_.scheduled += events;
    pending_ += events;
    stats_.peak_pending = std::max<std::uint64_t>(stats_.peak_pending, pending_);
    return EventId{si, slots_[si].generation};
}

EventId EventQueue::place(TimePoint t, std::uint64_t seq, Callback cb,
                          const EventTag& tag) {
    if (cb.on_heap()) ++stats_.sbo_misses;
    const std::uint32_t si = acquire_slot();
    slots_[si].callback = std::move(cb);
    tags_[si] = tag;
    return push(si, t, seq, 1);
}

EventId EventQueue::schedule(TimePoint t, Callback cb, const EventTag& tag) {
    return place(t, next_seq_++, std::move(cb), tag);
}

EventId EventQueue::schedule_run(TimePoint t, RunCallback cb,
                                 std::span<const EventTag> tags) {
    if (tags.empty()) return EventId{};
    if (cb.on_heap()) ++stats_.sbo_misses;
    std::uint32_t ri;
    if (!free_runs_.empty()) {
        ri = free_runs_.back();
        free_runs_.pop_back();
    } else {
        ri = static_cast<std::uint32_t>(runs_.size());
        runs_.emplace_back();
    }
    Run& run = runs_[ri];
    run.callback = std::move(cb);
    run.tags.assign(tags.begin(), tags.end());
    run.head = 0;
    const std::uint32_t si = acquire_slot();
    slots_[si].run = ri;
    const std::uint64_t seq = next_seq_;
    next_seq_ += tags.size();
    return push(si, t, seq, tags.size());
}

bool EventQueue::extend_run(EventId id, TimePoint t, const EventTag& tag) {
    if (!pending(id)) return false;
    const Slot& slot = slots_[id.slot_];
    const HeapEntry& key = heap_[slot.heap_index];
    if (slot.run == kNoRun || key.time != t) return false;
    Run& run = runs_[slot.run];
    if (key.seq + run.remaining() != next_seq_) return false;
    run.tags.push_back(tag);
    ++next_seq_;
    ++stats_.scheduled;
    ++pending_;
    stats_.peak_pending = std::max<std::uint64_t>(stats_.peak_pending, pending_);
    return true;
}

EventId EventQueue::schedule_with_seq(TimePoint t, std::uint64_t seq, Callback cb,
                                      const EventTag& tag) {
    return place(t, seq, std::move(cb), tag);
}

void EventQueue::for_each_pending(const PendingVisitor& fn) const {
    for (const HeapEntry& e : heap_) {
        const Slot& slot = slots_[e.slot];
        if (slot.run == kNoRun) {
            fn(e.time, e.seq, tags_[e.slot]);
            continue;
        }
        const Run& run = runs_[slot.run];
        for (std::size_t i = run.head; i < run.tags.size(); ++i) {
            fn(e.time, e.seq + (i - run.head), run.tags[i]);
        }
    }
}

std::uint64_t EventQueue::min_pending_seq() const {
    std::uint64_t min_seq = UINT64_MAX;
    for (const HeapEntry& e : heap_) min_seq = std::min(min_seq, e.seq);
    return min_seq;
}

bool EventQueue::cancel(EventId id) {
    if (!pending(id)) return false;
    const Slot& slot = slots_[id.slot_];
    std::size_t events = 1;
    if (slot.run != kNoRun) {
        events = runs_[slot.run].remaining();
        release_run(slot.run);
    }
    stats_.cancelled += events;
    pending_ -= events;
    remove_from_heap(slot.heap_index);
    release_slot(id.slot_);
    return true;
}

void EventQueue::fire_next() {
    assert(!heap_.empty() && "fire_next() on empty EventQueue");
    const auto si = static_cast<std::uint32_t>(heap_[0].slot);
    Slot& slot = slots_[si];
    --pending_;
    if (slot.run == kNoRun) {
        Callback cb = std::move(slot.callback);
        remove_from_heap(0);
        release_slot(si);
        cb();
        return;
    }
    // runs_ is a deque, so `run` stays valid while its callback schedules.
    Run& run = runs_[slot.run];
    const EventTag tag = run.tags[run.head];
    if (++run.head < run.tags.size()) {
        // The next element's key (time, seq + 1) still precedes every other
        // pending event, none of which can hold a seq inside this run's block:
        // the slot stays at the root, no sift.
        ++heap_[0].seq;
        run.callback(tag);
        return;
    }
    RunCallback cb = std::move(run.callback);
    release_run(slot.run);
    remove_from_heap(0);
    release_slot(si);
    cb(tag);
}

void EventQueue::clear() {
    for (const HeapEntry& e : heap_) {
        if (slots_[e.slot].run != kNoRun) release_run(slots_[e.slot].run);
        release_slot(static_cast<std::uint32_t>(e.slot));
    }
    heap_.clear();
    pending_ = 0;
}

void EventQueue::sift_up(std::size_t i, TimePoint time, std::uint64_t seq,
                         std::uint64_t slot) {
    const HeapEntry moving{time, seq, slot};
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!earlier(moving, heap_[parent])) break;
        set_entry(i, heap_[parent]);
        i = parent;
    }
    set_entry(i, moving);
}

void EventQueue::sift_down(std::size_t i, TimePoint time, std::uint64_t seq,
                           std::uint64_t slot) {
    const HeapEntry moving{time, seq, slot};
    const std::size_t n = heap_.size();
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
        set_entry(i, heap_[best]);
        i = best;
    }
    set_entry(i, moving);
}

void EventQueue::remove_from_heap(std::size_t i) {
    const HeapEntry moved = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    // The last entry fills the hole, moving whichever way its key says.
    if (i > 0 && earlier(moved, heap_[(i - 1) / 4])) {
        sift_up(i, moved.time, moved.seq, moved.slot);
    } else {
        sift_down(i, moved.time, moved.seq, moved.slot);
    }
}

void EventQueue::release_slot(std::uint32_t si) {
    Slot& slot = slots_[si];
    slot.callback.reset();  // release captures (e.g. shared_ptr<AirFrame>) now
    ++slot.generation;
    slot.heap_index = kNoHeapIndex;
    slot.run = kNoRun;
    free_slots_.push_back(si);
}

void EventQueue::release_run(std::uint32_t ri) {
    Run& run = runs_[ri];
    run.callback.reset();
    run.tags.clear();  // keeps its capacity for the next run
    run.head = 0;
    free_runs_.push_back(ri);
}

}  // namespace cocoa::sim
