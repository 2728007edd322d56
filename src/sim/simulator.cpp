#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"

namespace cocoa::sim {

namespace {
[[noreturn]] void corrupt_event(std::uint64_t index, const std::string& what) {
    throw std::runtime_error("checkpoint: kernel event " + std::to_string(index) + " " +
                             what + " — corrupt blob");
}
}  // namespace

EventId Simulator::schedule_at(TimePoint t, Callback cb, const EventTag& tag) {
    if (t < now_) {
        throw std::logic_error("Simulator::schedule_at: time is in the past");
    }
    return queue_.schedule(t, std::move(cb), tag);
}

EventId Simulator::schedule_in(Duration d, Callback cb, const EventTag& tag) {
    if (d.is_negative()) {
        throw std::logic_error("Simulator::schedule_in: negative delay");
    }
    return queue_.schedule(now_ + d, std::move(cb), tag);
}

EventId Simulator::schedule_run(TimePoint t, RunCallback cb,
                                std::span<const EventTag> tags) {
    if (t < now_) {
        throw std::logic_error("Simulator::schedule_run: time is in the past");
    }
    return queue_.schedule_run(t, std::move(cb), tags);
}

void Simulator::save_kernel(ckpt::Writer& w) const {
    w.mark(0x4b524e4cu);  // 'KRNL'
    w.time(now_);
    w.u64(executed_);
    w.u64(queue_.next_seq());
    const KernelStats& stats = queue_.stats();
    w.u64(stats.scheduled);
    w.u64(stats.cancelled);
    w.u64(stats.sbo_misses);
    w.u64(stats.peak_pending);

    struct PendingEvent {
        TimePoint time;
        std::uint64_t seq;
        EventTag tag;
    };
    std::vector<PendingEvent> events;
    events.reserve(queue_.size());
    queue_.for_each_pending(
        [&events](TimePoint t, std::uint64_t seq, const EventTag& tag) {
            if (!tag.tagged()) {
                throw std::logic_error(
                    "checkpoint: an untagged event is pending — every schedule "
                    "site that can be live at a save point must attach an "
                    "EventTag (see sim/event_tag.hpp)");
            }
            events.push_back({t, seq, tag});
        });
    // Heap order is an implementation detail; seq order is canonical (it is
    // schedule order, so two identical runs write identical blobs).
    std::sort(events.begin(), events.end(),
              [](const PendingEvent& a, const PendingEvent& b) { return a.seq < b.seq; });
    w.u64(events.size());
    for (const PendingEvent& e : events) {
        w.time(e.time);
        w.u64(e.seq);
        w.u32(e.tag.kind);
        w.u32(e.tag.node);
        w.u32(e.tag.x);
        w.u32(e.tag.y);
        w.u64(e.tag.a);
        w.u64(e.tag.b);
    }
}

void Simulator::load_kernel(ckpt::Reader& r, const ckpt::CallbackRegistry& registry) {
    r.expect(0x4b524e4cu);  // 'KRNL'
    if (!queue_.empty()) {
        throw std::logic_error("Simulator::load_kernel: clear_pending() first");
    }
    now_ = r.time();
    executed_ = r.u64();
    const std::uint64_t next_seq = r.u64();
    KernelStats stats;
    stats.scheduled = r.u64();
    stats.cancelled = r.u64();
    stats.sbo_misses = r.u64();
    stats.peak_pending = r.u64();

    const std::uint64_t count = r.u64();
    std::uint64_t prev_seq = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const TimePoint t = r.time();
        const std::uint64_t seq = r.u64();
        EventTag tag;
        tag.kind = r.u32();
        tag.node = r.u32();
        tag.x = r.u32();
        tag.y = r.u32();
        tag.a = r.u64();
        tag.b = r.u64();
        // save_kernel writes events at or after its clock, in strictly
        // increasing seq order, every seq drawn below next_seq; anything
        // else would run time backwards or break the FIFO tie-break.
        if (t < now_) {
            corrupt_event(i, "is due at " + std::to_string(t.to_nanos()) +
                                 " ns, before the restored clock " +
                                 std::to_string(now_.to_nanos()) + " ns");
        }
        if (i > 0 && seq <= prev_seq) {
            corrupt_event(i, "has seq " + std::to_string(seq) +
                                 ", not above the previous event's " +
                                 std::to_string(prev_seq));
        }
        if (seq >= next_seq) {
            corrupt_event(i, "has seq " + std::to_string(seq) +
                                 ", not below the restored next seq " +
                                 std::to_string(next_seq));
        }
        prev_seq = seq;
        const EventId id =
            queue_.schedule_with_seq(t, seq, registry.make(tag), tag);
        registry.placed(tag, id);
    }
    // Verbatim counters last: the re-registration above must not leak into
    // the restored run's observable kernel stats.
    queue_.set_next_seq(next_seq);
    queue_.set_stats(stats);
}

void Simulator::run_until(TimePoint end) {
    stop_requested_ = false;
    while (!queue_.empty() && !stop_requested_) {
        const TimePoint t = queue_.next_time();
        if (t > end) break;
        assert(t >= now_ && "Simulator: event time ran backwards");
        now_ = t;
        ++executed_;
        queue_.fire_next();
    }
    if (!stop_requested_ && now_ < end && queue_.next_time() > end) {
        // Advance the clock to the requested horizon even if no event lands
        // exactly there, so successive run_until calls compose naturally.
        now_ = end;
    }
}

void Simulator::run() {
    run_until(TimePoint::max());
}

}  // namespace cocoa::sim
