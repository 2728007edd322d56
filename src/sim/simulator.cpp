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

void Simulator::on(EventKind kind, Make make, Placed placed) {
    // std::out_of_range, a std::logic_error, for a kind past the table.
    Handler& h = handlers_.at(static_cast<std::size_t>(kind));
    if (h.make) {
        throw std::logic_error("Simulator::on: event kind " +
                               std::to_string(static_cast<std::uint32_t>(kind)) +
                               " already has a handler");
    }
    h = {std::move(make), std::move(placed)};
}

const Simulator::Handler& Simulator::handler(const EventTag& tag) const {
    if (tag.kind >= handlers_.size() || !handlers_[tag.kind].make) {
        throw std::logic_error("Simulator: no handler for event kind " +
                               std::to_string(tag.kind));
    }
    return handlers_[tag.kind];
}

EventId Simulator::schedule_at(TimePoint t, Callback cb) {
    if (t < now_) {
        throw std::logic_error("Simulator::schedule_at: time is in the past");
    }
    return queue_.schedule(t, std::move(cb));
}

EventId Simulator::schedule_at(TimePoint t, const EventTag& tag) {
    if (t < now_) {
        throw std::logic_error("Simulator::schedule_at: time is in the past");
    }
    return queue_.schedule(t, make(tag), tag);
}

EventId Simulator::schedule_in(Duration d, Callback cb) {
    if (d.is_negative()) {
        throw std::logic_error("Simulator::schedule_in: negative delay");
    }
    return queue_.schedule(now_ + d, std::move(cb));
}

EventId Simulator::schedule_in(Duration d, const EventTag& tag) {
    if (d.is_negative()) {
        throw std::logic_error("Simulator::schedule_in: negative delay");
    }
    return queue_.schedule(now_ + d, make(tag), tag);
}

EventId Simulator::schedule_run(TimePoint t, RunCallback cb,
                                std::span<const EventTag> tags) {
    if (t < now_) {
        throw std::logic_error("Simulator::schedule_run: time is in the past");
    }
    return queue_.schedule_run(t, std::move(cb), tags);
}

namespace {
/// One pending event as the kernel section records it.
struct PendingEvent {
    TimePoint time;
    std::uint64_t seq = 0;
    EventTag tag;
};
}  // namespace

template <typename Ar, typename Self>
void Simulator::walk_kernel(Ar& ar, Self& s) {
    ar.mark(0x4b524e4cu);  // 'KRNL'
    if constexpr (Ar::loading) {
        if (!s.queue_.empty()) {
            throw std::logic_error("Simulator::load_kernel: clear_pending() first");
        }
    }
    std::uint64_t next_seq = s.queue_.next_seq();
    KernelStats stats = s.queue_.stats();
    std::vector<PendingEvent> events;
    if constexpr (!Ar::loading) {
        events.reserve(s.queue_.size());
        s.queue_.for_each_pending(
            [&events](TimePoint t, std::uint64_t seq, const EventTag& tag) {
                if (!tag.tagged()) {
                    throw std::logic_error(
                        "checkpoint: an untagged event is pending — every schedule "
                        "site that can be live at a save point must attach an "
                        "EventTag (see sim/event_tag.hpp)");
                }
                events.push_back({t, seq, tag});
            });
        // Heap order is an implementation detail; seq order is canonical (it
        // is schedule order, so two identical runs write identical blobs).
        std::sort(events.begin(), events.end(),
                  [](const PendingEvent& a, const PendingEvent& b) { return a.seq < b.seq; });
    }
    ar(s.now_, s.executed_, next_seq, stats, events);
    if constexpr (Ar::loading) {
        for (std::size_t i = 0; i < events.size(); ++i) {
            const PendingEvent& e = events[i];
            // A save writes events at or after its clock, in strictly
            // increasing seq order, every seq drawn below next_seq; anything
            // else would run time backwards or break the FIFO tie-break.
            if (e.time < s.now_) {
                corrupt_event(i, "is due at " + std::to_string(e.time.to_nanos()) +
                                     " ns, before the restored clock " +
                                     std::to_string(s.now_.to_nanos()) + " ns");
            }
            if (i > 0 && e.seq <= events[i - 1].seq) {
                corrupt_event(i, "has seq " + std::to_string(e.seq) +
                                     ", not above the previous event's " +
                                     std::to_string(events[i - 1].seq));
            }
            if (e.seq >= next_seq) {
                corrupt_event(i, "has seq " + std::to_string(e.seq) +
                                     ", not below the restored next seq " +
                                     std::to_string(next_seq));
            }
            // The live handler builds the event, so a tag naming no node,
            // plan event or interval fails here, before any event runs.
            try {
                const Handler& h = s.handler(e.tag);
                const EventId id = s.queue_.schedule_with_seq(e.time, e.seq, h.make(e.tag), e.tag);
                if (h.placed) h.placed(e.tag, id);
            } catch (const std::exception& ex) {
                corrupt_event(i, "(kind " + std::to_string(e.tag.kind) + ", node " +
                                     std::to_string(e.tag.node) + ") cannot be rebuilt: " +
                                     ex.what());
            }
        }
        // Verbatim counters last: the re-registration above must not leak
        // into the restored run's observable kernel stats.
        s.queue_.set_next_seq(next_seq);
        s.queue_.set_stats(stats);
    }
}
template void Simulator::walk_kernel(ckpt::Writer&, const Simulator&);
template void Simulator::walk_kernel(ckpt::Reader&, Simulator&);

void Simulator::save_kernel(ckpt::Writer& w) const { walk_kernel(w, *this); }

void Simulator::load_kernel(ckpt::Reader& r) { walk_kernel(r, *this); }

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
