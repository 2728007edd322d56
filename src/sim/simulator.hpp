#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_tag.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace cocoa::sim {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// The discrete-event simulation engine.
///
/// Owns the clock, the event queue and the RNG manager. All model components
/// hold a reference to the Simulator and interact with virtual time purely
/// through schedule_at()/schedule_in()/now().
class Simulator {
  public:
    using Callback = EventQueue::Callback;
    using RunCallback = EventQueue::RunCallback;
    /// Builds a tagged event's callback from its tag. Throws when the tag
    /// names no live owner (a node, plan event or interval that does not
    /// exist).
    using Make = std::function<Callback(const EventTag&)>;
    /// Hands a restored event's EventId back to its owner, for owners that
    /// track their timer (Radio::attempt_event_, the ODMRP timers).
    using Placed = std::function<void(const EventTag&, EventId)>;

    explicit Simulator(std::uint64_t master_seed = 1) : rng_(master_seed) {}

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Current virtual time.
    TimePoint now() const { return now_; }

    const RngManager& rng() const { return rng_; }

    /// Registers the one handler of `kind`, which builds every event of that
    /// kind, live or restored, from its tag (sim/event_tag.hpp). The owner
    /// of the kind registers it before scheduling its first event. Throws
    /// std::logic_error on a second registration for the same kind.
    void on(EventKind kind, Make make, Placed placed = nullptr);

    /// Schedules an event at absolute virtual time `t`: an untagged
    /// callback, or a tagged event that its kind's handler builds (a tag
    /// without a handler throws std::logic_error). Only tagged events are
    /// checkpointable; untagged ones are fine as long as none is pending at
    /// a save point. Scheduling in the past throws std::logic_error (it
    /// would silently reorder causality); scheduling exactly at now() is
    /// allowed.
    EventId schedule_at(TimePoint t, Callback cb);
    EventId schedule_at(TimePoint t, const EventTag& tag);

    /// Schedules an event `d` after the current time. Negative d throws.
    EventId schedule_in(Duration d, Callback cb);
    EventId schedule_in(Duration d, const EventTag& tag);

    /// Schedules tags.size() events at `t` in one heap slot, element i
    /// firing `cb(tags[i])`: the same events, seqs and stats as one
    /// schedule_at per tag, without the per-event heap work (see
    /// EventQueue::schedule_run). Scheduling in the past throws like
    /// schedule_at.
    EventId schedule_run(TimePoint t, RunCallback cb, std::span<const EventTag> tags);

    /// Appends one element to a pending run due at `t`, if nothing else has
    /// been scheduled since its last element; false otherwise (the caller
    /// then starts a new run). See EventQueue::extend_run.
    bool extend_run(EventId id, TimePoint t, const EventTag& tag) {
        return queue_.extend_run(id, t, tag);
    }

    bool cancel(EventId id) { return queue_.cancel(id); }
    bool pending(EventId id) const { return queue_.pending(id); }

    /// Runs until the queue is empty or `end` is reached, whichever is first.
    /// On return, now() == min(end, time-of-last-event) and events scheduled
    /// after `end` remain pending.
    void run_until(TimePoint end);

    /// Runs until the event queue drains completely.
    void run();

    /// Requests that the run loop stop after the current event.
    void stop() { stop_requested_ = true; }

    std::size_t pending_events() const { return queue_.size(); }
    std::uint64_t executed_events() const { return executed_; }

    /// Kernel counters maintained by the active queue implementation. The
    /// referenced fields have stable addresses for the Simulator's lifetime,
    /// so they can be registered with obs::CounterRegistry directly.
    const KernelStats& kernel_stats() const { return queue_.stats(); }

    /// Stable-address executed-event counter, for the same registration use.
    const std::uint64_t& executed_events_ref() const { return executed_; }

    // ------------------------------------------------------------------
    // Checkpoint hooks (sim::ckpt). The kernel section captures the clock,
    // the executed counter, the stats, and every pending event as
    // (time, seq, tag) — a pending run as one record per pending element;
    // restore re-creates each as a single event with its original sequence
    // number so the pop order — and therefore the physics — of the resumed
    // run is byte-identical to a straight run.
    // ------------------------------------------------------------------

    /// The kernel section's one walk (sim/checkpoint.hpp): clock, counters
    /// and pending events. A save throws std::logic_error if any pending
    /// event is untagged (it could not be rebuilt). A restore requires a
    /// queue emptied by clear_pending(), builds each blob event through its
    /// kind's handler, exactly as a live schedule does, and re-schedules it
    /// with its original seq; owners re-learn EventIds through the placed
    /// hooks. Kernel stats and next_seq are restored last, verbatim. A
    /// restore throws std::runtime_error, naming the event, for an event due
    /// before the restored clock, seqs out of save order, a seq at or above
    /// the restored next seq, or a tag its handler rejects (or that has no
    /// handler).
    template <typename Ar, typename Self>
    static void walk_kernel(Ar& ar, Self& s);
    void save_kernel(ckpt::Writer& w) const;
    void load_kernel(ckpt::Reader& r);

    /// Drops every pending event (fresh-construction events are replaced by
    /// the blob's on restore).
    void clear_pending() { queue_.clear(); }

    /// Smallest pending sequence number (UINT64_MAX when idle). The forked
    /// sweep assigns fault-arm events seqs just below this, reproducing the
    /// straight-faulted run's arm-before-run ordering.
    std::uint64_t min_pending_seq() const { return queue_.min_pending_seq(); }

    /// Post-restore stats override for the forked sweep's peak_pending fixup
    /// (a straight-faulted run carries the armed events in its pending count
    /// from t=0; a forked run arms late and compensates here).
    void set_kernel_stats(const KernelStats& stats) { queue_.set_stats(stats); }

    /// Schedules a tagged event with an explicit seq (the fork path), built
    /// by its kind's handler like schedule_at.
    EventId schedule_with_seq(TimePoint t, std::uint64_t seq, const EventTag& tag) {
        return queue_.schedule_with_seq(t, seq, make(tag), tag);
    }

  private:
    struct Handler {
        Make make;
        Placed placed;
    };
    /// The handler of tag.kind; throws std::logic_error when it has none.
    const Handler& handler(const EventTag& tag) const;
    Callback make(const EventTag& tag) const { return handler(tag).make(tag); }

    TimePoint now_ = TimePoint::origin();
    EventQueue queue_;
    /// Indexed by EventKind; an empty make marks a kind with no handler.
    /// Fixed, so registering allocates nothing: a vector grown by a swarm's
    /// registrations churned the heap and slowed large swarm builds.
    std::array<Handler, kEventKinds> handlers_;
    RngManager rng_;
    bool stop_requested_ = false;
    std::uint64_t executed_ = 0;
};

}  // namespace cocoa::sim
