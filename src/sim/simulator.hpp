#pragma once

#include <cstdint>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_tag.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace cocoa::sim {

namespace ckpt {
class Writer;
class Reader;
class CallbackRegistry;
}  // namespace ckpt

/// The discrete-event simulation engine.
///
/// Owns the clock, the event queue and the RNG manager. All model components
/// hold a reference to the Simulator and interact with virtual time purely
/// through schedule_at()/schedule_in()/now().
class Simulator {
  public:
    using Callback = EventQueue::Callback;

    explicit Simulator(std::uint64_t master_seed = 1) : rng_(master_seed) {}

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Current virtual time.
    TimePoint now() const { return now_; }

    const RngManager& rng() const { return rng_; }

    /// Schedules a callback at absolute virtual time `t`.
    /// Scheduling in the past throws std::logic_error (it would silently
    /// reorder causality); scheduling exactly at now() is allowed.
    /// The optional tag makes the event checkpointable (sim/event_tag.hpp);
    /// untagged events are fine as long as none is pending at a save point.
    EventId schedule_at(TimePoint t, Callback cb, const EventTag& tag = {});

    /// Schedules a callback `d` after the current time. Negative d throws.
    EventId schedule_in(Duration d, Callback cb, const EventTag& tag = {});

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
    // (time, seq, tag); restore re-creates each event with its original
    // sequence number so the pop order — and therefore the physics — of the
    // resumed run is byte-identical to a straight run.
    // ------------------------------------------------------------------

    /// Serializes clock + counters + pending events. Throws std::logic_error
    /// if any pending event is untagged (it could not be rebuilt).
    void save_kernel(ckpt::Writer& w) const;

    /// Restores what save_kernel wrote. Precondition: the queue holds only
    /// construction-time events, which are dropped first (clear_pending).
    /// Each blob event is rebuilt via `registry` and re-scheduled with its
    /// original seq; owners re-learn EventIds through the registry's placed
    /// hooks. Kernel stats and next_seq are restored last, verbatim.
    void load_kernel(ckpt::Reader& r, const ckpt::CallbackRegistry& registry);

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

    /// Schedule with an explicit seq (restore/fork paths only).
    EventId schedule_with_seq(TimePoint t, std::uint64_t seq, Callback cb,
                              const EventTag& tag) {
        return queue_.schedule_with_seq(t, seq, std::move(cb), tag);
    }

  private:
    TimePoint now_ = TimePoint::origin();
    EventQueue queue_;
    RngManager rng_;
    bool stop_requested_ = false;
    std::uint64_t executed_ = 0;
};

}  // namespace cocoa::sim
