#include "fault/fault_injector.hpp"

#include <stdexcept>
#include <string>

#include "metrics/cdf.hpp"
#include "sim/checkpoint.hpp"
#include "sim/event_tag.hpp"

namespace cocoa::fault {

namespace {

constexpr std::uint32_t kMarkFault = 0x46414c54u;  // "FALT"

/// The kernel event that strikes `e` for each target: a watch for a battery
/// fault, else a strike.
sim::EventKind first_kind(const FaultEvent& e) {
    return e.kind == FaultKind::Battery ? sim::EventKind::kFaultBatteryWatch
                                        : sim::EventKind::kFaultStrike;
}

/// Whether `e` also schedules a recovery: reboots, outages and timed
/// odometry faults end.
bool recovers(const FaultEvent& e) {
    return e.kind == FaultKind::Reboot || e.kind == FaultKind::Outage ||
           (e.kind == FaultKind::OdometryDegrade && e.duration > sim::Duration::zero());
}

}  // namespace

FaultInjector::FaultInjector(core::Scenario& scenario, FaultPlan plan)
    : scenario_(scenario), plan_(std::move(plan)) {
    plan_.validate();
    const int n = static_cast<int>(scenario_.agent_count());
    for (const FaultEvent& e : plan_.events) {
        if (e.node >= 0 && e.last_node() >= n) {
            throw std::invalid_argument(
                "FaultInjector: " + std::string(to_string(e.kind)) + " targets node " +
                std::to_string(e.last_node()) + " but the scenario has " +
                std::to_string(n) + " robots");
        }
    }
    for (const sim::EventKind kind :
         {sim::EventKind::kFaultStrike, sim::EventKind::kFaultRecover,
          sim::EventKind::kFaultBatteryWatch, sim::EventKind::kFaultReacquirePoll}) {
        scenario_.simulator().on(kind, [this](const sim::EventTag& tag) { return event(tag); });
    }
}

void FaultInjector::register_counters() {
    // Counters appear in the registry only now — an unfaulted run's
    // --counters output must stay byte-identical to a build without faults.
    obs::CounterRegistry& reg = scenario_.obs().counters;
    reg.add("fault.crashes", &stats_.crashes);
    reg.add("fault.reboots", &stats_.reboots);
    reg.add("fault.outages", &stats_.outages);
    reg.add("fault.loss_bursts", &stats_.loss_bursts);
    reg.add("fault.clock_drifts", &stats_.clock_drifts);
    reg.add("fault.odometry_degrades", &stats_.odometry_degrades);
    reg.add("fault.battery_deaths", &stats_.battery_deaths);
    reg.add("fault.reacquired", &stats_.reacquired);
    const mac::Medium::Stats& ms = scenario_.world().medium().stats();
    reg.add("fault.frames_truncated", &ms.frames_truncated);
    reg.add("fault.rx_dropped", &ms.fault_rx_dropped);
}

void FaultInjector::arm() {
    if (armed_) throw std::logic_error("FaultInjector::arm called twice");
    armed_ = true;
    if (plan_.empty()) return;  // zero-overhead contract: nothing to do at all

    register_counters();
    record_static_faults();
    sim::Simulator& sim = scenario_.simulator();
    for (const auto& [at, tag] : kernel_events()) sim.schedule_at(at, tag);
}

bool FaultInjector::arm_forked() {
    if (armed_) throw std::logic_error("FaultInjector::arm_forked called twice");
    if (plan_.empty()) {
        armed_ = true;
        return true;
    }
    sim::Simulator& sim = scenario_.simulator();
    const std::vector<KernelEvent> events = kernel_events();
    const std::uint64_t need = events.size();
    const std::uint64_t min_seq = sim.min_pending_seq();
    // Reserving below the pending window reproduces the straight run's
    // fault-before-runtime FIFO order exactly, because every event pending at
    // the fork point was scheduled *after* arm in the straight run (the
    // prefix must outlive all construction-time one-shots — guaranteed in
    // practice since faults strike seconds in while construction events
    // recur sub-second). An idle queue or a too-small seq floor means the
    // order cannot be reproduced: the caller falls back to an unforked run.
    if (min_seq == UINT64_MAX || min_seq < need) return false;
    armed_ = true;
    register_counters();
    record_static_faults();
    const std::uint64_t prefix_peak = sim.kernel_stats().peak_pending;
    std::uint64_t seq = min_seq - need;
    for (const auto& [at, tag] : events) sim.schedule_with_seq(at, seq++, tag);
    // A straight faulted run carries the armed events in its pending count
    // from t=0, so its high-water mark up to the fork point is exactly
    // `need` above the prefix's. scheduled/sbo_misses already match: the
    // reserved-seq path goes through the same place() accounting arm() does.
    sim::KernelStats stats = sim.kernel_stats();
    stats.peak_pending = prefix_peak + need;
    sim.set_kernel_stats(stats);
    return true;
}

std::vector<FaultInjector::KernelEvent> FaultInjector::kernel_events() const {
    const sim::TimePoint now = scenario_.simulator().now();
    std::vector<KernelEvent> events;
    for (std::size_t idx = 0; idx < plan_.events.size(); ++idx) {
        const FaultEvent& e = plan_.events[idx];
        const sim::TimePoint at = std::max(now, e.at);
        const auto x = static_cast<std::uint32_t>(idx);
        // A loss burst targets no node: first_node() == last_node() == -1.
        for (int id = e.first_node(); id <= e.last_node(); ++id) {
            const auto node = static_cast<std::uint32_t>(id);
            events.push_back({at, sim::make_tag(first_kind(e), node, x)});
            if (recovers(e)) {
                events.push_back(
                    {at + e.duration, sim::make_tag(sim::EventKind::kFaultRecover, node, x)});
            }
        }
    }
    return events;
}

void FaultInjector::record_static_faults() {
    const sim::TimePoint now = scenario_.simulator().now();
    for (const FaultEvent& e : plan_.events) {
        const sim::TimePoint at = std::max(now, e.at);
        const sim::TimePoint until = at + e.duration;
        switch (e.kind) {
            case FaultKind::Crash:
                intervals_.emplace_back(at, sim::TimePoint::max());
                break;
            case FaultKind::Reboot:
            case FaultKind::Outage:
                intervals_.emplace_back(at, until);
                break;
            case FaultKind::Loss:
                intervals_.emplace_back(at, until);
                scenario_.world().medium().add_loss_burst(
                    {at, until, e.drop_prob, e.attenuation_db});
                break;
            default:
                break;
        }
    }
}

sim::InplaceCallback FaultInjector::event(const sim::EventTag& tag) {
    const auto kind = static_cast<sim::EventKind>(tag.kind);
    const int id = static_cast<int>(tag.node);
    if (kind == sim::EventKind::kFaultReacquirePoll) {
        if (tag.node >= scenario_.agent_count()) {
            throw std::runtime_error("robot " + std::to_string(tag.node) + " does not exist");
        }
        return sim::InplaceCallback([this, tag] { poll_reacquire(tag); });
    }
    // A plan event's strike, recovery or battery watch: the tag must name a
    // plan event, one of its targets, and a kernel event that plan event has.
    const auto idx = static_cast<std::size_t>(tag.x);
    if (idx >= plan_.events.size()) {
        throw std::runtime_error("fault plan event " + std::to_string(idx) +
                                 " does not exist (the plan has " +
                                 std::to_string(plan_.events.size()) + ")");
    }
    const FaultEvent& e = plan_.events[idx];
    if (id < e.first_node() || id > e.last_node()) {
        throw std::runtime_error("node " + std::to_string(id) +
                                 " is not a target of fault plan event " + std::to_string(idx));
    }
    if (kind == sim::EventKind::kFaultRecover ? !recovers(e) : kind != first_kind(e)) {
        throw std::runtime_error("fault plan event " + std::to_string(idx) + " (" +
                                 to_string(e.kind) + ") schedules no event of kind " +
                                 std::to_string(tag.kind));
    }
    switch (kind) {
        case sim::EventKind::kFaultStrike:
            return sim::InplaceCallback([this, idx, id] { strike(idx, id); });
        case sim::EventKind::kFaultRecover:
            return sim::InplaceCallback([this, idx, id] { recover(idx, id); });
        default:
            return sim::InplaceCallback([this, idx, id] { battery_watch(idx, id); });
    }
}

/// The `at` side of one plan event for one target node. The plan is
/// immutable after construction, so per-kind parameters are read back out of
/// plan_.events[idx] at fire time — keeping every scheduled capture down to
/// {this, idx, id}, which a restore can rebuild verbatim from the event tag.
void FaultInjector::strike(std::size_t idx, int id) {
    const FaultEvent& event = plan_.events[idx];
    const sim::TimePoint now = scenario_.simulator().now();
    switch (event.kind) {
        case FaultKind::Crash:
        case FaultKind::Reboot:
            scenario_.world().node(static_cast<net::NodeId>(id)).radio().power_off();
            ++stats_.crashes;
            scenario_.obs().trace.instant(now, "fault", "crash",
                                          static_cast<std::int64_t>(id));
            break;

        case FaultKind::Outage: {
            mac::Radio& radio =
                scenario_.world().node(static_cast<net::NodeId>(id)).radio();
            if (radio.is_off()) return;  // already crashed
            radio.begin_outage();
            ++stats_.outages;
            scenario_.obs().trace.instant(now, "fault", "outage_begin",
                                          static_cast<std::int64_t>(id));
            break;
        }

        case FaultKind::Loss:
            ++stats_.loss_bursts;
            scenario_.obs().trace.instant(
                now, "fault", "loss_begin", /*id=*/-1,
                {{"p", event.drop_prob}, {"db", event.attenuation_db}});
            break;

        case FaultKind::ClockDrift:
            scenario_.agent(static_cast<net::NodeId>(id))
                .inject_clock_offset(event.offset_s);
            ++stats_.clock_drifts;
            scenario_.obs().trace.instant(now, "fault", "clock_drift",
                                          static_cast<std::int64_t>(id),
                                          {{"s", event.offset_s}});
            break;

        case FaultKind::OdometryDegrade:
            scenario_.agent(static_cast<net::NodeId>(id)).degrade_odometry(event.scale);
            ++stats_.odometry_degrades;
            scenario_.obs().trace.instant(now, "fault", "odo_degrade",
                                          static_cast<std::int64_t>(id),
                                          {{"scale", event.scale}});
            break;

        case FaultKind::Battery:
            break;  // battery faults are watches, not strikes
    }
}

/// The `until` side (Reboot revival, Outage end, OdometryDegrade restore).
void FaultInjector::recover(std::size_t idx, int id) {
    const FaultEvent& event = plan_.events[idx];
    const auto nid = static_cast<net::NodeId>(id);
    switch (event.kind) {
        case FaultKind::Reboot:
            scenario_.world().node(nid).radio().power_on();
            if (multicast::MulticastNode* mc = scenario_.multicast_node(nid)) {
                mc->reset_soft_state();
            }
            scenario_.agent(nid).reboot();
            ++stats_.reboots;
            scenario_.obs().trace.instant(scenario_.simulator().now(), "fault",
                                          "reboot", static_cast<std::int64_t>(id));
            start_reacquire_watch(id);
            break;

        case FaultKind::Outage: {
            mac::Radio& radio = scenario_.world().node(nid).radio();
            if (!radio.in_outage()) return;
            radio.end_outage();
            scenario_.obs().trace.instant(scenario_.simulator().now(), "fault",
                                          "outage_end", static_cast<std::int64_t>(id));
            start_reacquire_watch(id);
            break;
        }

        case FaultKind::OdometryDegrade:
            scenario_.agent(nid).degrade_odometry(1.0);
            break;

        default:
            break;
    }
}

void FaultInjector::battery_watch(std::size_t idx, int id) {
    mac::Radio& radio = scenario_.world().node(static_cast<net::NodeId>(id)).radio();
    if (radio.is_off()) return;  // dead already; stop watching
    radio.settle_energy();
    if (radio.meter().total_mj() >= plan_.events[idx].budget_mj) {
        const sim::TimePoint now = scenario_.simulator().now();
        radio.power_off();
        ++stats_.battery_deaths;
        intervals_.emplace_back(now, sim::TimePoint::max());
        scenario_.obs().trace.instant(now, "fault", "battery_death",
                                      static_cast<std::int64_t>(id),
                                      {{"mj", radio.meter().total_mj()}});
        return;
    }
    scenario_.simulator().schedule_in(
        plan_.battery_check,
        sim::make_tag(sim::EventKind::kFaultBatteryWatch, static_cast<std::uint32_t>(id),
                      static_cast<std::uint32_t>(idx)));
}

void FaultInjector::start_reacquire_watch(int node) {
    const auto nid = static_cast<net::NodeId>(node);
    // Reacquisition means a fix; odometry-only robots never compute one.
    if (scenario_.is_anchor(nid) ||
        scenario_.config().estimator == est::Backend::Odometry) {
        return;
    }
    ++watches_started_;
    // Poll at the metric sampling granularity until the first post-recovery
    // fix lands; unfinished watches count as never_reacquired in report().
    scenario_.simulator().schedule_in(
        scenario_.config().sample_interval,
        sim::make_tag(sim::EventKind::kFaultReacquirePoll, nid, 0, 0,
                      static_cast<std::uint64_t>(scenario_.simulator().now().to_nanos()),
                      scenario_.agent(nid).stats().fixes));
}

void FaultInjector::poll_reacquire(const sim::EventTag& poll) {
    const sim::TimePoint now = scenario_.simulator().now();
    if (scenario_.agent(poll.node).stats().fixes > poll.b) {
        ++stats_.reacquired;
        reacquire_s_sum_ +=
            (now - sim::TimePoint::from_nanos(static_cast<std::int64_t>(poll.a))).to_seconds();
        scenario_.obs().trace.instant(now, "fault", "reacquired",
                                      static_cast<std::int64_t>(poll.node));
        return;
    }
    scenario_.simulator().schedule_in(scenario_.config().sample_interval, poll);
}

template <typename Ar, typename Self>
void FaultInjector::walk(Ar& ar, Self& f) {
    ar.mark(kMarkFault);
    ar(f.armed_, f.stats_, f.intervals_, f.watches_started_, f.reacquire_s_sum_);
    // Pending fault events come back through the kernel blob (see event())
    // and loss bursts through the medium's own state; only the counter
    // registrations have to be redone here.
    if constexpr (Ar::loading) {
        if (f.armed_ && !f.plan_.empty()) f.register_counters();
    }
}
template void FaultInjector::walk(sim::ckpt::Writer&, const FaultInjector&);
template void FaultInjector::walk(sim::ckpt::Reader&, FaultInjector&);

ResilienceReport FaultInjector::report(const core::ScenarioResult& result) const {
    ResilienceReport rep;
    rep.avail_threshold_m = plan_.avail_threshold_m;

    sim::TimePoint first_strike = sim::TimePoint::max();
    for (const auto& [start, end] : intervals_) {
        first_strike = std::min(first_strike, start);
    }
    const auto in_fault = [this](sim::TimePoint t) {
        for (const auto& [start, end] : intervals_) {
            if (t >= start && t <= end) return true;
        }
        return false;
    };

    std::vector<double> during_errors;
    std::vector<double> after_errors;
    std::uint64_t ok_total = 0, ok_before = 0, ok_during = 0, ok_after = 0;
    // Node order, then sample order: a fixed fold order keeps the report
    // byte-identical across thread counts, like every exp aggregate.
    for (const auto& series : result.node_error) {
        if (series.empty()) continue;  // anchor
        for (const auto& sample : series.samples()) {
            const bool ok = sample.value <= plan_.avail_threshold_m;
            ++rep.samples_total;
            ok_total += ok;
            if (sample.time < first_strike) {
                ++rep.samples_before;
                ok_before += ok;
            } else if (in_fault(sample.time)) {
                ++rep.samples_during;
                ok_during += ok;
                during_errors.push_back(sample.value);
            } else {
                ++rep.samples_after;
                ok_after += ok;
                after_errors.push_back(sample.value);
            }
        }
    }
    const auto frac = [](std::uint64_t ok, std::uint64_t n) {
        return n == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(n);
    };
    rep.availability = frac(ok_total, rep.samples_total);
    rep.avail_before = frac(ok_before, rep.samples_before);
    rep.avail_during = frac(ok_during, rep.samples_during);
    rep.avail_after = frac(ok_after, rep.samples_after);

    if (!during_errors.empty()) {
        const metrics::Cdf cdf(std::move(during_errors));
        rep.p50_during_m = cdf.quantile(0.5);
        rep.p90_during_m = cdf.quantile(0.9);
    }
    if (!after_errors.empty()) {
        const metrics::Cdf cdf(std::move(after_errors));
        rep.p50_after_m = cdf.quantile(0.5);
        rep.p90_after_m = cdf.quantile(0.9);
    }

    rep.reacquired = stats_.reacquired;
    rep.never_reacquired = watches_started_ - stats_.reacquired;
    rep.mean_reacquire_s =
        stats_.reacquired == 0
            ? 0.0
            : reacquire_s_sum_ / static_cast<double>(stats_.reacquired);
    return rep;
}

}  // namespace cocoa::fault
