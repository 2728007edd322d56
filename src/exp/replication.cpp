#include "exp/replication.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/checkpoint_io.hpp"
#include "metrics/table.hpp"
#include "obs/profile.hpp"
#include "sim/checkpoint.hpp"
#include "sim/random.hpp"
#include "sim/thread_pool.hpp"

namespace cocoa::exp {

std::string ReplicationSet::avg_pm() const {
    return metrics::fmt(avg_error.mean()) + " ± " + metrics::fmt(avg_error.stddev());
}

std::string ReplicationSet::steady_pm() const {
    return metrics::fmt(steady_error.mean()) + " ± " +
           metrics::fmt(steady_error.stddev());
}

std::string ReplicationSet::avg_ci() const {
    return metrics::fmt(avg_error.mean()) + " ± " +
           metrics::fmt(metrics::ci95_halfwidth(avg_error));
}

std::string ReplicationSet::steady_ci() const {
    return metrics::fmt(steady_error.mean()) + " ± " +
           metrics::fmt(metrics::ci95_halfwidth(steady_error));
}

std::uint64_t replication_seed(std::uint64_t master_seed, int index) {
    return sim::RngManager(master_seed)
        .derive_seed("exp.replication", static_cast<std::uint64_t>(index));
}

namespace {

/// One set of sweep cells sharing a warm prefix: identical (config,
/// replication index), differing only in fault plan. The prefix runs once to
/// t_fork (just before the group's earliest fault), is checkpointed in
/// memory, and each member restores from the blob instead of re-simulating
/// the shared span.
struct ForkGroup {
    std::vector<std::size_t> tasks;  ///< task indices sharing the prefix
    sim::TimePoint t_fork;
    std::string blob;
    std::shared_ptr<const phy::PdfTable> table;
    std::exception_ptr error;
};

/// run_single_replication, or with `group` one member of a fork group:
/// restore the shared prefix, late-arm the member's plan with reserved
/// sequence numbers (arm_forked) and run the divergent future, byte-identical
/// to the straight run. Falls back to the straight run when the prefix left
/// no seq room to arm under (arm_forked() == false).
ReplicationRecord run_replication(const core::ScenarioConfig& config, int index,
                                  sim::Duration warmup_slack,
                                  core::ScenarioResult* result_out,
                                  const fault::FaultPlan* plan, const ForkGroup* group) {
    core::ScenarioConfig run_config = config;
    run_config.seed = replication_seed(config.seed, index);

    obs::ProfileScope profile("exp.replication");
    const auto t0 = std::chrono::steady_clock::now();
    core::Scenario scenario(run_config, group != nullptr ? group->table : nullptr);
    if (group != nullptr) {
        sim::ckpt::Reader r(group->blob);
        scenario.load_state(r);
        r.expect_end();
    }
    // A null or empty plan arms nothing: the exact pre-fault code path.
    std::optional<fault::FaultInjector> injector;
    if (plan != nullptr && !plan->empty()) {
        injector.emplace(scenario, *plan);
        if (group == nullptr) {
            injector->arm();
        } else if (!injector->arm_forked()) {
            return run_replication(config, index, warmup_slack, result_out, plan, nullptr);
        }
    }
    scenario.run();
    core::ScenarioResult result = scenario.result();
    ReplicationRecord record;
    if (injector) record.resilience = injector->report(result);
    record.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    record.index = index;
    record.seed = run_config.seed;
    record.avg_error_m = result.avg_error.stats().mean();
    record.steady_error_m = result.avg_error.mean_in(
        sim::TimePoint::origin() + run_config.period + warmup_slack,
        sim::TimePoint::max());
    record.total_energy_kj = result.team_energy.total_mj() / 1e6;
    record.executed_events = result.executed_events;
    record.counters = result.counters;
    if (result_out != nullptr) *result_out = std::move(result);
    return record;
}

}  // namespace

ReplicationRecord run_single_replication(const core::ScenarioConfig& config,
                                         int index, sim::Duration warmup_slack,
                                         core::ScenarioResult* result_out,
                                         const fault::FaultPlan* plan) {
    return run_replication(config, index, warmup_slack, result_out, plan, nullptr);
}

std::vector<ReplicationSet> run_sweep(const std::vector<core::ScenarioConfig>& configs,
                                      const ReplicationOptions& options) {
    return run_sweep(configs, std::vector<fault::FaultPlan>(configs.size()), options);
}

std::vector<ReplicationSet> run_sweep(const std::vector<core::ScenarioConfig>& configs,
                                      const std::vector<fault::FaultPlan>& plans,
                                      const ReplicationOptions& options) {
    if (options.n_reps < 1) {
        throw std::invalid_argument("run_sweep: n_reps must be >= 1");
    }
    if (plans.size() != configs.size()) {
        throw std::invalid_argument("run_sweep: plans.size() != configs.size()");
    }
    if (configs.empty()) return {};
    obs::ProfileScope profile("exp.sweep");

    const std::size_t n_configs = configs.size();
    const std::size_t n_reps = static_cast<std::size_t>(options.n_reps);
    const std::size_t n_tasks = n_configs * n_reps;

    // Per-task slots, written by exactly one worker each; aggregation reads
    // them only after the pool drains, so no locking is needed beyond the
    // pool's own queue.
    std::vector<ReplicationRecord> records(n_tasks);
    std::vector<core::ScenarioResult> results(n_tasks);
    std::vector<std::exception_ptr> errors(n_tasks);

    // The fully resolved config a task runs: its cell's config under the
    // replication's derived seed.
    const auto task_config = [&](std::size_t task) {
        core::ScenarioConfig c = configs[task / n_reps];
        c.seed = replication_seed(c.seed, static_cast<int>(task % n_reps));
        return c;
    };

    // Fork-group discovery: tasks whose fully-resolved run config (seed
    // included) serializes to the same bytes share their entire trajectory
    // until a fault plan diverges them — run that shared prefix once,
    // checkpoint it, and fork the futures. Groups where every plan is empty
    // (nothing ever diverges — duplicate cells) or whose earliest fault
    // strikes at/before the origin or past the run's end stay unforked.
    std::vector<ForkGroup> groups;
    std::vector<long> task_group(n_tasks, -1);
    if (options.fork) {
        std::unordered_map<std::string, std::size_t> by_key;
        std::vector<std::vector<std::size_t>> candidates;
        for (std::size_t task = 0; task < n_tasks; ++task) {
            sim::ckpt::Writer w;
            core::save_config(w, task_config(task));
            const auto [it, fresh] = by_key.try_emplace(w.take(), candidates.size());
            if (fresh) candidates.emplace_back();
            candidates[it->second].push_back(task);
        }
        for (std::vector<std::size_t>& tasks : candidates) {
            if (tasks.size() < 2) continue;
            sim::TimePoint first = sim::TimePoint::max();
            for (const std::size_t task : tasks) {
                for (const fault::FaultEvent& e : plans[task / n_reps].events) {
                    first = std::min(first, e.at);
                }
            }
            if (first == sim::TimePoint::max()) continue;
            const sim::TimePoint t_fork = first - sim::Duration::nanos(1);
            const sim::TimePoint end = sim::TimePoint::origin() +
                                       configs[tasks.front() / n_reps].duration;
            if (t_fork <= sim::TimePoint::origin() || t_fork >= end) continue;
            for (const std::size_t task : tasks) {
                task_group[task] = static_cast<long>(groups.size());
            }
            ForkGroup group;
            group.tasks = std::move(tasks);
            group.t_fork = t_fork;
            groups.push_back(std::move(group));
        }
    }

    // Prefixes whose scenarios would calibrate the same PDF table (same
    // seed, channel and calibration settings: one replication's backends)
    // form one batch. A batch runs as one task, in group order: the first
    // prefix calibrates and the others reuse its table.
    std::vector<std::vector<std::size_t>> batches;
    {
        std::unordered_map<std::string, std::size_t> by_inputs;
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            sim::ckpt::Writer w;
            core::save_calibration_inputs(w, task_config(groups[gi].tasks.front()));
            const auto [it, fresh] = by_inputs.try_emplace(w.take(), batches.size());
            if (fresh) batches.emplace_back();
            batches[it->second].push_back(gi);
        }
    }

    const auto run_prefixes = [&](const std::vector<std::size_t>& batch) {
        std::shared_ptr<const phy::PdfTable> table;
        for (const std::size_t gi : batch) {
            ForkGroup& group = groups[gi];
            try {
                obs::ProfileScope prefix_profile("exp.fork_prefix");
                core::Scenario prefix(task_config(group.tasks.front()), table);
                prefix.run_until(group.t_fork);
                sim::ckpt::Writer w;
                prefix.save_state(w);
                group.blob = w.take();
                table = prefix.pdf_table_ptr();
                group.table = table;
            } catch (...) {
                group.error = std::current_exception();
            }
        }
    };

    const bool keep_result_for = options.keep_results;
    const auto run_task = [&](std::size_t task) {
        const std::size_t ci = task / n_reps;
        const int ri = static_cast<int>(task % n_reps);
        try {
            // The last replication's full result is always kept for series
            // printing; the rest only when the caller asked for them.
            const bool want_result = keep_result_for || ri + 1 == options.n_reps;
            const long gi = task_group[task];
            const ForkGroup* group =
                gi >= 0 ? &groups[static_cast<std::size_t>(gi)] : nullptr;
            if (group != nullptr && group->error) {
                errors[task] = group->error;
                return;
            }
            records[task] = run_replication(configs[ci], ri, options.warmup_slack,
                                            want_result ? &results[task] : nullptr,
                                            &plans[ci], group);
        } catch (...) {
            errors[task] = std::current_exception();
        }
    };

    const int n_threads =
        std::min<int>(sim::ThreadPool::resolve_threads(options.n_threads),
                      static_cast<int>(n_tasks));
    if (n_threads <= 1) {
        for (const std::vector<std::size_t>& batch : batches) run_prefixes(batch);
        for (std::size_t task = 0; task < n_tasks; ++task) run_task(task);
    } else {
        sim::ThreadPool pool(n_threads);
        // Prefixes first (a barrier, not a pipeline: every member of a group
        // needs its blob), then all members and unforked tasks together.
        for (const std::vector<std::size_t>& batch : batches) {
            pool.submit([&run_prefixes, &batch] { run_prefixes(batch); });
        }
        if (!groups.empty()) pool.wait_idle();
        for (std::size_t task = 0; task < n_tasks; ++task) {
            pool.submit([&run_task, task] { run_task(task); });
        }
        pool.wait_idle();
    }

    // Fail on the first error in (config, replication) order — deterministic
    // regardless of which worker hit it first.
    for (std::size_t task = 0; task < n_tasks; ++task) {
        if (errors[task]) std::rethrow_exception(errors[task]);
    }

    // Fold aggregates in replication order so the output bits never depend
    // on completion order or thread count.
    std::vector<ReplicationSet> sets(n_configs);
    for (std::size_t ci = 0; ci < n_configs; ++ci) {
        ReplicationSet& set = sets[ci];
        set.config = configs[ci];
        set.records.reserve(n_reps);
        for (std::size_t ri = 0; ri < n_reps; ++ri) {
            const std::size_t task = ci * n_reps + ri;
            const ReplicationRecord& r = records[task];
            set.records.push_back(r);
            set.avg_error.add(r.avg_error_m);
            set.steady_error.add(r.steady_error_m);
            set.total_energy_kj.add(r.total_energy_kj);
            set.total_wall_seconds += r.wall_seconds;
            set.executed_events_total += r.executed_events;
            for (const auto& [name, value] : r.counters) {
                set.counter_totals[name] += value;
            }
            if (r.resilience) {
                set.has_resilience = true;
                set.availability.add(r.resilience->availability);
                if (r.resilience->samples_during > 0) {
                    set.avail_during.add(r.resilience->avail_during);
                }
                if (r.resilience->reacquired > 0) {
                    set.reacquire_s.add(r.resilience->mean_reacquire_s);
                }
            }
        }
        if (options.keep_results) {
            set.results.assign(std::make_move_iterator(results.begin() +
                                                       static_cast<long>(ci * n_reps)),
                               std::make_move_iterator(results.begin() +
                                                       static_cast<long>((ci + 1) * n_reps)));
            set.last = set.results.back();
        } else {
            set.last = std::move(results[ci * n_reps + n_reps - 1]);
        }
    }
    return sets;
}

ReplicationSet run_replications(const core::ScenarioConfig& config,
                                const ReplicationOptions& options) {
    return std::move(run_sweep({config}, options).front());
}

ReplicationSet run_replications(const core::ScenarioConfig& config,
                                const fault::FaultPlan& plan,
                                const ReplicationOptions& options) {
    return std::move(run_sweep({config}, {plan}, options).front());
}

}  // namespace cocoa::exp
