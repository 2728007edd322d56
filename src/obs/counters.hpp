#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cocoa::obs {

/// Central registry of every subsystem's event counters under hierarchical
/// dotted names ("node.3.mac.rx_corrupted", "medium.frames_sent").
///
/// Subsystems keep counting plain std::uint64_t members in their hot paths —
/// registration only records a name -> pointer mapping, so increments cost
/// exactly what they did before the registry existed. One registry exists per
/// simulation (owned by the mac::Medium, the one object every radio already
/// shares); snapshots read the live values in name order, so any output
/// derived from them is deterministic.
///
/// Storage is a std::map, so registering n counters costs O(n log n); a
/// 200-robot scenario registers thousands while it is built. snapshot()
/// refreshes a cached buffer in place, so taking one snapshot per
/// replication copies no strings and performs no allocation once the name
/// set is stable (it only changes when a counter is registered).
class CounterRegistry {
  public:
    /// Registers `counter` under `name`. The pointee must outlive every
    /// snapshot() call. Throws std::invalid_argument on a duplicate name or
    /// a null pointer (both are wiring bugs).
    void add(std::string name, const std::uint64_t* counter);

    std::size_t size() const { return entries_.size(); }
    bool contains(const std::string& name) const { return entries_.contains(name); }

    /// Current value of one counter; throws std::out_of_range when unknown.
    std::uint64_t value(const std::string& name) const;

    /// All counters sorted by name, read at call time. The returned buffer
    /// is owned by the registry and overwritten by the next snapshot();
    /// callers that keep results (ScenarioResult::counters) copy-assign it.
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot() const;

  private:
    std::map<std::string, const std::uint64_t*> entries_;
    /// Lazily mirrors entries_' names; values refreshed on each snapshot().
    mutable std::vector<std::pair<std::string, std::uint64_t>> snapshot_buf_;
};

/// Collapses a snapshot across nodes: "node.<id>.mac.rx_corrupted" folds into
/// "mac.rx_corrupted" (summed over ids); names without a "node.<id>." prefix
/// pass through unchanged. Used for compact CLI tables.
std::map<std::string, std::uint64_t> aggregate_node_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot);

}  // namespace cocoa::obs
