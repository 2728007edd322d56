#include "obs/counters.hpp"

#include <cctype>
#include <stdexcept>

namespace cocoa::obs {

void CounterRegistry::add(std::string name, const std::uint64_t* counter) {
    if (counter == nullptr) {
        throw std::invalid_argument("CounterRegistry: null counter for '" + name + "'");
    }
    const auto [pos, inserted] = entries_.try_emplace(std::move(name), counter);
    if (!inserted) {
        throw std::invalid_argument("CounterRegistry: duplicate counter '" + pos->first +
                                    "'");
    }
}

std::uint64_t CounterRegistry::value(const std::string& name) const {
    const auto pos = entries_.find(name);
    if (pos == entries_.end()) {
        throw std::out_of_range("CounterRegistry: unknown counter '" + name + "'");
    }
    return *pos->second;
}

const std::vector<std::pair<std::string, std::uint64_t>>& CounterRegistry::snapshot()
    const {
    if (snapshot_buf_.size() != entries_.size()) {
        // A counter was registered since the last snapshot: rebuild the name
        // column once. Steady-state snapshots below only refresh values.
        snapshot_buf_.clear();
        snapshot_buf_.reserve(entries_.size());
        for (const auto& [name, counter] : entries_) {
            snapshot_buf_.emplace_back(name, *counter);
        }
        return snapshot_buf_;
    }
    auto out = snapshot_buf_.begin();
    for (const auto& [name, counter] : entries_) (out++)->second = *counter;
    return snapshot_buf_;
}

std::map<std::string, std::uint64_t> aggregate_node_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : snapshot) {
        std::string key = name;
        if (name.rfind("node.", 0) == 0) {
            const std::size_t dot = name.find('.', 5);
            // Only strip "node.<digits>." — anything else is a literal name.
            if (dot != std::string::npos && dot > 5) {
                bool numeric = true;
                for (std::size_t i = 5; i < dot; ++i) {
                    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) {
                        numeric = false;
                        break;
                    }
                }
                if (numeric) key = name.substr(dot + 1);
            }
        }
        out[key] += value;
    }
    return out;
}

}  // namespace cocoa::obs
