#pragma once

// Writer for the perf-regression artifact (BENCH_10.json): the micro-bench
// ns/op numbers plus end-to-end scenario wall times, in a stable schema that
// CI uploads per commit so the perf trajectory has data points.
//
// Schema ("cocoa-perf-1"):
//   {
//     "schema": "cocoa-perf-1",
//     "benchmarks": [ {"name": "...", "ns_per_op": 123.4}, ... ],
//     "scenarios":  [ {"name": "...", "wall_seconds": 1.23}, ... ]
//   }

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace cocoa::bench {

class PerfJson {
  public:
    void add_benchmark(const std::string& name, double ns_per_op) {
        benchmarks_.emplace_back(name, ns_per_op);
    }

    void add_scenario(const std::string& name, double wall_seconds) {
        scenarios_.emplace_back(name, wall_seconds);
    }

    std::string to_string() const {
        std::ostringstream out;
        out.precision(12);
        out << "{\n  \"schema\": \"cocoa-perf-1\",\n  \"benchmarks\": [";
        write_entries(out, benchmarks_, "ns_per_op");
        out << "],\n  \"scenarios\": [";
        write_entries(out, scenarios_, "wall_seconds");
        out << "]\n}\n";
        return out.str();
    }

    bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << to_string();
        return static_cast<bool>(out);
    }

  private:
    using Entry = std::pair<std::string, double>;

    static void write_entries(std::ostringstream& out, const std::vector<Entry>& entries,
                              const char* value_key) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << escaped(entries[i].first)
                << "\", \"" << value_key << "\": " << entries[i].second << "}";
        }
        if (!entries.empty()) out << "\n  ";
    }

    static std::string escaped(const std::string& s) {
        std::string r;
        r.reserve(s.size());
        for (const char c : s) {
            if (c == '"' || c == '\\') r.push_back('\\');
            r.push_back(c);
        }
        return r;
    }

    std::vector<Entry> benchmarks_;
    std::vector<Entry> scenarios_;
};

}  // namespace cocoa::bench
