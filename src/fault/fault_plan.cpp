#include "fault/fault_plan.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace cocoa::fault {

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
    throw std::invalid_argument("FaultPlan: bad spec '" + spec + "': " + why);
}

double parse_number(const std::string& spec, const std::string& text) {
    std::size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &pos);
    } catch (const std::exception&) {
        bad_spec(spec, "not a number: '" + text + "'");
    }
    if (pos != text.size()) bad_spec(spec, "trailing junk in number: '" + text + "'");
    // std::stod accepts "nan" and "inf"; a NaN slips past every ordered
    // range check in validate_event.
    if (!std::isfinite(value)) bad_spec(spec, "not a finite number: '" + text + "'");
    return value;
}

/// A strike time or duration in seconds, checked to fit sim::Duration
/// before the float-to-integer conversion.
double parse_seconds(const std::string& spec, const std::string& text) {
    const double s = parse_number(spec, text);
    if (!sim::Duration::fits_seconds(s)) {
        bad_spec(spec, "time out of range: '" + text + "'");
    }
    return s;
}

/// A node id: an integer in [0, INT_MAX], checked before the cast to int.
int parse_node(const std::string& spec, const std::string& text) {
    const double v = parse_number(spec, text);
    if (!(v >= 0.0 && v <= std::numeric_limits<int>::max()) || v != std::floor(v)) {
        bad_spec(spec, "node id must be an integer in [0, " +
                           std::to_string(std::numeric_limits<int>::max()) + "], got '" +
                           text + "'");
    }
    return static_cast<int>(v);
}

FaultKind parse_kind(const std::string& spec, const std::string& name, bool& is_jam) {
    is_jam = false;
    if (name == "crash") return FaultKind::Crash;
    if (name == "reboot") return FaultKind::Reboot;
    if (name == "outage") return FaultKind::Outage;
    if (name == "loss") return FaultKind::Loss;
    if (name == "jam") {
        is_jam = true;
        return FaultKind::Loss;
    }
    if (name == "drift") return FaultKind::ClockDrift;
    if (name == "odo") return FaultKind::OdometryDegrade;
    if (name == "battery") return FaultKind::Battery;
    bad_spec(spec, "unknown fault kind '" + name + "'");
}

void validate_event(const FaultEvent& e) {
    const std::string what = to_string(e.kind);
    const auto fail = [&what](const std::string& why) {
        throw std::invalid_argument("FaultPlan: " + what + " event: " + why);
    };
    const bool needs_node = e.kind != FaultKind::Loss;
    if (needs_node && e.node < 0) fail("needs node=<id> (or nodes=<a>-<b>)");
    if (!needs_node && e.node >= 0) fail("targets the medium, not a node");
    if (e.node_end >= 0 && e.node_end < e.node) fail("inverted node range");
    if (e.at < sim::TimePoint::origin()) fail("strike time must be >= 0");

    const bool needs_duration =
        e.kind == FaultKind::Reboot || e.kind == FaultKind::Outage ||
        e.kind == FaultKind::Loss;
    if (needs_duration && e.duration <= sim::Duration::zero()) {
        fail("needs a positive duration (+D)");
    }
    if (e.kind == FaultKind::Crash && e.duration > sim::Duration::zero()) {
        fail("is permanent; use reboot@T+D for a timed downtime");
    }
    switch (e.kind) {
        case FaultKind::Loss:
            // Negated comparisons so NaN fails them (plans built in code skip
            // parse_number's finiteness check).
            if (!(e.drop_prob >= 0.0 && e.drop_prob <= 1.0)) fail("p must be in [0, 1]");
            if (!(e.attenuation_db >= 0.0) || !std::isfinite(e.attenuation_db)) {
                fail("db must be finite and >= 0");
            }
            if (e.drop_prob == 0.0 && e.attenuation_db == 0.0) {
                fail("needs p > 0 and/or db > 0");
            }
            break;
        case FaultKind::ClockDrift:
            if (e.offset_s == 0.0 || !std::isfinite(e.offset_s)) {
                fail("needs a finite s=<offset seconds> != 0");
            }
            break;
        case FaultKind::OdometryDegrade:
            if (!(e.scale > 0.0) || !std::isfinite(e.scale)) fail("needs scale > 0");
            break;
        case FaultKind::Battery:
            if (!(e.budget_mj > 0.0) || !std::isfinite(e.budget_mj)) {
                fail("needs budget_mj > 0 (or budget_kj)");
            }
            break;
        default:
            break;
    }
}

}  // namespace

const char* to_string(FaultKind kind) {
    switch (kind) {
        case FaultKind::Crash: return "crash";
        case FaultKind::Reboot: return "reboot";
        case FaultKind::Outage: return "outage";
        case FaultKind::Loss: return "loss";
        case FaultKind::ClockDrift: return "drift";
        case FaultKind::OdometryDegrade: return "odo";
        case FaultKind::Battery: return "battery";
    }
    return "?";
}

void FaultPlan::validate() const {
    for (const FaultEvent& e : events) validate_event(e);
    if (!(avail_threshold_m > 0.0)) {
        throw std::invalid_argument("FaultPlan: avail_threshold_m must be > 0");
    }
    if (battery_check <= sim::Duration::zero()) {
        throw std::invalid_argument("FaultPlan: battery_check must be > 0");
    }
}

FaultEvent FaultPlan::parse_spec(const std::string& spec) {
    const std::size_t at_pos = spec.find('@');
    if (at_pos == std::string::npos || at_pos == 0) {
        bad_spec(spec, "expected kind@T[+D][:k=v,...]");
    }
    bool is_jam = false;
    FaultEvent e;
    e.kind = parse_kind(spec, spec.substr(0, at_pos), is_jam);

    const std::size_t colon = spec.find(':', at_pos);
    std::string time_part = spec.substr(
        at_pos + 1, colon == std::string::npos ? std::string::npos : colon - at_pos - 1);
    if (const std::size_t plus = time_part.find('+'); plus != std::string::npos) {
        e.duration =
            sim::Duration::seconds(parse_seconds(spec, time_part.substr(plus + 1)));
        time_part.resize(plus);
    }
    e.at = sim::TimePoint::from_seconds(parse_seconds(spec, time_part));

    bool saw_db = false;
    if (colon != std::string::npos) {
        std::stringstream kvs(spec.substr(colon + 1));
        std::string kv;
        while (std::getline(kvs, kv, ',')) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                bad_spec(spec, "expected key=value, got '" + kv + "'");
            }
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            if (key == "node") {
                e.node = parse_node(spec, value);
            } else if (key == "nodes") {
                const std::size_t dash = value.find('-');
                if (dash == std::string::npos) {
                    bad_spec(spec, "nodes wants <a>-<b>, got '" + value + "'");
                }
                e.node = parse_node(spec, value.substr(0, dash));
                e.node_end = parse_node(spec, value.substr(dash + 1));
            } else if (key == "p") {
                e.drop_prob = parse_number(spec, value);
            } else if (key == "db") {
                e.attenuation_db = parse_number(spec, value);
                saw_db = true;
            } else if (key == "s") {
                e.offset_s = parse_number(spec, value);
            } else if (key == "scale") {
                e.scale = parse_number(spec, value);
            } else if (key == "budget_mj") {
                e.budget_mj = parse_number(spec, value);
            } else if (key == "budget_kj") {
                e.budget_mj = parse_number(spec, value) * 1e6;
            } else {
                bad_spec(spec, "unknown key '" + key + "'");
            }
        }
    }
    if (is_jam && !saw_db) bad_spec(spec, "jam needs db=<attenuation>");
    if (e.kind == FaultKind::Loss && !is_jam && e.drop_prob == 0.0 &&
        e.attenuation_db == 0.0) {
        e.drop_prob = 1.0;  // bare loss@T+D: a total blackout burst
    }
    validate_event(e);
    return e;
}

FaultPlan FaultPlan::parse(const std::string& specs) {
    FaultPlan plan;
    std::stringstream ss(specs);
    std::string spec;
    while (std::getline(ss, spec, ';')) {
        // Trim surrounding whitespace so "a; b" works.
        const std::size_t first = spec.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const std::size_t last = spec.find_last_not_of(" \t");
        plan.events.push_back(parse_spec(spec.substr(first, last - first + 1)));
    }
    plan.validate();
    return plan;
}

FaultPlan FaultPlan::parse_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("FaultPlan: cannot read '" + path + "'");
    FaultPlan plan;
    std::string line;
    while (std::getline(in, line)) {
        if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
            line.resize(hash);
        }
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) continue;
        const std::size_t last = line.find_last_not_of(" \t\r");
        plan.events.push_back(parse_spec(line.substr(first, last - first + 1)));
    }
    plan.validate();
    return plan;
}

std::string FaultPlan::summary() const {
    std::ostringstream os;
    for (const FaultEvent& e : events) {
        os << to_string(e.kind) << " @ " << e.at.to_seconds() << " s";
        if (e.duration > sim::Duration::zero()) {
            os << " for " << e.duration.to_seconds() << " s";
        }
        if (e.node >= 0) {
            os << ", node " << e.node;
            if (e.node_end >= 0) os << "-" << e.node_end;
        }
        if (e.kind == FaultKind::Loss) {
            os << ", p=" << e.drop_prob << ", db=" << e.attenuation_db;
        }
        if (e.kind == FaultKind::ClockDrift) os << ", s=" << e.offset_s;
        if (e.kind == FaultKind::OdometryDegrade) os << ", scale=" << e.scale;
        if (e.kind == FaultKind::Battery) os << ", budget_mj=" << e.budget_mj;
        os << "\n";
    }
    return os.str();
}

FaultPlan anchor_crash_plan(int num_anchors, int crashed, sim::TimePoint at) {
    if (crashed < 0 || crashed > num_anchors) {
        throw std::invalid_argument("anchor_crash_plan: crashed in [0, num_anchors]");
    }
    FaultPlan plan;
    for (int i = 0; i < crashed; ++i) {
        FaultEvent e;
        e.kind = FaultKind::Crash;
        e.at = at;
        e.node = num_anchors - 1 - i;
        plan.events.push_back(e);
    }
    return plan;
}

}  // namespace cocoa::fault
