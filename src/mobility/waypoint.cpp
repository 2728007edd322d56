#include "mobility/waypoint.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace cocoa::mobility {

namespace {
constexpr double kMinLegLength = 0.01;  // metres; avoids degenerate zero legs
}

WaypointMobility::WaypointMobility(const WaypointConfig& config, sim::RandomStream rng,
                                   std::optional<geom::Vec2> start)
    : config_(config), rng_(std::move(rng)) {
    // Negated comparisons reject NaN: a NaN speed turns leg durations into
    // NaN-to-integer casts and advance_to would never reach the leg's end.
    if (!(config_.min_speed > 0.0) || !(config_.max_speed >= config_.min_speed) ||
        !std::isfinite(config_.max_speed)) {
        throw std::invalid_argument(
            "WaypointMobility: need 0 < min_speed <= max_speed, both finite");
    }
    if (config_.min_pause.is_negative() || config_.max_pause < config_.min_pause) {
        throw std::invalid_argument("WaypointMobility: need 0 <= min_pause <= max_pause");
    }
    if (!(config_.area.width() > 0.0) || !(config_.area.height() > 0.0) ||
        !std::isfinite(config_.area.width()) || !std::isfinite(config_.area.height())) {
        throw std::invalid_argument("WaypointMobility: area must have positive extent");
    }
    if (start.has_value()) {
        if (!config_.area.contains(*start)) {
            throw std::invalid_argument("WaypointMobility: start outside area");
        }
        position_ = *start;
    } else {
        position_ = {rng_.uniform(config_.area.min.x, config_.area.max.x),
                     rng_.uniform(config_.area.min.y, config_.area.max.y)};
    }
    start_new_leg();
    // The robot's initial orientation is taken to be its first leg's heading,
    // so construction itself produces no turn.
    pending_turn_ = 0.0;
    rng_.park();
}

void WaypointMobility::start_new_leg() {
    geom::Vec2 dest;
    do {
        dest = {rng_.uniform(config_.area.min.x, config_.area.max.x),
                rng_.uniform(config_.area.min.y, config_.area.max.y)};
    } while (geom::distance(dest, position_) < kMinLegLength);

    destination_ = dest;
    speed_ = rng_.uniform(config_.min_speed, config_.max_speed);
    const double new_heading = (destination_ - position_).heading();
    pending_turn_ += geom::wrap_angle(new_heading - heading_);
    heading_ = new_heading;
    resting_ = false;
    plan_end_ = now_ + sim::Duration::seconds(geom::distance(position_, destination_) / speed_);
}

void WaypointMobility::finish_plan() {
    if (resting_) {
        start_new_leg();
        return;
    }
    // Arrived at the destination: "perform a task" (optional pause), then a
    // new random command.
    const sim::Duration pause =
        config_.max_pause.is_zero()
            ? sim::Duration::zero()
            : sim::Duration::nanos(rng_.uniform_int(config_.min_pause.to_nanos(),
                                                    config_.max_pause.to_nanos()));
    if (pause > sim::Duration::zero()) {
        resting_ = true;
        speed_ = 0.0;
        plan_end_ = now_ + pause;
    } else {
        start_new_leg();
    }
}

template <typename Step>
void WaypointMobility::advance(sim::TimePoint t, const char* caller, Step&& step) {
    if (t < now_) {
        throw std::logic_error(std::string("WaypointMobility::") + caller +
                               ": time went backwards");
    }
    while (now_ < t) {
        const sim::TimePoint until = std::min(t, plan_end_);
        const sim::Duration dt = until - now_;
        if (dt > sim::Duration::zero()) {
            double forward = 0.0;
            if (!resting_) {
                forward = speed_ * dt.to_seconds();
                if (until == plan_end_) {
                    position_ = destination_;  // land exactly, no numeric drift
                } else {
                    position_ += geom::Vec2::from_heading(heading_) * forward;
                }
            }
            step(MotionIncrement{forward, pending_turn_, dt});
            pending_turn_ = 0.0;
            now_ = until;
        }
        if (now_ == plan_end_) {
            finish_plan();
            // The next draw is a leg or a rest away.
            rng_.park();
        }
    }
}

std::vector<MotionIncrement> WaypointMobility::advance_to(sim::TimePoint t) {
    std::vector<MotionIncrement> out;
    advance(t, "advance_to", [&out](const MotionIncrement& inc) { out.push_back(inc); });
    return out;
}

bool WaypointMobility::advance_position_to(sim::TimePoint t) {
    bool moved = false;
    advance(t, "advance_position_to",
            [&moved](const MotionIncrement& inc) { moved = moved || inc.forward_m != 0.0; });
    return moved;
}

geom::Vec2 WaypointMobility::velocity() const {
    if (resting_) return {};
    return geom::Vec2::from_heading(heading_) * speed_;
}

sim::Duration WaypointMobility::plan_remaining() const { return plan_end_ - now_; }

geom::MotionState WaypointMobility::motion_state() const {
    return {position_, velocity(), plan_remaining().to_seconds()};
}

}  // namespace cocoa::mobility
