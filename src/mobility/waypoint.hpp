#pragma once

#include <optional>
#include <vector>

#include "geom/motion.hpp"
#include "geom/rect.hpp"
#include "geom/vec2.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace cocoa::mobility {

/// One piece of true robot motion, reported by the mobility model as it is
/// advanced through time. The odometry model corrupts these increments to
/// produce the dead-reckoned pose.
///
/// Semantics: at the start of the increment the robot turned in place by
/// `heading_change_rad`, then drove `forward_m` metres over `dt`.
struct MotionIncrement {
    double forward_m = 0.0;
    double heading_change_rad = 0.0;
    sim::Duration dt = sim::Duration::zero();
};

/// Configuration of the paper's movement model (§3): each robot repeatedly
/// picks a uniformly random destination in the area and drives straight to it
/// at a speed drawn uniformly from [min_speed, max_speed]; optionally it then
/// rests for a task period before the next command.
struct WaypointConfig {
    geom::Rect area = geom::Rect::square(200.0);
    double min_speed = 0.1;   ///< m/s; the paper uses 0.1.
    double max_speed = 2.0;   ///< m/s; the paper evaluates 0.5 and 2.0.
    sim::Duration min_pause = sim::Duration::zero();
    sim::Duration max_pause = sim::Duration::zero();
};

/// Random-task waypoint mobility for one robot.
///
/// Deterministic for a given RandomStream; position is exact piecewise-linear
/// motion (no numeric drift from tick size).
class WaypointMobility {
  public:
    /// Starts at `start` if provided, else at a uniformly random position.
    /// Throws std::invalid_argument on bad speeds/pauses.
    WaypointMobility(const WaypointConfig& config, sim::RandomStream rng,
                     std::optional<geom::Vec2> start = std::nullopt);

    /// Advances true motion to time `t` (monotonic; earlier times throw) and
    /// returns the increments travelled, in order.
    std::vector<MotionIncrement> advance_to(sim::TimePoint t);

    /// Position-only advance_to: identical motion, RNG consumption and final
    /// state, but no increment vector — returns whether the position changed.
    /// The swarm mobility tick's allocation-free path (its robots have no
    /// odometry consumer, and the sharded tick runs this from worker
    /// threads — per-robot state only, so disjoint robots are safe to
    /// advance concurrently).
    bool advance_position_to(sim::TimePoint t);

    sim::TimePoint time() const { return now_; }
    geom::Vec2 position() const { return position_; }
    /// Radians, CCW from +x.
    double heading() const { return heading_; }
    /// Zero while resting.
    geom::Vec2 velocity() const;
    bool resting() const { return resting_; }
    /// Commanded speed of the current leg (m/s), valid while driving.
    double speed() const { return speed_; }
    geom::Vec2 destination() const { return destination_; }

    /// Snapshot for MRMM's mobility-aware pruning: position, velocity and the
    /// time for which the current plan (leg or rest) remains valid.
    geom::MotionState motion_state() const;

    /// Checkpoint walk (sim/checkpoint.hpp): the RNG position and the motion
    /// state, so a restored model continues the same leg and draws the same
    /// future commands the saved instance would have.
    template <typename Ar, typename Self>
    static void walk(Ar& ar, Self& m) {
        ar(m.rng_, m.now_, m.position_, m.destination_, m.heading_, m.speed_, m.resting_,
           m.plan_end_, m.pending_turn_);
    }

  private:
    void start_new_leg();
    /// Ends the current plan at now_: leaves rest into a new leg, or handles
    /// arrival (optional task pause, then a new random command).
    void finish_plan();
    /// Time remaining until the current plan (leg or rest) completes.
    sim::Duration plan_remaining() const;

    WaypointConfig config_;
    sim::RandomStream rng_;
    sim::TimePoint now_ = sim::TimePoint::origin();
    geom::Vec2 position_;
    geom::Vec2 destination_;
    double heading_ = 0.0;
    double speed_ = 0.0;
    bool resting_ = false;
    sim::TimePoint plan_end_ = sim::TimePoint::origin();
    /// Turn taken at the start of the next emitted increment (radians).
    double pending_turn_ = 0.0;
};

}  // namespace cocoa::mobility
