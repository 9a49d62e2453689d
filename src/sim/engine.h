#ifndef OVS_SIM_ENGINE_H_
#define OVS_SIM_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/car_following.h"
#include "sim/lane_queue.h"
#include "sim/roadnet.h"
#include "sim/router.h"
#include "sim/sensor_faults.h"
#include "sim/signal.h"
#include "util/mat.h"

namespace ovs::sim {

/// Engine-wide configuration. Defaults match the paper's experiment setup:
/// 2-hour horizon split into 10-minute sensor intervals.
struct EngineConfig {
  double dt_s = 1.0;            ///< integration step
  double interval_s = 600.0;    ///< sensor aggregation interval (10 min)
  double duration_s = 7200.0;   ///< total simulated horizon (2 h)
  CarFollowingParams car_following;
  SignalPlan signal_plan;
  bool enable_signals = true;
  /// Replace the fixed two-phase plan with vehicle-actuated control
  /// (ActuatedSignalController). Only meaningful when enable_signals.
  bool use_actuated_signals = false;
  ActuatedSignalController::Params actuated;
  /// Distance from the stop line within which a vehicle places an actuation
  /// call on its approach.
  double actuation_distance_m = 60.0;
  /// Record per-vehicle traces (link entry timestamps) into
  /// SensorData::trajectories — the raw material for GPS-trajectory style
  /// data pipelines. Off by default (costs memory on big runs).
  bool record_trajectories = false;
  /// Degrades the sensor outputs before Run() returns them (dropout,
  /// blackouts, stuck sensors, noise, spikes, NaN poisoning — see
  /// sim/sensor_faults.h). All-off by default; deterministic given the
  /// fault seed regardless of thread count.
  SensorFaultConfig sensor_faults;

  int NumIntervals() const {
    // At least one sensor bucket even when the horizon is shorter than the
    // aggregation interval.
    return std::max(1, static_cast<int>(duration_s / interval_s + 0.5));
  }
};

/// A per-link perturbation used for the RQ3 road-work experiments: scales the
/// attainable speed and closes lanes on the affected link.
struct RoadWork {
  LinkId link = -1;
  double speed_factor = 1.0;  ///< multiplies the link speed limit, in (0, 1]
  int closed_lanes = 0;       ///< lanes taken out of service (>= 0)
};

/// A demand event: one vehicle departing at `depart_time_s` along `route`.
struct TripRequest {
  double depart_time_s = 0.0;
  Route route;
};

/// One vehicle's realized trip: the links it traversed and when it entered
/// each (plus departure/finish). This is what a GPS logger on the vehicle
/// would capture, up to map-matching.
struct VehicleTrace {
  Route route;                       ///< links actually traversed
  std::vector<double> entry_times;   ///< entry timestamp per traversed link
  double depart_time_s = 0.0;        ///< requested departure
  double finish_time_s = -1.0;       ///< arrival; -1 if still en route at end
};

/// What the city's "sensors" observed: per-link per-interval volume (vehicles
/// entering the link) and mean speed (m/s; free-flow when no vehicle was
/// observed). This pair is the paper's (volume tensor, speed tensor).
struct SensorData {
  DMat volume;  ///< [num_links x num_intervals]
  DMat speed;   ///< [num_links x num_intervals], m/s

  int spawned_trips = 0;
  int completed_trips = 0;
  int unspawned_trips = 0;       ///< demand that never found entry space
  double mean_travel_time_s = 0.0;

  /// Per-vehicle traces (only when EngineConfig::record_trajectories).
  /// Unspawned vehicles get an empty route.
  std::vector<VehicleTrace> trajectories;
};

/// Microscopic traffic simulator: Krauss car-following on multi-lane links,
/// two-phase fixed signals, queue spillback across links, and per-interval
/// link sensors. Deterministic: same network + trips => same sensor output,
/// bitwise, at any thread count.
///
/// Vehicle state lives in structure-of-arrays form and each step runs
/// serially in two phases: phase 1 computes kinematics and boundary intents
/// link by link (cross-link reads go through a double buffer of the lane
/// tails' previous-step state), phase 2 commits completions and link
/// transfers in canonical link-id order. A step skips links with no vehicle
/// on them and spawns only on entry links with a trip due, so its cost
/// follows the traffic, not the size of the network or of the backlog.
/// One Run uses one thread; callers that need throughput run whole engines
/// concurrently (GenerateTrainingData). See DESIGN.md "Simulator step
/// (two-phase commit)".
///
/// Usage: construct, optionally ApplyRoadWork, AddTrip for every vehicle,
/// then Run() once. The engine is single-shot; build a new one per scenario.
class Engine {
 public:
  Engine(const RoadNet* net, EngineConfig config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Applies road-work perturbations. Must precede Run().
  void ApplyRoadWork(const std::vector<RoadWork>& works);

  /// Queues one vehicle. Must precede Run(). Trips with empty routes are
  /// counted as completed immediately. CHECK-fails on a non-finite
  /// departure time, a route link id outside the network, or a route whose
  /// consecutive links do not share an intersection.
  void AddTrip(TripRequest trip);

  /// Runs the full horizon and returns the sensor observations.
  SensorData Run();

  /// Number of vehicles currently on the network (valid after Run for
  /// inspection of residual congestion).
  int active_vehicles() const { return active_count_; }

  const EngineConfig& config() const { return config_; }

  // --- Introspection for the invariant/property tests -------------------
  // These expose committed (post-step) state only; none of them mutate.

  /// Total vehicles added via AddTrip with a non-empty route.
  int num_vehicles() const { return static_cast<int>(pos_.size()); }
  /// Vehicles that have entered the network so far.
  int spawned_trips() const { return spawned_count_; }
  /// Trips finished so far (includes empty-route trips completed at AddTrip).
  int completed_trips() const { return completed_count_; }
  int num_lanes(LinkId link) const {
    return static_cast<int>(link_states_[link].lanes.size());
  }
  /// Lane queue, front (largest pos) first.
  const LaneQueue& lane_queue(LinkId link, int lane) const {
    return link_states_[link].lanes[lane];
  }
  /// Vehicles on the link: the sum of its lane queues' sizes.
  int link_occupancy(LinkId link) const { return occupancy_[link]; }
  double vehicle_pos(int v) const { return pos_[v]; }
  double vehicle_speed(int v) const { return speed_[v]; }
  bool vehicle_active(int v) const { return active_[v] != 0; }
  /// Link the vehicle currently occupies, or -1 when not on the network.
  LinkId vehicle_link(int v) const {
    return active_[v] ? route_links_[route_begin_[v] + route_idx_[v]] : -1;
  }

  /// Invoked after every completed step (movement, transfers, spawning,
  /// sensing) with the engine in a consistent committed state. Test-only
  /// hook for per-step invariant checking; keep the callback cheap.
  void SetStepObserver(std::function<void(const Engine&, int step)> observer) {
    step_observer_ = std::move(observer);
  }

 private:
  struct LinkRuntime {
    /// Vehicle indices per lane, ordered front (largest pos) first.
    std::vector<LaneQueue> lanes;
    double speed_factor = 1.0;
    int usable_lanes = 1;
  };

  /// What a lane's front vehicle wants to do at the link boundary this step.
  /// At most one intent per lane per step; phase 2 commits them serially.
  enum class IntentKind : uint8_t {
    kComplete,  ///< front vehicle finishes its trip at the link end
    kCross,     ///< front vehicle transfers into next_link
  };
  struct LaneIntent {
    IntentKind kind = IntentKind::kComplete;
    int32_t vehicle = -1;
    LinkId link = -1;  ///< the link whose lane holds the vehicle at its front
    int32_t lane = -1;
    LinkId next_link = -1;     ///< kCross only
    double overshoot_m = 0.0;  ///< kCross only: distance past the stop line
  };

  int RouteLength(int v) const { return route_begin_[v + 1] - route_begin_[v]; }
  LinkId RouteLinkAt(int v, int idx) const {
    return route_links_[route_begin_[v] + idx];
  }

  /// Effective top speed on a link (limit x road-work factor).
  double LinkDesiredSpeed(LinkId id) const;

  /// Picks the lane on `link` with the most rear space; returns the lane
  /// index, or -1 if no lane can accept a vehicle at position `entry_pos`.
  /// Vehicle positions are read from `pos`: spawning and phase 2 pass the
  /// committed pos_, phase 1 passes the previous step's prev_pos_ for its
  /// cross-link looks, so its result cannot depend on which links the sweep
  /// has already moved this step.
  int PickEntryLane(LinkId link, double entry_pos,
                    const std::vector<double>& pos) const;

  /// Rear space available on a lane, positions read from `pos`: position of
  /// its last vehicle minus its length, or the link length when empty.
  double LaneRearSpace(LinkId link, int lane,
                       const std::vector<double>& pos) const;

  /// Attempts to place vehicle `v` at the head of its first link. Reads and
  /// writes only that link's state, so whether it succeeds does not depend
  /// on spawns at other links.
  bool TrySpawn(int vehicle_idx, double now);

  /// One dt step: two-phase movement sweep + spawning + sensing.
  void Step(int step, double now, int interval, SensorData* out);

  /// Phase 1 for one link: advance every vehicle on it (front-to-back per
  /// lane) and append at most one boundary intent per lane to `intents_`.
  /// Writes only this link's vehicles, and reads other links only through
  /// their lane tails' prev_* entries, so its result does not depend on
  /// which links were swept before it.
  void SweepLinkPhase1(LinkId id, double now);

  /// Phase 2: commit `intents_` serially in canonical order (ascending link
  /// id, then lane index: the order phase 1 appended them in). Each crossing
  /// picks its entry lane against *committed* state — the phase-1 look was
  /// only a one-step stale speed estimate — so earlier transfers can
  /// deterministically reject later ones when the target link fills up, and
  /// a crossing never loses its slot to same-step spawning (spawns run after
  /// phase 2).
  void ApplyTransfersPhase2(double now, int interval, SensorData* out);

  /// True when the movement out of `link` may cross at `now`.
  bool MovementIsGreen(LinkId link, double now) const;

  const RoadNet* net_;
  EngineConfig config_;
  SignalController signals_;
  std::unique_ptr<ActuatedSignalController> actuated_;
  std::vector<char> approach_demand_;  ///< scratch, per link per step

  // Vehicle state, structure-of-arrays. Routes are CSR-flattened: vehicle
  // v's route is route_links_[route_begin_[v] .. route_begin_[v+1]).
  std::vector<LinkId> route_links_;
  std::vector<int32_t> route_begin_{0};
  std::vector<int32_t> route_idx_;   ///< index of current link within route
  std::vector<int32_t> lane_;
  std::vector<double> pos_;
  std::vector<double> speed_;
  /// Double buffer: kinematics as committed at the end of the previous
  /// step. Phase 1 reads *other* links' vehicles only through these two,
  /// and only at lane tails, so Step refreshes just the tail vehicle of
  /// each non-empty lane; the other entries are stale and never read.
  std::vector<double> prev_pos_;
  std::vector<double> prev_speed_;
  std::vector<double> depart_time_;
  std::vector<double> spawn_time_;
  std::vector<char> active_;
  /// Per vehicle, only when config_.record_trajectories; empty otherwise.
  std::vector<VehicleTrace> traces_;

  std::vector<LinkRuntime> link_states_;
  /// Vehicles per link, kept equal to the sum of its lane-queue sizes by
  /// TrySpawn and phase 2. A step skips links where it is 0.
  std::vector<int> occupancy_;
  /// Phase 1's boundary intents, at most one per lane, in canonical order.
  /// Reserved for every lane in the constructor; cleared every step.
  std::vector<LaneIntent> intents_;

  /// Spawn queues. Run sorts the vehicles by departure time (ties in AddTrip
  /// order) into depart_order_; each step moves the cursor next_departure_
  /// past the trips now due and appends each to its entry link's FIFO in
  /// due_trips_. due_links_ lists the links whose FIFO is non-empty, so a
  /// step visits those links only, and each stops at its first trip that
  /// does not fit.
  std::vector<int> depart_order_;
  size_t next_departure_ = 0;
  std::vector<LaneQueue> due_trips_;  ///< per link; sized in the constructor
  std::vector<LinkId> due_links_;     ///< reserved for every link
  int active_count_ = 0;
  int completed_count_ = 0;
  int spawned_count_ = 0;
  double total_travel_time_s_ = 0.0;
  bool ran_ = false;
  /// Vehicle-updates executed across all steps; published as the
  /// `sim.vehicle_steps` metric when Run finishes.
  uint64_t total_vehicle_steps_ = 0;

  // Per-interval scratch accumulators for speed sensing.
  std::vector<double> speed_sum_;   // per link, current interval
  std::vector<int> speed_obs_;      // per link, current interval

  std::function<void(const Engine&, int step)> step_observer_;
};

/// Convenience wrapper: builds an engine, loads `trips`, applies `works`, and
/// runs. This is the `TOD -> (volume, speed)` oracle used by the estimators.
SensorData Simulate(const RoadNet& net, const EngineConfig& config,
                    const std::vector<TripRequest>& trips,
                    const std::vector<RoadWork>& works = {});

}  // namespace ovs::sim

#endif  // OVS_SIM_ENGINE_H_
