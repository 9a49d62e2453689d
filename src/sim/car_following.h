#ifndef OVS_SIM_CAR_FOLLOWING_H_
#define OVS_SIM_CAR_FOLLOWING_H_

namespace ovs::sim {

/// Parameters of the Krauss (1998) car-following model used by SUMO and
/// CityFlow-style microscopic simulators. Units: meters, seconds.
struct CarFollowingParams {
  double max_accel = 2.0;      ///< comfortable acceleration, m/s^2
  double max_decel = 4.5;      ///< maximum braking, m/s^2
  /// Driver reaction time tau, s. 1.6 s puts the Krauss saturation flow
  /// near the real-world ~1800 veh/h/lane; the model's default 1 s would
  /// double that and leave link speed insensitive to volume until jam.
  double reaction_time = 1.6;
  double min_gap = 3.0;        ///< standstill gap to the leader, m
  double vehicle_length = 5.0; ///< occupied road length per vehicle, m
};

/// The Krauss safe speed: the highest speed at which the follower can still
/// avoid a collision if the leader brakes at max_decel, given the current
/// `gap` (bumper-to-bumper) and `leader_speed`. For gap <= 0 returns 0.
double KraussSafeSpeed(double gap, double leader_speed,
                       const CarFollowingParams& params);

/// One car-following update: returns the follower's next speed given its
/// current speed, the desired (link limit) speed, the gap to the leader and
/// the leader speed, over a step of `dt` seconds. The result is clamped to
/// [0, desired_speed] and accelerates/brakes within the model limits.
double KraussNextSpeed(double current_speed, double desired_speed, double gap,
                       double leader_speed, double dt,
                       const CarFollowingParams& params);

}  // namespace ovs::sim

#endif  // OVS_SIM_CAR_FOLLOWING_H_
