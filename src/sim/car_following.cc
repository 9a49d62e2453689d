#include "sim/car_following.h"

#include <algorithm>
#include <cmath>

namespace ovs::sim {

double KraussSafeSpeed(double gap, double leader_speed,
                       const CarFollowingParams& params) {
  if (gap <= 0.0) return 0.0;
  // v_safe = -b*tau + sqrt(b^2 tau^2 + v_l^2 + 2 b gap)
  const double b = params.max_decel;
  const double tau = params.reaction_time;
  const double disc = b * b * tau * tau + leader_speed * leader_speed +
                      2.0 * b * gap;
  return std::max(0.0, -b * tau + std::sqrt(disc));
}

double KraussNextSpeed(double current_speed, double desired_speed, double gap,
                       double leader_speed, double dt,
                       const CarFollowingParams& params) {
  const double v_safe = KraussSafeSpeed(gap, leader_speed, params);
  double v = std::min({current_speed + params.max_accel * dt, desired_speed,
                       v_safe});
  // Braking is also bounded: never drop more than max_decel * dt per step
  // (except that speed never goes negative).
  v = std::max(v, current_speed - params.max_decel * dt);
  return std::clamp(v, 0.0, std::max(desired_speed, 0.0));
}

}  // namespace ovs::sim
