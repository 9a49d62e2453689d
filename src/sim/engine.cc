#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ovs::sim {

Engine::Engine(const RoadNet* net, EngineConfig config)
    : net_(net), config_(config), signals_(net, config.signal_plan) {
  CHECK(net != nullptr);
  CHECK_GT(config_.dt_s, 0.0);
  CHECK_GT(config_.interval_s, 0.0);
  CHECK_GT(config_.duration_s, 0.0);
  link_states_.resize(net_->num_links());
  occupancy_.resize(net_->num_links(), 0);
  size_t total_lanes = 0;
  for (const Link& l : net_->links()) {
    link_states_[l.id].lanes.resize(l.num_lanes);
    link_states_[l.id].usable_lanes = l.num_lanes;
    total_lanes += l.num_lanes;
  }
  intents_.reserve(total_lanes);
  speed_sum_.resize(net_->num_links(), 0.0);
  speed_obs_.resize(net_->num_links(), 0);
  if (config_.enable_signals && config_.use_actuated_signals) {
    actuated_ = std::make_unique<ActuatedSignalController>(net_, config_.actuated);
    approach_demand_.resize(net_->num_links(), false);
  }
  due_trips_.resize(net_->num_links());
  due_links_.reserve(net_->num_links());
}

bool Engine::MovementIsGreen(LinkId link, double now) const {
  if (!config_.enable_signals) return true;
  if (actuated_ != nullptr) return actuated_->IsGreen(link);
  return signals_.IsGreen(link, now);
}

void Engine::ApplyRoadWork(const std::vector<RoadWork>& works) {
  CHECK(!ran_) << "ApplyRoadWork must precede Run";
  for (const RoadWork& w : works) {
    CHECK_GE(w.link, 0);
    CHECK_LT(w.link, net_->num_links());
    CHECK_GT(w.speed_factor, 0.0);
    CHECK_LE(w.speed_factor, 1.0);
    LinkRuntime& state = link_states_[w.link];
    state.speed_factor = w.speed_factor;
    state.usable_lanes =
        std::max(1, net_->link(w.link).num_lanes - std::max(0, w.closed_lanes));
  }
}

void Engine::AddTrip(TripRequest trip) {
  CHECK(!ran_) << "AddTrip must precede Run";
  if (trip.route.empty()) {
    ++completed_count_;
    return;
  }
  // The spawn queues are ordered by departure time and indexed by the first
  // link: a NaN departure would break the sort's ordering, an infinite one
  // the travel-time mean, and an unknown link id the per-link state.
  CHECK(std::isfinite(trip.depart_time_s)) << "non-finite departure time";
  for (const LinkId id : trip.route) {
    CHECK(id >= 0 && id < net_->num_links()) << "route link id out of range";
  }
  // Route sanity: consecutive links must share an intersection.
  for (size_t i = 0; i + 1 < trip.route.size(); ++i) {
    CHECK_EQ(net_->link(trip.route[i]).to, net_->link(trip.route[i + 1]).from)
        << "disconnected route";
  }
  route_links_.insert(route_links_.end(), trip.route.begin(), trip.route.end());
  route_begin_.push_back(static_cast<int32_t>(route_links_.size()));
  route_idx_.push_back(0);
  lane_.push_back(0);
  pos_.push_back(0.0);
  speed_.push_back(0.0);
  depart_time_.push_back(trip.depart_time_s);
  spawn_time_.push_back(-1.0);
  active_.push_back(0);
  // Sized here rather than by the first step's copy, so the double buffer
  // is allocated on the thread that builds the engine, not the one running it.
  prev_pos_.push_back(0.0);
  prev_speed_.push_back(0.0);
  if (config_.record_trajectories) traces_.emplace_back();
}

double Engine::LinkDesiredSpeed(LinkId id) const {
  return net_->link(id).speed_limit_mps * link_states_[id].speed_factor;
}

double Engine::LaneRearSpace(LinkId link, int lane,
                             const std::vector<double>& pos) const {
  const auto& q = link_states_[link].lanes[lane];
  if (q.empty()) return net_->link(link).length_m;
  return pos[q.back()] - config_.car_following.vehicle_length;
}

int Engine::PickEntryLane(LinkId link, double entry_pos,
                          const std::vector<double>& pos) const {
  const LinkRuntime& state = link_states_[link];
  int best = -1;
  double best_space = -1.0;
  for (int lane = 0; lane < state.usable_lanes; ++lane) {
    const double space = LaneRearSpace(link, lane, pos);
    if (space - entry_pos >= config_.car_following.min_gap &&
        space > best_space) {
      best = lane;
      best_space = space;
    }
  }
  return best;
}

bool Engine::TrySpawn(int vehicle_idx, double now) {
  const LinkId first = RouteLinkAt(vehicle_idx, 0);
  const int lane = PickEntryLane(first, 0.0, pos_);
  if (lane < 0) return false;
  active_[vehicle_idx] = 1;
  lane_[vehicle_idx] = lane;
  pos_[vehicle_idx] = 0.0;
  speed_[vehicle_idx] = 0.5 * LinkDesiredSpeed(first);
  spawn_time_[vehicle_idx] = now;
  route_idx_[vehicle_idx] = 0;
  link_states_[first].lanes[lane].push_back(vehicle_idx);
  ++occupancy_[first];
  ++active_count_;
  ++spawned_count_;
  if (config_.record_trajectories) {
    traces_[vehicle_idx].route.push_back(first);
    traces_[vehicle_idx].entry_times.push_back(now);
  }
  return true;
}

void Engine::SweepLinkPhase1(LinkId id, double now) {
  const CarFollowingParams& cf = config_.car_following;
  const double dt = config_.dt_s;
  const Link& link = net_->link(id);
  const LinkRuntime& state = link_states_[id];
  const double desired = LinkDesiredSpeed(id);

  const int lanes = static_cast<int>(state.lanes.size());
  for (int lane = 0; lane < lanes; ++lane) {
    const LaneQueue& lane_q = state.lanes[lane];
    total_vehicle_steps_ += lane_q.size();
    // Front-to-back: followers see their leader's already-updated state,
    // which keeps platoons stable at dt = 1 s.
    for (size_t i = 0; i < lane_q.size(); ++i) {
      const int vid = lane_q[i];
      double gap;
      double leader_speed;
      bool green = false;
      LinkId next = -1;
      const bool last_link = route_idx_[vid] + 1 == RouteLength(vid);

      if (i > 0) {
        const int leader = lane_q[i - 1];
        gap = pos_[leader] - cf.vehicle_length - pos_[vid];
        leader_speed = speed_[leader];
      } else {
        // Front vehicle: look across the intersection. All cross-link reads
        // below go through the prev_* entries of the next link's lane tails,
        // so the outcome does not depend on which links the sweep has
        // already moved this step.
        const double dist_to_end = link.length_m - pos_[vid];
        if (last_link) {
          // Destination at the link end: drive freely off the network.
          gap = dist_to_end + 100.0;
          leader_speed = desired;
        } else {
          green = MovementIsGreen(id, now);
          next = RouteLinkAt(vid, route_idx_[vid] + 1);
          const int next_lane =
              green ? PickEntryLane(next, 0.0, prev_pos_) : -1;
          if (next_lane >= 0) {
            // Gap extends into the next link up to its rear space. This is
            // only a speed estimate: the authoritative entry decision is
            // re-made by phase 2 against committed state.
            gap = dist_to_end + LaneRearSpace(next, next_lane, prev_pos_) -
                  cf.min_gap;
            const auto& next_q = link_states_[next].lanes[next_lane];
            leader_speed = next_q.empty() ? desired : prev_speed_[next_q.back()];
          } else {
            // Red light, or no room as of the previous step: pull up to the
            // stop line. If green, the vehicle still bids for a crossing
            // below — space may open this very step, and phase 2 must get
            // the chance to claim it before same-step spawning does.
            gap = dist_to_end;
            leader_speed = 0.0;
          }
        }
      }

      speed_[vid] = KraussNextSpeed(speed_[vid], desired, gap, leader_speed,
                                    dt, cf);
      const double new_pos = pos_[vid] + speed_[vid] * dt;

      if (new_pos >= link.length_m && i == 0) {
        if (last_link) {
          intents_.push_back({IntentKind::kComplete, vid, id, lane, -1, 0.0});
        } else if (green) {
          intents_.push_back({IntentKind::kCross, vid, id, lane, next,
                              new_pos - link.length_m});
        } else {
          speed_[vid] = 0.0;  // held at the red light
        }
      }
      pos_[vid] = std::min(new_pos, link.length_m);
    }
  }
}

void Engine::ApplyTransfersPhase2(double now, int interval,
                                  SensorData* out) {
  const CarFollowingParams& cf = config_.car_following;
  // Canonical commit order — ascending link id, then lane index, the order
  // phase 1 appended the intents in. Each crossing re-picks its entry lane
  // against the transfers committed before it, so this order decides which
  // of two competing crossings gets in.
  for (const LaneIntent& intent : intents_) {
    LaneQueue& lane_q = link_states_[intent.link].lanes[intent.lane];
    const int vid = intent.vehicle;
    CHECK(!lane_q.empty());
    CHECK_EQ(lane_q.front(), vid);

    if (intent.kind == IntentKind::kComplete) {
      lane_q.pop_front();
      --occupancy_[intent.link];
      active_[vid] = 0;
      --active_count_;
      ++completed_count_;
      // Travel time counts from the *requested* departure: time spent
      // queued waiting to enter the network is part of the trip.
      total_travel_time_s_ += now - depart_time_[vid];
      if (config_.record_trajectories) traces_[vid].finish_time_s = now;
      continue;
    }

    // kCross: the entry lane is picked here, against committed state — the
    // phase-1 look was a one-step-stale estimate, and an earlier transfer
    // this phase may have consumed the space it saw (or opened new space).
    // Rejection is itself deterministic (same canonical order every run),
    // and the vehicle simply waits at the stop line.
    const int next_lane = PickEntryLane(intent.next_link, 0.0, pos_);
    if (next_lane < 0) {
      pos_[vid] = net_->link(intent.link).length_m;
      speed_[vid] = 0.0;
      continue;
    }
    const double rear =
        LaneRearSpace(intent.next_link, next_lane, pos_) - cf.min_gap;
    lane_q.pop_front();
    --occupancy_[intent.link];
    ++route_idx_[vid];
    lane_[vid] = next_lane;
    pos_[vid] = std::clamp(intent.overshoot_m, 0.0, rear);
    link_states_[intent.next_link].lanes[next_lane].push_back(vid);
    ++occupancy_[intent.next_link];
    out->volume.at(intent.next_link, interval) += 1.0;
    if (config_.record_trajectories) {
      traces_[vid].route.push_back(intent.next_link);
      traces_[vid].entry_times.push_back(now);
    }
  }
}

void Engine::Step(int step, double now, int interval, SensorData* out) {
  const int num_links = net_->num_links();
  // Actuated control: collect per-approach calls, then advance the
  // controller before movement decisions are made this step.
  if (actuated_ != nullptr) {
    for (LinkId id = 0; id < num_links; ++id) {
      char demand = 0;
      if (occupancy_[id] > 0) {
        const double length = net_->link(id).length_m;
        for (const LaneQueue& lane_q : link_states_[id].lanes) {
          if (!lane_q.empty() &&
              length - pos_[lane_q.front()] <= config_.actuation_distance_m) {
            demand = 1;
            break;
          }
        }
      }
      approach_demand_[id] = demand;
    }
    actuated_->Update(now, approach_demand_);
  }

  // Publish the previous step's committed kinematics into the read buffer
  // phase 1 uses for cross-link looks. Those looks read only lane tails,
  // and phase 1 never changes which vehicle is a lane's tail, so refreshing
  // the tails alone gives phase 1 exactly what a copy of every vehicle
  // would.
  for (LinkId id = 0; id < num_links; ++id) {
    if (occupancy_[id] == 0) continue;
    for (const LaneQueue& lane_q : link_states_[id].lanes) {
      if (lane_q.empty()) continue;
      const int tail = lane_q.back();
      prev_pos_[tail] = pos_[tail];
      prev_speed_[tail] = speed_[tail];
    }
  }

  // Phase 1: per-link kinematics + boundary intents, in link-id order.
  // Cross-link reads hit the prev_* buffer and writes touch only the link's
  // own vehicles, so no link sees another's update.
  intents_.clear();
  for (LinkId id = 0; id < num_links; ++id) {
    if (occupancy_[id] > 0) SweepLinkPhase1(id, now);
  }

  // Phase 2: serial canonical-order commit of completions and transfers.
  ApplyTransfersPhase2(now, interval, out);

  // Spawning. Trips whose departure time has arrived join their entry
  // link's queue; each link with queued trips then spawns from the head
  // until a trip does not fit. TrySpawn reads and writes only the entry
  // link, so a full link holds back its own later trips without starving
  // other origins, and the order links are visited in cannot matter.
  while (next_departure_ < depart_order_.size() &&
         depart_time_[depart_order_[next_departure_]] <= now) {
    const int vid = depart_order_[next_departure_++];
    const LinkId entry = RouteLinkAt(vid, 0);
    if (due_trips_[entry].empty()) due_links_.push_back(entry);
    due_trips_[entry].push_back(vid);
  }
  size_t still_due = 0;
  for (const LinkId entry : due_links_) {
    LaneQueue& queue = due_trips_[entry];
    while (!queue.empty() && TrySpawn(queue.front(), now)) {
      queue.pop_front();
      out->volume.at(entry, interval) += 1.0;
    }
    if (!queue.empty()) due_links_[still_due++] = entry;
  }
  due_links_.resize(still_due);

  // Speed sensing: every active vehicle contributes its current speed to its
  // current link's accumulator, summed in lane, then queue, order.
  for (LinkId id = 0; id < num_links; ++id) {
    if (occupancy_[id] == 0) continue;
    for (const LaneQueue& lane_q : link_states_[id].lanes) {
      for (int vid : lane_q) speed_sum_[id] += speed_[vid];
    }
    speed_obs_[id] += occupancy_[id];
  }

  OVS_COUNTER_INC("sim.steps");
  if (step_observer_) step_observer_(*this, step);
}

SensorData Engine::Run() {
  CHECK(!ran_) << "Engine::Run is single-shot";
  ran_ = true;
  OVS_TRACE_SCOPE("sim.run");
  OVS_COUNTER_INC("sim.runs");

  const int intervals = config_.NumIntervals();
  SensorData out;
  out.volume = DMat(net_->num_links(), intervals);
  out.speed = DMat(net_->num_links(), intervals);

  // Order demand by departure time. stable_sort: equal departure times keep
  // AddTrip order, independent of the sort implementation.
  depart_order_.resize(pos_.size());
  std::iota(depart_order_.begin(), depart_order_.end(), 0);
  std::stable_sort(depart_order_.begin(), depart_order_.end(),
                   [this](int a, int b) {
                     return depart_time_[a] < depart_time_[b];
                   });

  // Writes an interval's mean sensed speed per link (free flow where no
  // vehicle was seen) and clears the accumulators for the next one.
  const auto flush_speeds = [&](int interval) {
    for (LinkId l = 0; l < net_->num_links(); ++l) {
      out.speed.at(l, interval) = speed_obs_[l] > 0
                                      ? speed_sum_[l] / speed_obs_[l]
                                      : LinkDesiredSpeed(l);
      speed_sum_[l] = 0.0;
      speed_obs_[l] = 0;
    }
  };

  const int steps = static_cast<int>(config_.duration_s / config_.dt_s + 0.5);
  int current_interval = 0;
  for (int step = 0; step < steps; ++step) {
    const double now = step * config_.dt_s;
    const int interval =
        std::min(intervals - 1, static_cast<int>(now / config_.interval_s));
    if (interval != current_interval) {
      OVS_TRACE_SCOPE("sim.interval_flush");
      OVS_COUNTER_INC("sim.interval_flushes");
      // Sampled at interval cadence, not per step: a full bench run emits
      // millions of steps, which would dominate the trace file.
      OVS_TRACE_COUNTER("sim.active_vehicles",
                        static_cast<double>(active_count_));
      flush_speeds(current_interval);
      current_interval = interval;
    }
    Step(step, now, interval, &out);
  }
  flush_speeds(current_interval);

  // Sensor degradation happens after the physics: the simulated city is
  // intact, only its measurements are corrupted.
  if (config_.sensor_faults.any()) {
    ApplySensorFaults(config_.sensor_faults, &out.speed, &out.volume);
    OVS_COUNTER_ADD("sim.sensor_fault_cells",
                    static_cast<uint64_t>(CountInvalidCells(out.speed)));
  }

  OVS_COUNTER_ADD("sim.vehicle_steps", total_vehicle_steps_);
  OVS_COUNTER_ADD("sim.completed_trips",
                  static_cast<uint64_t>(completed_count_));

  out.spawned_trips = spawned_count_;
  out.completed_trips = completed_count_;
  size_t unspawned = depart_order_.size() - next_departure_;
  for (const LinkId entry : due_links_) unspawned += due_trips_[entry].size();
  out.unspawned_trips = static_cast<int>(unspawned);
  out.mean_travel_time_s =
      completed_count_ > 0 ? total_travel_time_s_ / completed_count_ : 0.0;
  if (config_.record_trajectories) {
    out.trajectories.reserve(traces_.size());
    for (size_t v = 0; v < traces_.size(); ++v) {
      traces_[v].depart_time_s = depart_time_[v];
      out.trajectories.push_back(std::move(traces_[v]));
    }
  }
  return out;
}

SensorData Simulate(const RoadNet& net, const EngineConfig& config,
                    const std::vector<TripRequest>& trips,
                    const std::vector<RoadWork>& works) {
  Engine engine(&net, config);
  engine.ApplyRoadWork(works);
  for (const TripRequest& trip : trips) engine.AddTrip(trip);
  return engine.Run();
}

}  // namespace ovs::sim
