#include "sim/roadnet.h"

#include <cmath>

namespace ovs::sim {

IntersectionId RoadNet::AddIntersection(double x, double y, bool signalized) {
  Intersection node;
  node.id = num_intersections();
  node.x = x;
  node.y = y;
  node.signalized = signalized;
  intersections_.push_back(node);
  return node.id;
}

const char* RoadNet::LinkError(IntersectionId from, IntersectionId to,
                               double length_m, int num_lanes,
                               double speed_limit_mps) const {
  if (from < 0 || from >= num_intersections() || to < 0 ||
      to >= num_intersections()) {
    return "dangling endpoint";
  }
  if (from == to) return "self-loop";
  if (!std::isfinite(length_m) || length_m <= 0.0) {
    return "length must be finite and > 0";
  }
  if (num_lanes <= 0) return "lanes must be > 0";
  static_assert(kMaxLanesPerLink == 16, "keep the message below in step");
  if (num_lanes > kMaxLanesPerLink) return "lanes must be <= 16";
  if (!std::isfinite(speed_limit_mps) || speed_limit_mps <= 0.0) {
    return "speed limit must be finite and > 0";
  }
  return nullptr;
}

LinkId RoadNet::AddLink(IntersectionId from, IntersectionId to, double length_m,
                        int num_lanes, double speed_limit_mps) {
  const char* error =
      LinkError(from, to, length_m, num_lanes, speed_limit_mps);
  CHECK(error == nullptr) << error;
  Link link;
  link.id = num_links();
  link.from = from;
  link.to = to;
  link.length_m = length_m;
  link.num_lanes = num_lanes;
  link.speed_limit_mps = speed_limit_mps;
  links_.push_back(link);
  intersections_[from].outgoing.push_back(link.id);
  intersections_[to].incoming.push_back(link.id);
  return link.id;
}

void RoadNet::AddRoad(IntersectionId a, IntersectionId b, double length_m,
                      int num_lanes, double speed_limit_mps) {
  AddLink(a, b, length_m, num_lanes, speed_limit_mps);
  AddLink(b, a, length_m, num_lanes, speed_limit_mps);
}

double RoadNet::Distance(IntersectionId a, IntersectionId b) const {
  const Intersection& ia = intersection(a);
  const Intersection& ib = intersection(b);
  return std::hypot(ia.x - ib.x, ia.y - ib.y);
}

double RoadNet::LinkBearing(LinkId id) const {
  const Link& l = link(id);
  const Intersection& from = intersection(l.from);
  const Intersection& to = intersection(l.to);
  return std::atan2(to.y - from.y, to.x - from.x);
}

bool RoadNet::LinkIsNorthSouth(LinkId id) const {
  const Link& l = link(id);
  const Intersection& from = intersection(l.from);
  const Intersection& to = intersection(l.to);
  return std::fabs(to.y - from.y) >= std::fabs(to.x - from.x);
}

Status RoadNet::Validate() const {
  if (intersections_.empty()) {
    return Status::FailedPrecondition("road network has no intersections");
  }
  for (const Link& l : links_) {
    if (const char* error = LinkError(l.from, l.to, l.length_m, l.num_lanes,
                                      l.speed_limit_mps)) {
      return Status::FailedPrecondition("link " + std::to_string(l.id) +
                                        ": " + error);
    }
  }
  for (const Intersection& node : intersections_) {
    if (!std::isfinite(node.x) || !std::isfinite(node.y)) {
      return Status::FailedPrecondition("intersection " +
                                        std::to_string(node.id) +
                                        " has non-finite coordinates");
    }
    for (LinkId id : node.incoming) {
      if (id < 0 || id >= num_links() || links_[id].to != node.id) {
        return Status::Internal("incoming index corrupt at intersection " +
                                std::to_string(node.id));
      }
    }
    for (LinkId id : node.outgoing) {
      if (id < 0 || id >= num_links() || links_[id].from != node.id) {
        return Status::Internal("outgoing index corrupt at intersection " +
                                std::to_string(node.id));
      }
    }
  }
  return Status::Ok();
}

RoadNet MakeGridNetwork(int rows, int cols, double spacing_m, int num_lanes,
                        double speed_limit_mps) {
  CHECK_GT(rows, 0);
  CHECK_GT(cols, 0);
  RoadNet net;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      net.AddIntersection(c * spacing_m, r * spacing_m);
    }
  }
  auto node_id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        net.AddRoad(node_id(r, c), node_id(r, c + 1), spacing_m, num_lanes,
                    speed_limit_mps);
      }
      if (r + 1 < rows) {
        net.AddRoad(node_id(r, c), node_id(r + 1, c), spacing_m, num_lanes,
                    speed_limit_mps);
      }
    }
  }
  return net;
}

}  // namespace ovs::sim
