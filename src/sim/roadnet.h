#ifndef OVS_SIM_ROADNET_H_
#define OVS_SIM_ROADNET_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace ovs::sim {

using IntersectionId = int;
using LinkId = int;

/// Most lanes one link may have, far above what any network in the repo
/// uses. The cap keeps a corrupt road-net file from sizing per-lane
/// simulator storage by an arbitrary integer.
inline constexpr int kMaxLanesPerLink = 16;

/// A node of the road graph. Intersections with `signalized == true` run a
/// two-phase fixed-cycle signal (see SignalController).
struct Intersection {
  IntersectionId id = -1;
  double x = 0.0;  ///< meters, east
  double y = 0.0;  ///< meters, north
  bool signalized = true;
  std::vector<LinkId> incoming;
  std::vector<LinkId> outgoing;
};

/// One direction of a road segment ("link" in the paper's terminology).
struct Link {
  LinkId id = -1;
  IntersectionId from = -1;
  IntersectionId to = -1;
  double length_m = 0.0;
  int num_lanes = 1;
  double speed_limit_mps = 13.89;  ///< 50 km/h default

  /// Free-flow traversal time in seconds.
  double FreeFlowTime() const { return length_m / speed_limit_mps; }
};

/// Directed road network: intersections plus directed links. Construction is
/// additive (AddIntersection / AddLink); Validate() checks structural
/// invariants once building is done.
class RoadNet {
 public:
  RoadNet() = default;

  /// Adds an intersection at (x, y); returns its id.
  IntersectionId AddIntersection(double x, double y, bool signalized = true);

  /// Adds a directed link; LinkError must accept it. Returns its id.
  LinkId AddLink(IntersectionId from, IntersectionId to, double length_m,
                 int num_lanes, double speed_limit_mps);

  /// Why a link with these fields cannot join this network, or nullptr when
  /// it can: endpoints must exist and differ, length and speed limit must be
  /// finite and > 0, lanes in [1, kMaxLanesPerLink]. AddLink CHECKs it;
  /// loaders of outside data call it first and return the reason as a
  /// status.
  const char* LinkError(IntersectionId from, IntersectionId to,
                        double length_m, int num_lanes,
                        double speed_limit_mps) const;

  /// Adds both directions between a and b with shared geometry.
  void AddRoad(IntersectionId a, IntersectionId b, double length_m,
               int num_lanes, double speed_limit_mps);

  int num_intersections() const { return static_cast<int>(intersections_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }

  const Intersection& intersection(IntersectionId id) const {
    CHECK_GE(id, 0);
    CHECK_LT(id, num_intersections());
    return intersections_[id];
  }
  const Link& link(LinkId id) const {
    CHECK_GE(id, 0);
    CHECK_LT(id, num_links());
    return links_[id];
  }
  const std::vector<Intersection>& intersections() const { return intersections_; }
  const std::vector<Link>& links() const { return links_; }

  /// Euclidean distance between two intersections in meters.
  double Distance(IntersectionId a, IntersectionId b) const;

  /// Angle of the link direction in radians (atan2 of the endpoints).
  double LinkBearing(LinkId id) const;

  /// True if the link heads predominantly north-south (|dy| >= |dx|). Used
  /// by the two-phase signal controller.
  bool LinkIsNorthSouth(LinkId id) const;

  /// Checks structural invariants: every link passes LinkError, coordinates
  /// are finite, every intersection is reachable from some link (isolated
  /// intersections are allowed but flagged as OK).
  [[nodiscard]] Status Validate() const;

 private:
  std::vector<Intersection> intersections_;
  std::vector<Link> links_;
};

/// Builds a rows x cols grid with `spacing_m` between adjacent intersections
/// and bidirectional roads on every grid edge.
RoadNet MakeGridNetwork(int rows, int cols, double spacing_m = 300.0,
                        int num_lanes = 2, double speed_limit_mps = 13.89);

}  // namespace ovs::sim

#endif  // OVS_SIM_ROADNET_H_
