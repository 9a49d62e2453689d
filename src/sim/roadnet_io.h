#ifndef OVS_SIM_ROADNET_IO_H_
#define OVS_SIM_ROADNET_IO_H_

#include <string>

#include "sim/roadnet.h"

namespace ovs::sim {

/// Saves a road network as a plain-text file (header + intersection rows +
/// link rows). The format is line-oriented and diff-friendly so networks
/// exported from OpenStreetMap tooling can be reviewed and versioned.
[[nodiscard]] Status SaveRoadNet(const RoadNet& net, const std::string& path);

/// Loads a network written by SaveRoadNet. Validates before returning: a
/// malformed row, a link that RoadNet::LinkError rejects, or a non-finite
/// coordinate is DataLoss naming `path:line`, never a process abort.
[[nodiscard]] StatusOr<RoadNet> LoadRoadNet(const std::string& path);

}  // namespace ovs::sim

#endif  // OVS_SIM_ROADNET_IO_H_
