#include "sim/roadnet_io.h"

#include <cmath>
#include <fstream>

#include "util/atomic_file.h"
#include "util/parse.h"
#include "util/string_util.h"

namespace ovs::sim {

namespace {
constexpr char kMagic[] = "OVSNET,1";
}  // namespace

Status SaveRoadNet(const RoadNet& net, const std::string& path) {
  RETURN_IF_ERROR(net.Validate());
  AtomicFileWriter writer(path);
  RETURN_IF_ERROR(writer.status());
  std::ostream& out = writer.stream();
  out << kMagic << "\n";
  out << "intersections," << net.num_intersections() << "\n";
  for (const Intersection& node : net.intersections()) {
    out << node.id << "," << FormatDouble(node.x, 3) << ","
        << FormatDouble(node.y, 3) << "," << (node.signalized ? 1 : 0) << "\n";
  }
  out << "links," << net.num_links() << "\n";
  for (const Link& l : net.links()) {
    out << l.id << "," << l.from << "," << l.to << ","
        << FormatDouble(l.length_m, 3) << "," << l.num_lanes << ","
        << FormatDouble(l.speed_limit_mps, 3) << "\n";
  }
  return writer.Commit();
}

StatusOr<RoadNet> LoadRoadNet(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line) || StripWhitespace(line) != kMagic) {
    return Status::DataLoss("bad magic in " + path);
  }

  int lineno = 1;
  auto read_header = [&](const char* tag) -> StatusOr<int> {
    if (!std::getline(in, line)) return Status::DataLoss("truncated " + path);
    ++lineno;
    std::vector<std::string> parts = StrSplit(StripWhitespace(line), ',');
    if (parts.size() != 2 || parts[0] != tag) {
      return Status::DataLoss("expected '" + std::string(tag) + "' header in " +
                              path);
    }
    return ParseInt(parts[1],
                    path + ":" + std::to_string(lineno) + " " + tag + " count");
  };
  auto ctx = [&](const char* field) {
    return path + ":" + std::to_string(lineno) + " " + field;
  };

  RoadNet net;
  StatusOr<int> intersections = read_header("intersections");
  if (!intersections.ok()) return intersections.status();
  for (int i = 0; i < *intersections; ++i) {
    if (!std::getline(in, line)) return Status::DataLoss("truncated " + path);
    ++lineno;
    std::vector<std::string> f = StrSplit(StripWhitespace(line), ',');
    if (f.size() != 4) return Status::DataLoss("bad intersection row in " + path);
    ASSIGN_OR_RETURN(const int row_id, ParseInt(f[0], ctx("intersection id")));
    ASSIGN_OR_RETURN(const double x, ParseDouble(f[1], ctx("intersection x")));
    ASSIGN_OR_RETURN(const double y, ParseDouble(f[2], ctx("intersection y")));
    ASSIGN_OR_RETURN(const int signalized,
                     ParseInt(f[3], ctx("intersection signalized")));
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::DataLoss(ctx("intersection") + ": x/y must be finite");
    }
    const int id = net.AddIntersection(x, y, signalized != 0);
    if (id != row_id) {
      return Status::DataLoss("non-sequential intersection ids in " + path);
    }
  }
  StatusOr<int> links = read_header("links");
  if (!links.ok()) return links.status();
  for (int i = 0; i < *links; ++i) {
    if (!std::getline(in, line)) return Status::DataLoss("truncated " + path);
    ++lineno;
    std::vector<std::string> f = StrSplit(StripWhitespace(line), ',');
    if (f.size() != 6) return Status::DataLoss("bad link row in " + path);
    ASSIGN_OR_RETURN(const int row_id, ParseInt(f[0], ctx("link id")));
    ASSIGN_OR_RETURN(const int from, ParseInt(f[1], ctx("link from")));
    ASSIGN_OR_RETURN(const int to, ParseInt(f[2], ctx("link to")));
    ASSIGN_OR_RETURN(const double length, ParseDouble(f[3], ctx("link length")));
    ASSIGN_OR_RETURN(const int lanes, ParseInt(f[4], ctx("link lanes")));
    ASSIGN_OR_RETURN(const double speed_limit,
                     ParseDouble(f[5], ctx("link speed_limit")));
    // Checked here because AddLink CHECK-fails on a bad link.
    if (const char* error =
            net.LinkError(from, to, length, lanes, speed_limit)) {
      return Status::DataLoss(ctx("link") + ": " + error);
    }
    const int id = net.AddLink(from, to, length, lanes, speed_limit);
    if (id != row_id) {
      return Status::DataLoss("non-sequential link ids in " + path);
    }
  }
  RETURN_IF_ERROR(net.Validate());
  return net;
}

}  // namespace ovs::sim
