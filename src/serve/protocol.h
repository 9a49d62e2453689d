#ifndef OVS_SERVE_PROTOCOL_H_
#define OVS_SERVE_PROTOCOL_H_

// Line-delimited JSONL protocol of the recovery server. One request object
// per line in, one response object per line out, matched by `id`:
//
//   {"id":"r1","method":"recover","city":"synthetic3x3","seed":42,
//    "deadline_ms":2000,"recovery_epochs":40,"restarts":2,
//    "observed_speed":[[9.5,...],[...]]}
//   -> {"id":"r1","ok":true,"city":"synthetic3x3","snapshot_version":1,
//       "loss":0.012,...,"tod":[[...]]}
//   -> {"id":"r1","ok":false,
//       "error":{"code":"RESOURCE_EXHAUSTED","message":"...","retryable":true}}
//
// Responses carry no wall-clock fields: the same request against the same
// snapshot serializes to byte-identical lines (the determinism drill in CI
// diffs them directly). Latency lives in the obs histograms instead.

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/mat.h"
#include "util/status.h"

namespace ovs::serve {

/// The protocol parses with the shared codec; these names keep existing
/// `serve::ParseJson` / `serve::JsonValue` callers compiling unchanged.
using ::ovs::JsonValue;
using ::ovs::ParseJson;

enum class Method { kRecover, kHealth, kReload, kListCities };

/// One request line, validated. `observed_speed` cells may be JSON `null`
/// (a dark sensor): they parse as NaN and flow into the masked recovery
/// loss exactly like the sensor-fault pipeline's invalid cells.
struct Request {
  std::string id;
  Method method = Method::kRecover;
  std::string city;         ///< recover, reload
  uint32_t seed = 0;        ///< recover: request RNG seed
  int deadline_ms = 0;      ///< recover: 0 = no deadline
  int recovery_epochs = 0;  ///< recover: 0 = server default
  int restarts = 0;         ///< recover: 0 = server default
  DMat observed_speed;      ///< recover: [links x intervals]
  std::string path;         ///< reload: OVSM weights file to swap in
};

/// Parses and validates one request line.
[[nodiscard]] StatusOr<Request> ParseRequest(const std::string& line);

/// Retry classification baked into the error schema. Overload, shutdown,
/// deadline, and transient internal faults are worth retrying (with
/// backoff); caller mistakes and explicit cancellation are not.
bool IsRetryable(StatusCode code);

/// Per-city row of a health response.
struct CityHealth {
  std::string city;
  uint64_t snapshot_version = 0;
  int queue_depth = 0;
  int queue_capacity = 0;
};

/// One response line. `status` OK selects the success payload (which of the
/// `has_*` payloads is present depends on the method); non-OK serializes as
/// the structured error object with the retryable bit.
struct Response {
  std::string id;
  Status status;
  std::string city;
  uint64_t snapshot_version = 0;
  double loss = 0.0;  ///< recover: final recovery loss (normalized units)
  DMat tod;           ///< recover: [num_od x intervals]
  bool has_tod = false;
  bool has_health = false;
  bool accepting = true;
  std::vector<CityHealth> health;
  bool has_cities = false;
  std::vector<std::string> cities;
};

/// Serializes a response as one JSON line (no trailing newline). Field
/// order and number formatting are fixed so identical results are
/// byte-identical lines.
std::string SerializeResponse(const Response& r);

}  // namespace ovs::serve

#endif  // OVS_SERVE_PROTOCOL_H_
