#ifndef OVS_UTIL_JSON_H_
#define OVS_UTIL_JSON_H_

// The one JSON codec of the repo. Both ends of the recovery loop cross a
// process boundary as JSON: `ovs_served` reads JSONL requests and writes
// responses, the obs exporters write metrics, traces and run reports, and
// tools/perfdiff reads those reports back. All of them parse with ParseJson
// and escape/format with the writer helpers below, so the server and the
// perf gate accept exactly one language.
//
// Writers are hand-ordered by their callers (never driven by map order), so
// identical values serialize to identical bytes.

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace ovs {

/// Deepest array/object nesting ParseJson accepts. Run reports nest two
/// levels per span level of the phase tree (the checked-in baselines reach
/// 10); anything near the cap is garbage or an attack on the recursion
/// depth, and the cap is what keeps a hostile `[[[[...` off the stack.
inline constexpr int kJsonMaxDepth = 64;

/// JSON document model. Objects keep their members in a map for lookup; a
/// duplicate key keeps its last value.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses one complete JSON document (surrounding whitespace allowed).
/// InvalidArgument on syntax errors, raw control characters or lone
/// surrogates in strings, trailing garbage, or nesting deeper than
/// kJsonMaxDepth; the message names the byte offset and line of the error.
[[nodiscard]] StatusOr<JsonValue> ParseJson(const std::string& text);

/// Formats a double for export: full round-trip precision, and `null` for
/// non-finite values so the output stays machine-parseable.
std::string JsonNumber(double v);

/// Escapes `s` for use between the quotes of a JSON string.
std::string JsonEscape(const std::string& s);

}  // namespace ovs

#endif  // OVS_UTIL_JSON_H_
