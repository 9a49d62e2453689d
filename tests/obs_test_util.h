#ifndef OVS_TESTS_OBS_TEST_UTIL_H_
#define OVS_TESTS_OBS_TEST_UTIL_H_

// Helpers shared by the observability tests (obs_test.cc, report_test.cc):
// a numeric field extractor for spot checks and a scope guard for the
// global thread pool. JSON validity is checked with ovs::ParseJson
// (util/json), the same strict parser the server and perfdiff use.

#include <gtest/gtest.h>

#include <string>

#include "util/thread_pool.h"

namespace ovs::testutil {

/// Restores the global pool size on scope exit so test order does not
/// matter.
struct ThreadGuard {
  explicit ThreadGuard(int threads) : before(GlobalThreadCount()) {
    SetGlobalThreads(threads);
  }
  ~ThreadGuard() { SetGlobalThreads(before); }
  int before;
};

/// Extracts the first `"field":<number>` after `from` in `json`.
inline double NumberField(const std::string& json, const std::string& field,
                          size_t from) {
  const std::string key = "\"" + field + "\":";
  size_t pos = json.find(key, from);
  EXPECT_NE(pos, std::string::npos) << field;
  if (pos == std::string::npos) return -1.0;
  return std::stod(json.substr(pos + key.size()));
}

}  // namespace ovs::testutil

#endif  // OVS_TESTS_OBS_TEST_UTIL_H_
