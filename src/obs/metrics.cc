#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/json.h"
#include "util/logging.h"

namespace ovs::obs {

double HistogramQuantile(const MetricSnapshot& s, double q) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  if (s.kind != MetricSnapshot::Kind::kHistogram) return kNan;
  if (s.hist_count == 0 || s.bucket_counts.empty()) return kNan;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;

  const double rank = q * static_cast<double>(s.hist_count);
  double cumulative = 0.0;
  for (size_t i = 0; i < s.bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(s.bucket_counts[i]);
    if (cumulative + in_bucket < rank && i + 1 < s.bucket_counts.size()) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= s.bounds.size()) {
      // Overflow bucket: no finite upper bound to interpolate toward, so
      // saturate at the largest finite bound (the Prometheus convention).
      return s.bounds.empty() ? kNan : s.bounds.back();
    }
    const double upper = s.bounds[i];
    // The first bucket has no explicit lower edge; observations are assumed
    // nonnegative unless the bound itself is negative.
    const double lower = i == 0 ? std::min(0.0, upper) : s.bounds[i - 1];
    if (in_bucket <= 0.0) return upper;
    const double fraction = (rank - cumulative) / in_bucket;
    return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
  }
  return kNan;  // Unreachable: the overflow bucket always terminates above.
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      bucket_counts_(std::vector<std::atomic<uint64_t>>(bounds_.size() + 1)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CHECK_LT(bounds_[i - 1], bounds_[i]) << "histogram bounds must ascend";
  }
}

void Histogram::Reset() {
  for (auto& b : bucket_counts_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    // Private ctor (registry-only construction), so make_unique cannot help.
    // ovs-lint: allow(naked-new)
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter())).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    // ovs-lint: allow(naked-new)
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge())).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    // ovs-lint: allow(naked-new)
    std::unique_ptr<Histogram> h(new Histogram(std::move(bounds)));
    it = histograms_.emplace(name, std::move(h)).first;
  } else {
    CHECK(it->second->bounds() == bounds)
        << "histogram '" << name << "' re-registered with different bounds";
  }
  return it->second.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.counter_value = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.gauge_value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.bounds = h->bounds();
    s.bucket_counts.reserve(s.bounds.size() + 1);
    for (size_t i = 0; i <= s.bounds.size(); ++i) {
      s.bucket_counts.push_back(h->bucket_count(i));
    }
    s.hist_count = h->count();
    s.hist_sum = h->sum();
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void MetricsRegistry::WriteCsv(std::ostream& os) const {
  os << "name,type,value,count,sum,p50,p90,p99\n";
  for (const MetricSnapshot& s : Snapshot()) {
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << s.name << ",counter," << s.counter_value << ",,,,,\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        os << s.name << ",gauge," << JsonNumber(s.gauge_value) << ",,,,,\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        const double mean =
            s.hist_count > 0 ? s.hist_sum / static_cast<double>(s.hist_count)
                             : 0.0;
        // Quantile columns are empty (not 0) for an empty histogram, so a
        // spreadsheet cannot mistake "no data" for "all zeros".
        os << s.name << ",histogram," << JsonNumber(mean) << ","
           << s.hist_count << "," << JsonNumber(s.hist_sum);
        for (const double q : {0.50, 0.90, 0.99}) {
          const double v = HistogramQuantile(s, q);
          os << ",";
          if (std::isfinite(v)) os << JsonNumber(v);
        }
        os << "\n";
        break;
      }
    }
  }
}

void MetricsRegistry::WriteJsonl(std::ostream& os) const {
  for (const MetricSnapshot& s : Snapshot()) {
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << "{\"type\":\"counter\",\"name\":\"" << JsonEscape(s.name)
           << "\",\"value\":" << s.counter_value << "}\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        os << "{\"type\":\"gauge\",\"name\":\"" << JsonEscape(s.name)
           << "\",\"value\":" << JsonNumber(s.gauge_value) << "}\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        os << "{\"type\":\"histogram\",\"name\":\"" << JsonEscape(s.name)
           << "\",\"count\":" << s.hist_count
           << ",\"sum\":" << JsonNumber(s.hist_sum)
           << ",\"p50\":" << JsonNumber(HistogramQuantile(s, 0.50))
           << ",\"p90\":" << JsonNumber(HistogramQuantile(s, 0.90))
           << ",\"p99\":" << JsonNumber(HistogramQuantile(s, 0.99))
           << ",\"buckets\":[";
        for (size_t i = 0; i < s.bucket_counts.size(); ++i) {
          if (i > 0) os << ",";
          os << "{\"le\":";
          if (i < s.bounds.size()) {
            os << JsonNumber(s.bounds[i]);
          } else {
            os << "\"+inf\"";
          }
          os << ",\"count\":" << s.bucket_counts[i] << "}";
        }
        os << "]}\n";
        break;
      }
    }
  }
}

void AddCounterDynamic(const std::string& name, uint64_t n) {
#if defined(OVS_OBS_DISABLED)
  (void)name;
  (void)n;
#else
  MetricsRegistry::Global().GetCounter(name)->Add(n);
#endif
}

void SetGaugeDynamic(const std::string& name, double value) {
#if defined(OVS_OBS_DISABLED)
  (void)name;
  (void)value;
#else
  MetricsRegistry::Global().GetGauge(name)->Set(value);
#endif
}

}  // namespace ovs::obs
