#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "util/json.h"
#include "util/logging.h"

namespace ovs::obs {

namespace internal_trace {
std::atomic<bool> g_trace_enabled{false};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace internal_trace

namespace {

/// One recorded event. `name` must outlive the buffer (literal or interned).
struct TraceEvent {
  const char* name = nullptr;
  char phase = 'X';      // 'X' complete span, 'C' counter sample
  uint64_t ts_ns = 0;    // absolute steady-clock start
  uint64_t dur_ns = 0;   // span duration ('X' only)
  double value = 0.0;    // counter value ('C' only)
};

constexpr size_t kBlockSize = 4096;

/// Soft cap on buffered events per tracing session. A fully instrumented
/// fast-scale run records a few hundred thousand spans; one mistaken
/// per-vehicle-step scope records hundreds of millions (the PR 3 postmortem's
/// 190 MB trace). Past the cap events are counted and dropped instead of
/// buffered, so the failure mode is a WARNING plus a truncated trace rather
/// than an unbounded allocation.
constexpr size_t kDefaultEventCap = 1u << 20;

std::atomic<size_t> g_event_cap{kDefaultEventCap};
std::atomic<size_t> g_admitted_events{0};
std::atomic<size_t> g_dropped_events{0};

/// Reserves a buffer slot under the soft cap; false means drop the event.
bool AdmitEvent() {
  const size_t cap = g_event_cap.load(std::memory_order_relaxed);
  if (g_admitted_events.fetch_add(1, std::memory_order_relaxed) < cap) {
    return true;
  }
  g_dropped_events.fetch_add(1, std::memory_order_relaxed);
  OVS_COUNTER_INC("obs.trace.dropped_events");
  return false;
}

struct EventBlock {
  std::array<TraceEvent, kBlockSize> events;
};

/// Per-thread event buffer. The owning thread appends without locking:
/// it writes the event slot, then publishes it with a release store of
/// size_. The exporter loads size_ with acquire and reads only published
/// slots, so the handoff is race-free without a lock on the hot path. The
/// mutex guards the block list only (allocation by the owner, iteration by
/// the exporter).
class ThreadBuffer {
 public:
  explicit ThreadBuffer(uint32_t tid) : tid_(tid) {}

  void Append(const TraceEvent& e) {
    const size_t idx = size_.load(std::memory_order_relaxed);
    const size_t block = idx / kBlockSize;
    if (block == owned_block_count_) {
      std::lock_guard<std::mutex> lock(mu_);
      blocks_.push_back(std::make_unique<EventBlock>());
      owned_block_count_ = blocks_.size();
    }
    blocks_[block]->events[idx % kBlockSize] = e;
    size_.store(idx + 1, std::memory_order_release);
  }

  /// Exporter-side copy of all published events.
  void CollectInto(std::vector<TraceEvent>* out, std::vector<uint32_t>* tids) {
    const size_t n = size_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      out->push_back(blocks_[i / kBlockSize]->events[i % kBlockSize]);
      tids->push_back(tid_);
    }
  }

  /// Drops all events. Only called from StartTracing, which documents that
  /// no spans may be open concurrently.
  void Clear() { size_.store(0, std::memory_order_relaxed); }

  size_t size() const { return size_.load(std::memory_order_acquire); }
  uint32_t tid() const { return tid_; }

 private:
  const uint32_t tid_;
  std::atomic<size_t> size_{0};
  /// Mirror of blocks_.size() maintained by the owning thread so the
  /// unlocked fast path never reads the vector concurrently with push_back.
  size_t owned_block_count_ = 0;
  std::mutex mu_;
  std::vector<std::unique_ptr<EventBlock>> blocks_;
};

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
  std::atomic<uint64_t> t0_ns{0};
};

TraceState& State() {
  static TraceState state;
  return state;
}

/// The calling thread's buffer, created and registered on first use. The
/// registry holds a shared_ptr so events survive thread exit until export.
ThreadBuffer* LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    auto b = std::make_shared<ThreadBuffer>(state.next_tid++);
    state.buffers.push_back(b);
    return b;
  }();
  return buffer.get();
}

}  // namespace

namespace internal_trace {

void AppendSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  if (!AdmitEvent()) return;
  TraceEvent e;
  e.name = name;
  e.phase = 'X';
  e.ts_ns = start_ns;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  LocalBuffer()->Append(e);
}

void AppendCounter(const char* name, uint64_t ts_ns, double value) {
  if (!AdmitEvent()) return;
  TraceEvent e;
  e.name = name;
  e.phase = 'C';
  e.ts_ns = ts_ns;
  e.value = value;
  LocalBuffer()->Append(e);
}

}  // namespace internal_trace

const char* InternName(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> interned;
  std::lock_guard<std::mutex> lock(mu);
  return interned.insert(name).first->c_str();
}

void StartTracing() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (const auto& b : state.buffers) b->Clear();
  g_admitted_events.store(0, std::memory_order_relaxed);
  g_dropped_events.store(0, std::memory_order_relaxed);
  state.t0_ns.store(internal_trace::NowNs(), std::memory_order_relaxed);
  internal_trace::g_trace_enabled.store(true, std::memory_order_seq_cst);
}

void StopTracing() {
  internal_trace::g_trace_enabled.store(false, std::memory_order_seq_cst);
}

size_t BufferedTraceEventCount() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  size_t total = 0;
  for (const auto& b : state.buffers) total += b->size();
  return total;
}

size_t DroppedTraceEventCount() {
  return g_dropped_events.load(std::memory_order_relaxed);
}

void SetTraceEventCapForTesting(size_t cap) {
  g_event_cap.store(cap == 0 ? kDefaultEventCap : cap,
                    std::memory_order_relaxed);
}

Status WriteChromeTrace(std::ostream& os) {
  const size_t dropped = g_dropped_events.load(std::memory_order_relaxed);
  if (dropped > 0) {
    LOG(WARNING) << "trace export is incomplete: " << dropped
                 << " events were dropped by the soft cap ("
                 << g_event_cap.load(std::memory_order_relaxed)
                 << " buffered events); a span is likely recorded per step "
                    "rather than per phase";
  }
  std::vector<TraceEvent> events;
  std::vector<uint32_t> tids;
  std::vector<uint32_t> seen_tids;
  uint64_t t0;
  {
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    t0 = state.t0_ns.load(std::memory_order_relaxed);
    for (const auto& b : state.buffers) {
      if (b->size() > 0) seen_tids.push_back(b->tid());
      b->CollectInto(&events, &tids);
    }
  }

  // Sort by start time (stable across equal stamps via tid) so the JSON is
  // chronological; Perfetto does not require it but humans diffing the file
  // appreciate it.
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (events[a].ts_ns != events[b].ts_ns) {
      return events[a].ts_ns < events[b].ts_ns;
    }
    return tids[a] < tids[b];
  });

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata rows keep the Perfetto track labels readable.
  for (uint32_t tid : seen_tids) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"ovs-thread-" << tid << "\"}}";
  }
  os << std::setprecision(3) << std::fixed;
  for (size_t idx : order) {
    const TraceEvent& e = events[idx];
    // Events recorded before the current session's t0 (stale buffers) were
    // cleared in StartTracing; clamp defensively anyway.
    const double ts_us =
        e.ts_ns >= t0 ? static_cast<double>(e.ts_ns - t0) / 1e3 : 0.0;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"ph\":\"" << e.phase
       << "\",\"pid\":1,\"tid\":" << tids[idx] << ",\"ts\":" << ts_us;
    if (e.phase == 'X') {
      os << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3;
    } else {
      os << ",\"args\":{\"value\":" << e.value << "}";
    }
    os << "}";
  }
  os << "]}\n";
  if (!os.good()) {
    return Status::DataLoss("trace stream write failed");
  }
  return Status::Ok();
}

namespace {

/// Mutable merge node keyed by span name; converted to PhaseNode at the end.
struct MergeNode {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  std::map<std::string, MergeNode> children;
};

std::vector<PhaseNode> FinishProfile(std::map<std::string, MergeNode>& level) {
  std::vector<PhaseNode> out;
  out.reserve(level.size());
  for (auto& [name, node] : level) {
    PhaseNode p;
    p.name = name;
    p.count = node.count;
    p.total_ns = node.total_ns;
    p.children = FinishProfile(node.children);
    uint64_t child_total = 0;
    for (const PhaseNode& c : p.children) child_total += c.total_ns;
    // Children can slightly exceed the parent when clock reads straddle the
    // scope boundaries; clamp so self time never underflows.
    p.self_ns = p.total_ns >= child_total ? p.total_ns - child_total : 0;
    out.push_back(std::move(p));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const PhaseNode& a, const PhaseNode& b) {
                     if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
                     return a.name < b.name;
                   });
  return out;
}

}  // namespace

std::vector<PhaseNode> BuildPhaseProfile() {
  std::vector<TraceEvent> events;
  std::vector<uint32_t> tids;
  {
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    for (const auto& b : state.buffers) b->CollectInto(&events, &tids);
  }

  // Group span events per recording thread; nesting is only meaningful
  // within one thread's RAII scopes.
  std::map<uint32_t, std::vector<size_t>> per_thread;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'X') per_thread[tids[i]].push_back(i);
  }

  std::map<std::string, MergeNode> roots;
  for (auto& [tid, indices] : per_thread) {
    // Parents first: earlier start, then longer duration on equal stamps
    // (an enclosing scope can share its child's coarse-clock start).
    std::stable_sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
      if (events[a].ts_ns != events[b].ts_ns) {
        return events[a].ts_ns < events[b].ts_ns;
      }
      return events[a].dur_ns > events[b].dur_ns;
    });
    // Containment stack: (span end, merge node of that span).
    std::vector<std::pair<uint64_t, MergeNode*>> stack;
    for (size_t idx : indices) {
      const TraceEvent& e = events[idx];
      const uint64_t end_ns = e.ts_ns + e.dur_ns;
      while (!stack.empty() && e.ts_ns >= stack.back().first) stack.pop_back();
      std::map<std::string, MergeNode>& level =
          stack.empty() ? roots : stack.back().second->children;
      MergeNode& node = level[e.name];
      node.count += 1;
      node.total_ns += e.dur_ns;
      stack.emplace_back(end_ns, &node);
    }
  }
  return FinishProfile(roots);
}

}  // namespace ovs::obs
