#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "util/logging.h"
#include "util/parse.h"

namespace ovs {

namespace {

/// Set while a thread is executing chunks of some ParallelFor. Nested
/// ParallelFor calls observe it and run inline, so a parallel op invoked
/// from inside a parallel region (e.g. a MatMul inside a concurrently
/// fitted recovery restart) cannot deadlock waiting for pool slots that
/// its own ancestors occupy.
thread_local bool tls_in_parallel_region = false;

/// Shared state of one ParallelFor call. Heap-allocated and reference
/// counted because a worker may still be returning from RunChunks after the
/// caller has observed completion and moved on.
struct ParallelRegion {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  const ChunkFn* fn = nullptr;

  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> done_chunks{0};
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;

  void RunChunks() {
    const bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    while (true) {
      const int64_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      const int64_t lo = begin + chunk * grain;
      const int64_t hi = std::min(end, lo + grain);
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*fn)(lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
    tls_in_parallel_region = was_in_region;
  }
};

int DefaultThreadCount() {
  if (const char* env = std::getenv("OVS_NUM_THREADS")) {
    // Strict parse: "4abc" or "" must not silently become a thread count.
    const StatusOr<int> n = ParseInt(env, "OVS_NUM_THREADS");
    if (n.ok() && *n >= 1) return *n;
    LOG(WARNING) << "ignoring invalid OVS_NUM_THREADS='" << env
                 << "' (want an integer >= 1); using hardware concurrency";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// The global pool. `g_pool` is what GlobalThreadPool() reads without a
/// lock; `g_pool_owner` keeps it alive, and g_pool_mu serializes creating
/// and replacing it.
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool_owner;  // guarded by g_pool_mu
std::atomic<ThreadPool*> g_pool{nullptr};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::max(1, num_threads) - 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerMain() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto wait_start = std::chrono::steady_clock::now();
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      idle_ns_.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - wait_start)
                  .count()),
          std::memory_order_relaxed);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.chunks_run = chunks_run_.load(std::memory_order_relaxed);
  s.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  s.idle_ns = idle_ns_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             ChunkFn fn) {
  if (end <= begin) return;
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  grain = std::max<int64_t>(1, grain);
  const int64_t n = end - begin;
  if (workers_.empty() || n <= grain || tls_in_parallel_region) {
    // Serial fast path. The region flag is deliberately left alone: a
    // single-chunk outer loop (e.g. a 1-restart recovery) should not
    // serialize the parallel GEMMs nested inside it, while a call made from
    // within a real parallel region keeps degrading to serial.
    fn(begin, end);
    chunks_run_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  auto region = std::make_shared<ParallelRegion>();
  region->begin = begin;
  region->end = end;
  region->grain = grain;
  region->num_chunks = (n + grain - 1) / grain;
  region->fn = &fn;

  const int64_t helpers = std::min<int64_t>(
      static_cast<int64_t>(workers_.size()), region->num_chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([region] { region->RunChunks(); });
    }
  }
  cv_.notify_all();

  // The caller works too; on return there may still be unfinished chunks
  // claimed by workers, so wait for the completion count.
  region->RunChunks();
  {
    std::unique_lock<std::mutex> lock(region->mu);
    region->cv.wait(lock, [&region] {
      return region->done_chunks.load(std::memory_order_acquire) ==
             region->num_chunks;
    });
  }
  chunks_run_.fetch_add(static_cast<uint64_t>(region->num_chunks),
                        std::memory_order_relaxed);
  if (region->failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(region->error);
  }
}

ThreadPool* GlobalThreadPool() {
  if (ThreadPool* pool = g_pool.load(std::memory_order_acquire)) return pool;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool_owner == nullptr) {
    g_pool_owner = std::make_unique<ThreadPool>(DefaultThreadCount());
    g_pool.store(g_pool_owner.get(), std::memory_order_release);
  }
  return g_pool_owner.get();
}

void SetGlobalThreads(int num_threads) {
  CHECK_GE(num_threads, 1);
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool_owner != nullptr && g_pool_owner->num_threads() == num_threads) {
    return;
  }
  auto pool = std::make_unique<ThreadPool>(num_threads);
  g_pool.store(pool.get(), std::memory_order_release);
  g_pool_owner = std::move(pool);  // joins and frees the old pool
}

int GlobalThreadCount() { return GlobalThreadPool()->num_threads(); }

void ParallelFor(int64_t begin, int64_t end, int64_t grain, ChunkFn fn) {
  GlobalThreadPool()->ParallelFor(begin, end, grain, fn);
}

}  // namespace ovs
