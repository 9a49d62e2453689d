#ifndef OVS_UTIL_THREAD_POOL_H_
#define OVS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ovs {

/// The body ParallelFor applies to each chunk [lo, hi): a non-owning
/// reference to a callable, two words that never allocate. The callable must
/// outlive the call it is passed to; a lambda written in the argument list
/// does.
class ChunkFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ChunkFn> &&
             std::is_invocable_v<F&, int64_t, int64_t>)
  ChunkFn(F&& f)  // implicit, so call sites pass lambdas directly
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, int64_t lo, int64_t hi) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(lo, hi);
        }) {}

  void operator()(int64_t lo, int64_t hi) const { call_(obj_, lo, hi); }

 private:
  void* obj_;
  void (*call_)(void*, int64_t, int64_t);
};

/// Fixed-size worker pool backing ParallelFor. A pool of size N provides
/// N-way parallelism: N-1 resident workers plus the calling thread, which
/// always participates in its own parallel regions (so a pool of size 1 has
/// no workers and every ParallelFor runs inline).
///
/// Determinism contract: ParallelFor partitions [begin, end) into contiguous
/// blocks and each block is executed by exactly one thread, in ascending
/// index order within the block. Callers that write disjoint outputs per
/// index (the only usage pattern in this codebase) therefore produce
/// bitwise-identical results for every pool size, including 1.
class ThreadPool {
 public:
  /// Creates a pool providing `num_threads`-way parallelism (clamped to
  /// >= 1). `num_threads == 1` means fully serial.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Cumulative activity counters since construction. The pool maintains
  /// these itself with plain relaxed atomics so ovs_util carries no
  /// dependency on the obs layer; obs::Session publishes per-run deltas
  /// into the metrics registry.
  struct Stats {
    /// Worker-side task closures executed (helper dispatches; the calling
    /// thread's own chunk-running does not queue a task).
    uint64_t tasks_run = 0;
    /// Chunks executed across all ParallelFor calls (a serial fast-path
    /// call counts as one chunk).
    uint64_t chunks_run = 0;
    /// ParallelFor invocations on this pool (including serial fast paths).
    uint64_t parallel_fors = 0;
    /// Total nanoseconds workers spent blocked waiting for work.
    uint64_t idle_ns = 0;
  };
  Stats stats() const;

  /// Applies `fn(lo, hi)` over contiguous chunks covering [begin, end).
  /// Chunks are at most `grain` indices wide (grain < 1 is treated as 1).
  /// Runs inline (one call with the full range) when the range fits in a
  /// single chunk, when the pool is serial, or when called from inside
  /// another ParallelFor on this pool (nested calls degrade to serial
  /// instead of deadlocking); an inline call allocates nothing and takes
  /// no lock. The first exception thrown by `fn` is rethrown on the
  /// calling thread after all chunks have drained.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain, ChunkFn fn);

 private:
  void WorkerMain();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;

  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> chunks_run_{0};
  std::atomic<uint64_t> parallel_fors_{0};
  std::atomic<uint64_t> idle_ns_{0};
};

/// Process-wide pool used by the nn ops, the trainer, the simulator, and the
/// eval harness. Sized on first use from OVS_NUM_THREADS if set (>= 1), else
/// std::thread::hardware_concurrency(). After the first call this is one
/// atomic load.
ThreadPool* GlobalThreadPool();

/// Replaces the global pool with one of the given size (>= 1). Not safe to
/// call while another thread is inside a ParallelFor on the global pool.
void SetGlobalThreads(int num_threads);

/// Parallelism of the global pool (>= 1).
int GlobalThreadCount();

/// ParallelFor on the global pool.
void ParallelFor(int64_t begin, int64_t end, int64_t grain, ChunkFn fn);

}  // namespace ovs

#endif  // OVS_UTIL_THREAD_POOL_H_
