#ifndef OVS_UTIL_ARENA_H_
#define OVS_UTIL_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace ovs {

/// Monotonic bump allocator for per-iteration scratch. Allocations are O(1)
/// pointer bumps into coarse blocks; Reset() recycles every block in one call
/// without returning memory to the system. The intended lifecycle is
/// allocate / use / Reset once per hot-loop iteration, so steady-state
/// iterations perform zero heap traffic once the high-water mark has been
/// reached.
///
/// Reset() never runs destructors, so only trivially destructible types may
/// be placed here (NewArray enforces this at compile time).
///
/// Not thread-safe: one Arena belongs to one owning loop. Parallel workers
/// may freely *use* memory handed out by the owner (disjoint slices), they
/// just must not call Allocate/Reset concurrently.
class Arena {
 public:
  /// Blocks are at least `min_block_bytes` large; oversized requests get a
  /// dedicated block.
  explicit Arena(size_t min_block_bytes = 1 << 16);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two no
  /// stricter than alignof(std::max_align_t)). Zero-byte requests return a
  /// valid, unique pointer.
  void* Allocate(size_t bytes, size_t alignment);

  /// Allocates and value-initializes `count` objects of trivially
  /// destructible type T. The objects live until the next Reset(); no
  /// destructor ever runs.
  template <typename T>
  T* NewArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::Reset never runs destructors");
    T* ptr = static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
    for (size_t i = 0; i < count; ++i) {
      // Placement new into arena storage; ownership stays with the arena.
      ::new (static_cast<void*>(ptr + i)) T();  // ovs-lint: allow(naked-new)
    }
    return ptr;
  }

  /// Rewinds to empty, keeping every block for reuse.
  void Reset();

  /// Bytes handed out since the last Reset (excluding alignment padding).
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total block capacity owned by the arena (the reuse pool).
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Number of blocks owned. Stable across Resets once warmed up.
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    size_t size = 0;
  };

  size_t min_block_bytes_;
  std::vector<Block> blocks_;
  size_t current_ = 0;  ///< block the next bump lands in
  size_t offset_ = 0;   ///< bump offset within blocks_[current_]
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace ovs

#endif  // OVS_UTIL_ARENA_H_
