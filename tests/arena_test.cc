// Unit tests for the bump allocator for per-step scratch: alignment, block
// growth, Reset reuse (the zero-steady-state-allocation property), and
// value-initialization of NewArray.

#include <gtest/gtest.h>

#include <cstdint>

#include "util/arena.h"

namespace ovs {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(1 << 12);
  void* a = arena.Allocate(24, 8);
  void* b = arena.Allocate(3, 1);
  void* c = arena.Allocate(16, 16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 16, 0u);
  // Disjoint: writing through one never touches another.
  auto* da = static_cast<unsigned char*>(a);
  auto* db = static_cast<unsigned char*>(b);
  for (int i = 0; i < 24; ++i) da[i] = 0xAA;
  for (int i = 0; i < 3; ++i) db[i] = 0xBB;
  for (int i = 0; i < 24; ++i) EXPECT_EQ(da[i], 0xAA);
}

TEST(ArenaTest, ZeroByteRequestsGetUniquePointers) {
  Arena arena;
  void* a = arena.Allocate(0, 1);
  void* b = arena.Allocate(0, 1);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
}

TEST(ArenaTest, NewArrayValueInitializes) {
  Arena arena;
  // Dirty the storage first so zeroing is actually observable.
  auto* dirty = arena.NewArray<unsigned char>(256);
  for (int i = 0; i < 256; ++i) dirty[i] = 0xFF;
  arena.Reset();
  const int* ints = arena.NewArray<int>(32);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ints[i], 0) << i;
  struct Pod {
    int x;
    double y;
  };
  const Pod* pods = arena.NewArray<Pod>(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pods[i].x, 0);
    EXPECT_EQ(pods[i].y, 0.0);
  }
}

TEST(ArenaTest, GrowsBeyondOneBlockAndTracksReserve) {
  Arena arena(/*min_block_bytes=*/256);
  EXPECT_EQ(arena.num_blocks(), 0u);
  for (int i = 0; i < 16; ++i) arena.Allocate(100, 8);
  EXPECT_GT(arena.num_blocks(), 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
  // Oversized request gets its own block instead of failing.
  void* big = arena.Allocate(4096, 8);
  EXPECT_NE(big, nullptr);
}

TEST(ArenaTest, ResetReusesBlocksWithoutNewReservations) {
  Arena arena(1 << 10);
  auto churn = [&arena] {
    arena.Reset();
    for (int i = 0; i < 20; ++i) arena.Allocate(128, 8);
  };
  churn();
  const size_t blocks_after_warmup = arena.num_blocks();
  const size_t reserved_after_warmup = arena.bytes_reserved();
  // Identical per-step churn must never grow the pool again — the "zero
  // heap traffic at steady state" property that makes an arena worth using
  // for scratch rebuilt on every step or epoch.
  for (int step = 0; step < 50; ++step) churn();
  EXPECT_EQ(arena.num_blocks(), blocks_after_warmup);
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
  EXPECT_GT(arena.bytes_allocated(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
}

TEST(ArenaTest, PointersStableWithinStepAcrossResetCycles) {
  Arena arena(1 << 10);
  arena.Reset();
  void* first = arena.Allocate(64, 8);
  arena.Reset();
  // Same allocation sequence after Reset lands on the same storage.
  EXPECT_EQ(arena.Allocate(64, 8), first);
}

}  // namespace
}  // namespace ovs
