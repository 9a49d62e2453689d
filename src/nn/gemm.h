#ifndef OVS_NN_GEMM_H_
#define OVS_NN_GEMM_H_

#include <cstdint>

/// Register-blocked, cache-tiled GEMM kernels behind the Vec<float, N>
/// abstraction (src/nn/vec.h). These are the raw accumulate kernels the
/// autodiff ops in ops.cc are built on; all take row-major float buffers and
/// ADD into c (callers zero-initialize for a plain product).
///
/// Determinism contracts (see DESIGN.md "Vectorized kernels"):
///  * 1-vs-N-thread: work is split over contiguous blocks of kRowBlock
///    output rows; each output element is produced by exactly one thread
///    with a fixed reduction order, so results are bitwise-identical at any
///    thread count.
///  * vec-vs-scalar: every output element accumulates its terms in
///    ascending reduction order within each kKTile-long reduction tile,
///    with one writeback per tile, at EVERY vector width — the width only
///    changes how many independent elements advance together. With the
///    two-rounding MulAdd of vec.h, widths 1/4/8 are bitwise-identical.
///
/// NaN semantics: there is NO zero-skip fast path — 0 * NaN = NaN
/// propagates, so a poisoned operand reaches the loss and trips the
/// TrainGuard instead of being silently swallowed.

namespace ovs::nn::gemm {

/// Kernel geometry, shared by every width and both loop variants. These are
/// part of the bitwise contract: changing them changes reduction tiling and
/// therefore bits.
inline constexpr int kRowBlock = 4;  ///< MR: output rows per register block
inline constexpr int kKTile = 256;   ///< KC: reduction-tile length

/// Minimum multiply-adds a ParallelFor chunk should carry.
inline constexpr int64_t kMinWorkPerChunk = int64_t{1} << 15;

/// Grain (in units of kRowBlock-row blocks) so each chunk carries at least
/// kMinWorkPerChunk multiply-adds of tile work. Tiny products fit in one
/// chunk and run inline on the calling thread.
int64_t RowBlockGrain(int64_t red, int64_t cols);

/// Vector width used by the blocked kernels: kVecWidth by default; tests
/// override with 1/4/8 to prove the parity contract (0 restores default).
void SetGemmVectorWidthForTesting(int width);
int GemmVectorWidth();

/// c[n,m] += a[n,k] * b[k,m].
void GemmNN(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
            float* c);

/// c[n,k] += a[n,m] * b[k,m]^T (b given row-major, used transposed).
void GemmNT(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
            float* c);

/// c[k,m] += a[n,k]^T * b[n,m] (a given row-major, used transposed).
void GemmTN(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
            float* c);

}  // namespace ovs::nn::gemm

#endif  // OVS_NN_GEMM_H_
