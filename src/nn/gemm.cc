#include "nn/gemm.h"

#include <algorithm>
#include <vector>

#include "nn/vec.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ovs::nn::gemm {

namespace {

int g_vector_width = 0;  // 0 = kVecWidth

/// One register block: MR output rows (compile-time, so the r loops fully
/// unroll) times all `cols` columns, accumulating the reduction slice
/// [q0, q1) — one kKTile-long tile. Column panels advance two vectors at a
/// time for ILP (2*MR independent accumulator chains), then one vector,
/// then scalar; the per-element arithmetic — terms in ascending q, one
/// mul+add rounding pair per term, one writeback per tile — is identical in
/// all three forms and at every width W, which is the vec-vs-scalar parity
/// contract.
///
/// A is accessed as A(r, q) = a[r*ars + q*acs], so the same microkernel
/// serves NN (ars=k, acs=1) and TN (ars=1, acs=k) without packing.
template <int W, int MR>
void MicroTile(int64_t cols, int64_t q0, int64_t q1, const float* a,
               int64_t ars, int64_t acs, const float* b, float* c) {
  using V = Vec<float, W>;
  int64_t j = 0;
  for (; j + 2 * W <= cols; j += 2 * W) {
    V acc0[MR], acc1[MR];
    for (int r = 0; r < MR; ++r) {
      acc0[r] = V::Zero();
      acc1[r] = V::Zero();
    }
    for (int64_t q = q0; q < q1; ++q) {
      const V b0 = V::Load(b + q * cols + j);
      const V b1 = V::Load(b + q * cols + j + W);
      for (int r = 0; r < MR; ++r) {
        const V av = V::Broadcast(a[r * ars + q * acs]);
        acc0[r] = acc0[r].MulAdd(av, b0);
        acc1[r] = acc1[r].MulAdd(av, b1);
      }
    }
    for (int r = 0; r < MR; ++r) {
      float* crow = c + r * cols + j;
      (V::Load(crow) + acc0[r]).Store(crow);
      (V::Load(crow + W) + acc1[r]).Store(crow + W);
    }
  }
  for (; j + W <= cols; j += W) {
    V acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = V::Zero();
    for (int64_t q = q0; q < q1; ++q) {
      const V bv = V::Load(b + q * cols + j);
      for (int r = 0; r < MR; ++r) {
        acc[r] = acc[r].MulAdd(V::Broadcast(a[r * ars + q * acs]), bv);
      }
    }
    for (int r = 0; r < MR; ++r) {
      float* crow = c + r * cols + j;
      (V::Load(crow) + acc[r]).Store(crow);
    }
  }
  for (; j < cols; ++j) {
    float acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = 0.0f;
    for (int64_t q = q0; q < q1; ++q) {
      const float bv = b[q * cols + j];
      for (int r = 0; r < MR; ++r) acc[r] += a[r * ars + q * acs] * bv;
    }
    for (int r = 0; r < MR; ++r) c[r * cols + j] += acc[r];
  }
}

/// c[rows, cols] += A * b where A(r, q) = a[r*ars + q*acs] and b is a
/// row-major [red, cols] matrix. Parallel over kRowBlock-row blocks (each
/// output element belongs to exactly one block); within a block the
/// reduction runs in kKTile-long tiles.
template <int W>
void GemmStridedA(int64_t rows, int64_t cols, int64_t red, const float* a,
                  int64_t ars, int64_t acs, const float* b, float* c) {
  if (rows == 0 || cols == 0 || red == 0) return;
  const int64_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  ParallelFor(0, blocks, RowBlockGrain(red, cols), [&](int64_t b0, int64_t b1) {
    for (int64_t blk = b0; blk < b1; ++blk) {
      const int64_t r0 = blk * kRowBlock;
      const int64_t mr = std::min<int64_t>(kRowBlock, rows - r0);
      const float* ablk = a + r0 * ars;
      float* cblk = c + r0 * cols;
      for (int64_t q0 = 0; q0 < red; q0 += kKTile) {
        const int64_t q1 = std::min<int64_t>(q0 + kKTile, red);
        switch (mr) {
          case 4:
            MicroTile<W, 4>(cols, q0, q1, ablk, ars, acs, b, cblk);
            break;
          case 3:
            MicroTile<W, 3>(cols, q0, q1, ablk, ars, acs, b, cblk);
            break;
          case 2:
            MicroTile<W, 2>(cols, q0, q1, ablk, ars, acs, b, cblk);
            break;
          default:
            MicroTile<W, 1>(cols, q0, q1, ablk, ars, acs, b, cblk);
            break;
        }
      }
    }
  });
}

template <int W>
void BlockedNN(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
               float* c) {
  GemmStridedA<W>(n, m, k, a, /*ars=*/k, /*acs=*/1, b, c);
}

template <int W>
void BlockedTN(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
               float* c) {
  // Output rows are a's columns: A(r=p, q=i) = a[i*k + p].
  GemmStridedA<W>(k, m, n, a, /*ars=*/1, /*acs=*/k, b, c);
}

template <int W>
void BlockedNT(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
               float* c) {
  // c[n,k] += a[n,m] * b[k,m]^T. Transposing b once costs O(k*m) against
  // the O(n*k*m) product and turns every dot product into the contiguous-b
  // NN microkernel — no horizontal reductions, so the per-element order
  // stays width-independent.
  std::vector<float> bt(static_cast<size_t>(k) * static_cast<size_t>(m));
  for (int64_t j = 0; j < k; ++j) {
    for (int64_t p = 0; p < m; ++p) bt[p * k + j] = b[j * m + p];
  }
  GemmStridedA<W>(n, k, m, a, /*ars=*/m, /*acs=*/1, bt.data(), c);
}

}  // namespace

int64_t RowBlockGrain(int64_t red, int64_t cols) {
  const int64_t work_per_block = kRowBlock * red * cols;
  return std::max<int64_t>(1,
                           kMinWorkPerChunk / std::max<int64_t>(1, work_per_block));
}

void SetGemmVectorWidthForTesting(int width) {
  CHECK(width == 0 || width == 1 || width == 4 || width == 8)
      << "unsupported GEMM vector width " << width;
  g_vector_width = width;
}

int GemmVectorWidth() {
  return g_vector_width > 0 ? g_vector_width : kVecWidth;
}

void GemmNN(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
            float* c) {
  switch (GemmVectorWidth()) {
    case 4:
      BlockedNN<4>(n, k, m, a, b, c);
      break;
    case 8:
      BlockedNN<8>(n, k, m, a, b, c);
      break;
    default:
      BlockedNN<1>(n, k, m, a, b, c);
      break;
  }
}

void GemmNT(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
            float* c) {
  switch (GemmVectorWidth()) {
    case 4:
      BlockedNT<4>(n, k, m, a, b, c);
      break;
    case 8:
      BlockedNT<8>(n, k, m, a, b, c);
      break;
    default:
      BlockedNT<1>(n, k, m, a, b, c);
      break;
  }
}

void GemmTN(int64_t n, int64_t k, int64_t m, const float* a, const float* b,
            float* c) {
  switch (GemmVectorWidth()) {
    case 4:
      BlockedTN<4>(n, k, m, a, b, c);
      break;
    case 8:
      BlockedTN<8>(n, k, m, a, b, c);
      break;
    default:
      BlockedTN<1>(n, k, m, a, b, c);
      break;
  }
}

}  // namespace ovs::nn::gemm
