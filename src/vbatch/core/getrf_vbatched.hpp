// vbatched LU factorization with partial pivoting — the first of the
// paper's announced extensions (§V): the driver reuses the vbatched gemm
// foundation out of the box and adds LU-specific panel/pivot kernels.
//
// Restricted to square matrices (the batched-solver use case); the
// rectangular generalization only changes the trailing-extent bookkeeping.
#pragma once

#include <span>

#include "vbatch/core/batch.hpp"
#include "vbatch/core/queue.hpp"

namespace vbatch {

/// Per-matrix pivot arrays: PivotArrays(q, mn) carves mn_i ints for matrix
/// i from one arena slab; item(i) is matrix i's pivot vector.
using PivotArrays = SlabArrays<int>;

struct GetrfOptions {
  int panel_nb = 32;
};

struct FactorResult {
  double seconds = 0.0;
  double flops = 0.0;
  [[nodiscard]] double gflops() const noexcept {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
};

/// Factors every (square) matrix in the batch as P·A = L·U. Pivots land in
/// `ipiv` (global 1-based row indices), statuses in batch.info(). Factors,
/// pivots and info are blas::getrf's with max(8, panel_nb)-wide panels, bit
/// for bit.
template <typename T>
FactorResult getrf_vbatched(Queue& q, Batch<T>& batch, PivotArrays& ipiv,
                            const GetrfOptions& opts = {});

/// Solves A_i X_i = B_i from the LU factors (xGETRS): applies the row
/// interchanges to each right-hand side, then the unit-lower and upper
/// triangular sweeps, one fused kernel block per (matrix, rhs strip).
/// Matrices whose factorization reported info != 0 are skipped.
template <typename T>
FactorResult getrs_vbatched(Queue& q, Batch<T>& factors, const PivotArrays& ipiv,
                            RectBatch<T>& rhs);

}  // namespace vbatch
