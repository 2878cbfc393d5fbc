// The classic separated building-block batched Cholesky — the pre-fusion
// approach of Haidar et al. [13] that Fig. 4 compares kernel fusion
// against. Every factorization step launches the sub-operations as separate
// kernels (potf2 tile, trsm panel, generic syrk trailing update), each
// resident in global memory, with auxiliary pointer-displacement kernels in
// between. No data is reused across launches.
#pragma once

#include "vbatch/core/potrf_vbatched.hpp"

namespace vbatch {

struct ClassicOptions {
  /// Blocking size; 0 = autotuned by the maximum size (the pre-fusion
  /// batched BLAS used fine blocking for small batches and widened it for
  /// larger matrices where the gemm-shaped trailing update dominates).
  int nb = 0;
};

/// Factors a batch (fixed or variable sizes) with the classic separated
/// building-block approach. The launches are the modelled cost; factors and
/// info are blas::potrf's, bit for bit.
template <typename T>
PotrfResult potrf_batched_classic(Queue& q, Uplo uplo, Batch<T>& batch,
                                  const ClassicOptions& opts = {});

}  // namespace vbatch
