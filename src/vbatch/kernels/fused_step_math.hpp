// The numerical payload and cost report of one fused left-looking Cholesky
// step (§III-D). launch_fused_step reports fused_step_cost per live block
// and computes nothing; fused_potrf_numerics runs the three pieces
// (update, diagonal tile, solve) around a lane-grouped blas::potf2_batch
// of many matrices' diagonal tiles, step by step over a whole batch. The
// separated path's panel kernel (launch_potf2_panel) is the same launch on
// the panels' diagonal blocks, as the paper builds it (§III-E1).
#pragma once

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/sim/kernel_launch.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::kernels {

/// Fills the cost report for a live fused-step block: an n×n matrix at
/// factorization step `step` of blocking `nb`, with `block_threads` live
/// threads and the chosen ETM.
inline void fused_step_cost(sim::BlockCost& cost, index_t n, int step, int nb,
                            int block_threads, EtmMode etm, std::size_t elem_size) {
  const index_t j = static_cast<index_t>(step) * nb;
  const index_t m = n - j;
  const index_t ib = std::min<index_t>(nb, m);

  cost.live_threads = block_threads;
  cost.active_threads = static_cast<int>(std::min<index_t>(m, block_threads));
  if (etm == EtmMode::Aggressive) cost.live_threads = cost.active_threads;

  // Customized rank-k update (B ⊂ A read once, Fig. 2), potf2, trsm.
  cost.flops = flops::gemm(m, ib, j) + flops::potrf(ib) + flops::trsm(m - ib, ib, false);
  // Read the m×j left factor once, read + write the m×ib panel.
  cost.bytes = static_cast<double>(m * j + 2 * m * ib) * elem_size;
  // Double-buffered update stages plus the fused potf2/trsm column steps.
  cost.sync_steps = static_cast<int>(j / nb + ib + 2);
  cost.serial_ops = static_cast<double>(2 * ib);  // sqrt + reciprocal chain
}

/// The fused step's diagonal tile: the ib×ib block at (j, j) of the n×n
/// matrix `A` at step `step` of blocking `nb`, ib = min(nb, n − j).
template <typename T>
MatrixView<T> fused_step_diag(MatrixView<T> A, int step, int nb) {
  const index_t j = static_cast<index_t>(step) * nb;
  const index_t ib = std::min<index_t>(nb, A.rows() - j);
  return A.block(j, j, ib, ib);
}

/// Step sub-operation 1: the customized rank-k update of the step's panel
/// (m×ib column panel for Lower, ib×m row panel for Upper) by the factored
/// columns (rows) before it. A no-op at step 0.
template <typename T>
void fused_step_update(Uplo uplo, MatrixView<T> A, int step, int nb) {
  const index_t j = static_cast<index_t>(step) * nb;
  const index_t m = A.rows() - j;
  const index_t ib = std::min<index_t>(nb, m);
  if (j == 0) return;
  if (uplo == Uplo::Lower) {
    blas::gemm<T>(Trans::NoTrans, Trans::Trans, T(-1), A.block(j, 0, m, j), A.block(j, 0, ib, j),
                  T(1), A.block(j, j, m, ib));
  } else {
    blas::gemm<T>(Trans::Trans, Trans::NoTrans, T(-1), A.block(0, j, j, ib), A.block(0, j, j, m),
                  T(1), A.block(j, j, ib, m));
  }
}

/// Step sub-operation 3, run once the diagonal tile factored cleanly: the
/// trsm of the rest of the panel against the tile's factor.
template <typename T>
void fused_step_solve(Uplo uplo, MatrixView<T> A, int step, int nb) {
  const index_t j = static_cast<index_t>(step) * nb;
  const index_t m = A.rows() - j;
  const index_t ib = std::min<index_t>(nb, m);
  if (m == ib) return;
  if (uplo == Uplo::Lower) {
    blas::trsm<T>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, T(1),
                  A.block(j, j, ib, ib), A.block(j + ib, j, m - ib, ib));
  } else {
    blas::trsm<T>(Side::Left, Uplo::Upper, Trans::Trans, Diag::NonUnit, T(1),
                  A.block(j, j, ib, ib), A.block(j, j + ib, ib, m - ib));
  }
}

/// Whole-matrix info from the diagonal tile's local potf2 info: the step
/// offset applied, 0 stays 0.
inline int fused_step_info(int step, int nb, int local_info) {
  return local_info == 0 ? 0 : step * nb + local_info;
}

/// Executes the real arithmetic of one fused step on the matrix view `A`
/// (order n, leading dimension A.ld()): update, potf2 of the diagonal
/// tile, solve. Returns LAPACK-style local info relative to the whole
/// matrix (step offset already applied), or 0. No library code calls it:
/// it is the per-matrix oracle the lane-grouped numerics pass is tested
/// against (memcmp-equal, since blas::potf2_batch ≡ blas::potf2).
template <typename T>
int fused_step_math(Uplo uplo, MatrixView<T> A, int step, int nb) {
  fused_step_update(uplo, A, step, nb);
  const int local_info = blas::potf2<T>(uplo, fused_step_diag(A, step, nb));
  if (local_info == 0) fused_step_solve(uplo, A, step, nb);
  return fused_step_info(step, nb, local_info);
}

}  // namespace vbatch::kernels
