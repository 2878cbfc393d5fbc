// The fused Cholesky step kernel (paper §III-D, Approach 1).
//
// One kernel launch performs one blocked factorization step for every
// matrix it covers. Inside a thread block the three sub-operations of
// Algorithm 1 are fused:
//   1. customized rank-k panel update  C(m×nb) -= A(m×j) · B(nb×j)ᵀ, where
//      B is a sub-block of A (so A is loaded once — the customization the
//      paper describes around Fig. 2), double-buffered against global
//      memory;
//   2. potf2 of the nb×nb diagonal tile;
//   3. trsm of the sub-diagonal panel against that tile.
// The m×nb panel lives in shared memory for the whole step.
//
// Variable sizes are handled by the ETMs (§III-D1): a block whose matrix is
// already fully factorized, or has failed, exits immediately (classic); with
// EtmMode::Aggressive, threads beyond the matrix's remaining panel height
// also exit, reducing the idle-thread issue drag.
//
// A launch is a cost pass only. The math runs once per call, before the
// launches, through fused_potrf_numerics (or the separated path's per-matrix
// potrf), so a launch reads each matrix's final info and a block exits once
// its step has passed the failing column.
#pragma once

#include <span>

#include "vbatch/kernels/common.hpp"

namespace vbatch::kernels {

template <typename T>
struct FusedStepArgs {
  BatchArgs<T> batch;             ///< all matrices in the vbatched problem
  std::span<const int> active;    ///< batch indices this launch covers; empty = all
  Uplo uplo = Uplo::Lower;
  int step = 0;                   ///< panel index; panel offset = step * nb
  int nb = 16;                    ///< fused blocking size (compile-time template in MAGMA)
  int block_threads = 0;          ///< threads per block (≥ max live panel height)
  EtmMode etm = EtmMode::Aggressive;
  /// Each matrix's final status (0, or the 1-based failing column; all 0 in
  /// TimingOnly, where nothing is factored).
  std::span<const int> info;
  int column0 = 0;  ///< global column of local column 0 (the separated panel's offset)
  const char* name = "fused_potrf_step";  ///< timeline name of the launch
};

/// Launches one fused factorization step as a cost pass; it computes
/// nothing. Block i exits when j ≥ n_i or 0 < info_i ≤ column0 + j (j =
/// step · nb): the step that fails a matrix, at a column in (j, j + nb],
/// still runs, and every later one sees the failure. Returns modelled
/// kernel seconds.
template <typename T>
double launch_fused_step(sim::Device& dev, const FusedStepArgs<T>& args);

/// The fused path's numerics for a whole batch: every factorization step
/// of every matrix with nb-wide blocking, step-major. At each step the
/// matrices still live (j < n_i, info 0) are bucketed by diagonal-tile
/// order and their tiles factor in lane groups of blas::potf2_batch; a
/// group's update and solve are its matrices' own. The bits depend only on
/// each matrix's data, its order and nb. Both potrf fronts run it once per
/// call (an order-0 entry is never touched).
template <typename T>
void fused_potrf_numerics(Uplo uplo, const BatchArgs<T>& batch, int nb, std::span<int> info);

/// Shared-memory footprint of a fused step block: the panel plus a small
/// double-buffer staging area for the rank-k update.
[[nodiscard]] std::size_t fused_shared_mem(int block_threads, int nb, std::size_t elem_size);

/// Largest matrix the fused approach can handle for a given nb / precision
/// (the shared-memory feasibility bound behind the crossover of §IV-E).
[[nodiscard]] int fused_max_size(const sim::DeviceSpec& spec, int nb, std::size_t elem_size);

/// Default fused blocking size for a batch whose largest matrix is max_n.
[[nodiscard]] int choose_fused_nb(const sim::DeviceSpec& spec, int max_n, std::size_t elem_size);

}  // namespace vbatch::kernels
