// "Classic" separated building-block kernels — the pre-fusion batched BLAS
// approach of Haidar et al. [13] that Fig. 4 uses as the baseline for the
// kernel-fusion comparison.
//
// Unlike the fused kernel (§III-D), every sub-operation of a factorization
// step is its own kernel launch working straight against global memory: the
// panel is re-read and re-written by each kernel, nothing is cached across
// launches, potf2's column recurrence round-trips global memory, and the
// trailing update goes through the generic large-tile gemm/syrk shapes.
// That is precisely the overhead profile kernel fusion removes.
//
// Every launch is a cost pass reading extents and each matrix's final info;
// the math is one host blas::potrf per matrix (cpu::potrf_each), once per
// call before the launches.
#pragma once

#include <span>

#include "vbatch/kernels/common.hpp"

namespace vbatch::kernels {

template <typename T>
struct ClassicPotf2Args {
  std::span<const int> n;     ///< per-matrix orders
  int offset = 0;             ///< diagonal offset of the nb×nb tile
  int nb = 8;
  std::span<const int> info;  ///< each matrix's final status (read only)
};

/// Launches the unblocked potf2 of the nb×nb diagonal tile, one block per
/// matrix, operating in global memory (per-column round trips). Block i
/// exits when j ≥ n_i or 0 < info_i ≤ j (j = offset): the tile that fails a
/// matrix still runs.
template <typename T>
double launch_classic_potf2(sim::Device& dev, const ClassicPotf2Args<T>& args);

template <typename T>
struct ClassicTrsmArgs {
  std::span<const int> n;     ///< per-matrix orders
  int offset = 0;             ///< panel offset j; solves the sub-diagonal panel of width nb
  int nb = 8;
  std::span<const int> info;  ///< each matrix's final status (read only)
};

/// Launches the triangular solve of the (n−j−ib)×ib sub-panel against the
/// freshly factored tile, one block per matrix, global-memory resident.
/// Block i exits with no sub-panel or when 0 < info_i ≤ j + ib_i.
template <typename T>
double launch_classic_trsm(sim::Device& dev, const ClassicTrsmArgs<T>& args);

}  // namespace vbatch::kernels
