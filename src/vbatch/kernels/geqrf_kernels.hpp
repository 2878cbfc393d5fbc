// vbatched QR kernels (paper §V future work; block Householder scheme of
// Haidar et al., "A Framework for Batched and GPU-Resident Factorization
// Algorithms Applied to Block Householder Transformations").
//
// Two kernels: the panel factorization (geqr2 of an m×NB panel, one block
// per matrix) and the trailing-matrix update applying the panel's
// reflectors to TN-wide column strips (gemm-shaped grid, ETM-classic). Both
// launches are cost passes reading extents only. The numerics are one host
// blas::geqrf per matrix with the same panel width: its panel geqr2 and its
// reflector-at-a-time trailing update are the kernels' arithmetic, column
// for column, so the bits are the step-major driver's.
#pragma once

#include <span>

#include "vbatch/kernels/common.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"

namespace vbatch::kernels {

template <typename T>
struct GeqrfPanelArgs {
  std::span<const int> m, n;      ///< per-matrix dims
  int offset = 0;                 ///< panel column offset (j)
  int NB = 32;
};

/// Launches the unblocked Householder QR of each live panel. Returns seconds.
template <typename T>
double launch_geqrf_panel(sim::Device& dev, const GeqrfPanelArgs<T>& args);

template <typename T>
struct LarfbArgs {
  std::span<const int> m, n;
  int offset = 0;                 ///< panel column offset whose reflectors are applied
  int NB = 32;
  int max_m = 0, max_n = 0;
  GemmTiling tiling{};
};

/// Launches the application of the panel's block of reflectors to the
/// trailing columns: max_n is the largest trailing width n_i − j − jb_i.
template <typename T>
double launch_larfb_update(sim::Device& dev, const LarfbArgs<T>& args);

/// The QR's numerics for a whole batch: blas::geqrf(A_i, tau_i, NB) per
/// matrix (m_i × n_i at lda_i, min(m_i, n_i) reflectors), one item per
/// matrix; a matrix counts as its ⌈min(m, n)/NB⌉ panels for the grain.
template <typename T>
void geqrf_numerics(T* const* a, std::span<const int> lda, std::span<const int> m,
                    std::span<const int> n, int NB, T* const* tau);

}  // namespace vbatch::kernels
