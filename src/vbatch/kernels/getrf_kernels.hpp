// vbatched LU kernels (paper §V future work: "extension of this work to the
// LU and QR factorizations ... where many of the BLAS kernels proposed here
// can be reused out of the box").
//
// The LU driver reuses launch_gemm_vbatched for the trailing update; this
// header adds the LU-specific pieces: the pivoted panel factorization, the
// row-interchange kernel, and the unit-lower triangular solve of the U12
// block row. Each launch is a cost pass reading extents only. The numerics
// are one host blas::getrf per matrix with the same panel width
// (getrf_numerics), run once per call before the launches.
#pragma once

#include <span>

#include "vbatch/kernels/common.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"

namespace vbatch::kernels {

template <typename T>
struct GetrfPanelArgs {
  std::span<const int> n;         ///< per-matrix columns (square LU: the order)
  std::span<const int> m;         ///< per-matrix rows (≥ n for rectangular)
  int offset = 0;                 ///< panel column offset (j)
  int NB = 32;                    ///< panel width
};

/// Launches the factorization of the m_i−j × min(NB, n_i−j) panel of each
/// live matrix with partial pivoting (one thread block per matrix, panel
/// staged through shared memory). A singular panel still runs: pivoting
/// reads no info. Returns kernel seconds.
template <typename T>
double launch_getrf_panel(sim::Device& dev, const GetrfPanelArgs<T>& args);

template <typename T>
struct LaswpArgs {
  std::span<const int> n, m;      ///< per-matrix columns and rows
  int k1 = 0, k2 = 0;             ///< pivot range [k1, k2) applied
  int col0 = 0, col1 = 0;         ///< column range the swaps touch
  int max_cols = 0;
};

/// Launches the row interchanges of the given column range (vbatched
/// xLASWP, one block per 64-column strip of each matrix).
template <typename T>
double launch_laswp(sim::Device& dev, const LaswpArgs<T>& args);

template <typename T>
struct LuTrsmArgs {
  std::span<const int> ib;        ///< panel width per matrix (0 = inactive)
  std::span<const int> n2;        ///< trailing columns per matrix
  int max_n2 = 0;
  GemmTiling tiling{};
};

/// Launches the solve L11 · X = B (Left, Lower, NoTrans, Unit) for the U12
/// block row, one block per tn-wide column strip of each matrix.
template <typename T>
double launch_lu_trsm(sim::Device& dev, const LuTrsmArgs<T>& args);

/// The LU's numerics for a whole batch: blas::getrf(A_i, ipiv_i, NB) per
/// matrix (n_i × n_i at lda_i, 1-based global pivots), info[i] its return
/// value, one item per matrix; a matrix counts as its ⌈n/NB⌉ panels for the
/// grain. Matrices are independent, so the bits do not depend on the worker
/// count.
template <typename T>
void getrf_numerics(T* const* a, std::span<const int> lda, std::span<const int> n, int NB,
                    int* const* ipiv, std::span<int> info);

}  // namespace vbatch::kernels
