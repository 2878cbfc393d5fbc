// vbatched LU kernels (paper §V future work: "extension of this work to the
// LU and QR factorizations ... where many of the BLAS kernels proposed here
// can be reused out of the box").
//
// The LU driver reuses launch_gemm_vbatched for the trailing update; this
// header adds the LU-specific pieces: the pivoted panel factorization, the
// row-interchange kernel, and the unit-lower triangular solve of the U12
// block row. Each launch is a cost pass; each kernel's numerics entry point
// computes what its live blocks stand for, and getrf_numerics runs them per
// matrix for the whole factorization.
#pragma once

#include <span>

#include "vbatch/kernels/common.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"

namespace vbatch::kernels {

template <typename T>
struct GetrfPanelArgs {
  BatchArgs<T> batch;             ///< full matrices; n[i]×n[i] (square LU)
  std::span<const int> m;         ///< per-matrix rows (≥ n for rectangular)
  int offset = 0;                 ///< panel column offset (j)
  int NB = 32;                    ///< panel width
  int* const* ipiv = nullptr;     ///< per-matrix device pivot arrays (1-based, global rows)
  std::span<int> info;
};

/// Launches the factorization of the m_i−j × min(NB, n_i−j) panel of each
/// live matrix with partial pivoting (one thread block per matrix, panel
/// staged through shared memory). Returns kernel seconds.
template <typename T>
double launch_getrf_panel(sim::Device& dev, const GetrfPanelArgs<T>& args);

/// The panel's numerics: getf2 of every live panel, pivot indices stored
/// globally, info set at a matrix's first zero pivot.
template <typename T>
void getrf_panel_numerics(const GetrfPanelArgs<T>& args);

template <typename T>
struct LaswpArgs {
  BatchArgs<T> batch;
  std::span<const int> m;
  int k1 = 0, k2 = 0;             ///< pivot range [k1, k2) applied
  int col0 = 0, col1 = 0;         ///< column range the swaps touch
  int max_cols = 0;
  int* const* ipiv = nullptr;
};

/// Launches the row interchanges of the given column range (vbatched
/// xLASWP, one block per 64-column strip of each matrix).
template <typename T>
double launch_laswp(sim::Device& dev, const LaswpArgs<T>& args);

/// The interchanges' numerics: blas::laswp on every live strip.
template <typename T>
void laswp_numerics(const LaswpArgs<T>& args);

template <typename T>
struct LuTrsmArgs {
  T* const* l11 = nullptr;        ///< per-matrix pointer to the unit-lower ib×ib block
  std::span<const int> lda;
  std::span<const int> ib;        ///< panel width per matrix (0 = inactive)
  T* const* b = nullptr;          ///< per-matrix pointer to the ib×n2 block row
  std::span<const int> ldb;
  std::span<const int> n2;        ///< trailing columns per matrix
  int max_n2 = 0;
  GemmTiling tiling{};
};

/// Launches the solve L11 · X = B (Left, Lower, NoTrans, Unit) for the U12
/// block row, one block per tn-wide column strip of each matrix.
template <typename T>
double launch_lu_trsm(sim::Device& dev, const LuTrsmArgs<T>& args);

/// The solve's numerics: one blas::trsm per live strip.
template <typename T>
void lu_trsm_numerics(const LuTrsmArgs<T>& args);

/// The LU's numerics for a whole batch with NB-wide panels: each matrix
/// runs its steps back to back, in step order, each through the kernels'
/// own numerics on the matrix as a batch of one — panel, interchanges left
/// and right of it, the lu_trsm strips and the gemm tiles of the trailing
/// update. Blocks touch only their own matrix, so the bits are the
/// step-major driver's. One item per matrix; a matrix of order n counts as
/// its ⌈n/NB⌉ steps for the grain. Sets info[i] at the first zero pivot.
template <typename T>
void getrf_numerics(const BatchArgs<T>& batch, int NB, int* const* ipiv, std::span<int> info);

}  // namespace vbatch::kernels
