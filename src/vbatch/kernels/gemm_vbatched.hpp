// vbatched GEMM kernel (paper §III-E2; Abdelfattah et al., "Performance,
// Design, and Autotuning of Batched GEMM for GPUs").
//
// Grid: batch × tiles(max_m) × tiles(max_n), flattened 1-D. Each block owns
// one TM×TN tile of one matrix's C; blocks whose tile lies outside their own
// matrix exit through ETM-classic (aggressive is not applicable — all
// threads of a live block cooperate on the shared-memory tile pipeline and
// must stay in sync, §III-E2).
//
// Every launch is a cost pass: the grid is where the modelled time comes
// from. The arithmetic is a separate numerics pass the front runs in Full
// mode: gemm_vbatched_numerics computes the grid's tiles, and
// syrk_vbatched_numerics works in host-shaped pieces, one item per
// kSyrkStripCols-wide column strip of each matrix (a pack-once blas::syrk
// of the strip's diagonal block plus one blas::gemm of the rectangle beside
// it).
#pragma once

#include <span>

#include "vbatch/kernels/common.hpp"

namespace vbatch::kernels {

/// Tile geometry of the gemm/syrk kernels; TM/TN/TK mirror the MAGMA
/// autotuned shapes for Kepler.
struct GemmTiling {
  int tm = 64;
  int tn = 64;
  int tk = 16;
  int threads = 256;
  [[nodiscard]] std::size_t shared_mem(std::size_t elem_size) const noexcept {
    return (static_cast<std::size_t>(tm) * tk + static_cast<std::size_t>(tk) * tn) * elem_size;
  }
};

template <typename T>
struct GemmVbatchedArgs {
  Trans trans_a = Trans::NoTrans;
  Trans trans_b = Trans::NoTrans;
  std::span<const int> m, n, k;  ///< per-matrix dims of C (m×n) and the inner dim
  int max_m = 0, max_n = 0;      ///< grid shaping (maximums across the batch)
  T alpha = T(1), beta = T(0);
  T* const* a = nullptr;
  std::span<const int> lda;
  T* const* b = nullptr;
  std::span<const int> ldb;
  T* const* c = nullptr;
  std::span<const int> ldc;
  GemmTiling tiling{};
};

/// Launches the vbatched gemm's cost pass. Returns modelled kernel seconds.
template <typename T>
double launch_gemm_vbatched(sim::Device& dev, const GemmVbatchedArgs<T>& args);

/// The gemm's numerics: one blas::gemm per live tile of the grid, the grid
/// as the grain.
template <typename T>
void gemm_vbatched_numerics(const GemmVbatchedArgs<T>& args);

/// Column-strip width of the vbatched syrk's numerics pass. Lower strips
/// own the columns [c0, c0 + w) from the diagonal down, Upper strips from
/// row 0 to the diagonal. Fixed, so results do not depend on the worker
/// count; narrow enough that one tall matrix still spreads over the pool.
inline constexpr int kSyrkStripCols = 96;

/// vbatched SYRK: C(n×n, uplo triangle) = alpha·A·Aᵀ + beta·C, modelled as
/// the gemm grid plus the upper/lower decision layer of §III-E3 — blocks on
/// the wrong side of the diagonal terminate, diagonal blocks do triangular
/// work.
template <typename T>
struct SyrkVbatchedArgs {
  Uplo uplo = Uplo::Lower;
  Trans trans = Trans::NoTrans;  ///< NoTrans: C -= A(n×k)·Aᵀ
  std::span<const int> n, k;
  int max_n = 0;
  T alpha = T(1), beta = T(0);
  T* const* a = nullptr;
  std::span<const int> lda;
  T* const* c = nullptr;
  std::span<const int> ldc;
  GemmTiling tiling{};
};

/// Launches the syrk grid's cost pass. Returns modelled kernel seconds.
template <typename T>
double launch_syrk_vbatched(sim::Device& dev, const SyrkVbatchedArgs<T>& args);

/// The syrk's numerics: one item per kSyrkStripCols-wide column strip of
/// each matrix, the grid's block count as the grain.
template <typename T>
void syrk_vbatched_numerics(const SyrkVbatchedArgs<T>& args);

/// Streamed alternative (§III-E3): one syrk kernel per live matrix, launched
/// on `num_streams` concurrent streams (the CUBLAS-per-matrix pattern).
/// Reads n, k and the tiling.
template <typename T>
double launch_syrk_streamed(sim::Device& dev, const SyrkVbatchedArgs<T>& args, int num_streams);

}  // namespace vbatch::kernels
