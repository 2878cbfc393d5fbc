// vbatched triangular solve (paper §III-E2).
//
// Composite routine following the MAGMA design: invert the 32×32 diagonal
// blocks of the triangular factor with a vbatched trtri, then sweep the
// solution panel with vbatched gemm kernels — a rank-update against the
// already-solved columns plus a multiply by the inverted diagonal block.
// Everything launches as vbatched kernels with ETM-classic, and that launch
// sequence is the modelled cost. The launches are cost passes only; in
// Full mode the numerics pass then solves each panel with host blas::trsm
// calls, one per 512-row strip, so no inverted-block workspace exists.
//
// Two shapes are provided, matching what the Cholesky driver needs:
//   Lower:  solves X · L11ᵀ = B   (Side::Right, Trans::Trans), B is m×ib
//   Upper:  solves U11ᵀ · X = B   (Side::Left,  Trans::Trans), B is ib×m
#pragma once

#include <span>

#include "vbatch/kernels/gemm_vbatched.hpp"

namespace vbatch::kernels {

template <typename T>
struct TrsmVbatchedArgs {
  Uplo uplo = Uplo::Lower;
  T* const* a = nullptr;        ///< per-matrix pointer to the ib×ib triangular factor
  std::span<const int> lda;
  std::span<const int> ib;      ///< triangle extent per matrix (0 = inactive)
  T* const* b = nullptr;        ///< per-matrix pointer to the panel being solved
  std::span<const int> ldb;
  std::span<const int> m;       ///< panel extent orthogonal to ib (0 = inactive)
  int max_ib = 0;
  int max_m = 0;
  GemmTiling tiling{};
};

/// Runs the full composite solve. Returns the summed modelled seconds of
/// all launched kernels (trtri + gemm sweep).
template <typename T>
double launch_trsm_vbatched(sim::Device& dev, const TrsmVbatchedArgs<T>& args);

/// General-purpose vbatched triangular solve/multiply covering all
/// side/uplo/trans/diag combinations: one block per (matrix, strip of the
/// free dimension), the triangle staged through shared memory, the strip
/// swept by the recurrence in registers. Slower than the composite above
/// for the Cholesky hot shapes, but the catch-all building block the
/// public BLAS layer exposes. The launch is a cost pass; in Full mode the
/// numerics pass then runs one host blas::trsm / blas::trmm per strip.
template <typename T>
struct TriangularVbatchedArgs {
  Side side = Side::Left;
  Uplo uplo = Uplo::Lower;
  Trans trans = Trans::NoTrans;
  Diag diag = Diag::NonUnit;
  T alpha = T(1);
  T* const* a = nullptr;       ///< per-matrix triangle (ka×ka, ka = m or n by side)
  std::span<const int> lda;
  T* const* b = nullptr;       ///< per-matrix m×n operand, overwritten
  std::span<const int> ldb;
  std::span<const int> m, n;
  int max_m = 0, max_n = 0;
};

/// B_i := alpha · op(A_i)⁻¹ B_i (Left) or alpha · B_i op(A_i)⁻¹ (Right).
template <typename T>
double launch_trsm_general(sim::Device& dev, const TriangularVbatchedArgs<T>& args);

/// B_i := alpha · op(A_i) B_i (Left) or alpha · B_i op(A_i) (Right).
template <typename T>
double launch_trmm_general(sim::Device& dev, const TriangularVbatchedArgs<T>& args);

}  // namespace vbatch::kernels
