// vbatched triangular solve (paper §III-E2).
//
// Composite routine following the MAGMA design: invert the 32×32 diagonal
// blocks of the triangular factor with a vbatched trtri, then sweep the
// solution panel with vbatched gemm kernels — a rank-update against the
// already-solved columns plus a multiply by the inverted diagonal block.
// Everything launches as vbatched kernels with ETM-classic, and that launch
// sequence is the modelled cost of the separated Cholesky's panel solve
// (X · L11ᵀ = B for Lower, U11ᵀ · X = B for Upper; B is m×ib or ib×m). The
// launches are cost passes only and read nothing but the extents: the
// potrf front computes every factor, this solve included, in the call's
// per-matrix numerics before the driver's first launch.
#pragma once

#include <span>

#include "vbatch/kernels/gemm_vbatched.hpp"

namespace vbatch::kernels {

struct TrsmVbatchedArgs {
  std::span<const int> ib;      ///< triangle extent per matrix (0 = inactive)
  std::span<const int> m;       ///< panel extent orthogonal to ib (0 = inactive)
  int max_ib = 0;
  int max_m = 0;
  GemmTiling tiling{};
};

/// Launches the composite solve's cost passes for element type T. Returns
/// the summed modelled seconds of all launched kernels (trtri + gemm sweep).
template <typename T>
double launch_trsm_vbatched(sim::Device& dev, const TrsmVbatchedArgs& args);

/// General-purpose vbatched triangular solve/multiply covering all
/// side/uplo/trans/diag combinations: one block per (matrix, strip of the
/// free dimension), the triangle staged through shared memory, the strip
/// swept by the recurrence in registers. Slower than the composite above
/// for the Cholesky hot shapes, but the catch-all building block the
/// public BLAS layer exposes. The launch is a cost pass; the front's
/// numerics pass runs one host blas::trsm / blas::trmm per strip.
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

/// The general launches' numerics: one item per 16-wide strip of B's free
/// dimension (columns for Left, rows for Right), the grid as the grain.
template <typename T>
void trsm_general_numerics(const TriangularVbatchedArgs<T>& args);
template <typename T>
void trmm_general_numerics(const TriangularVbatchedArgs<T>& args);

}  // namespace vbatch::kernels
