// vbatched inversion of triangular diagonal blocks (paper §III-E2).
//
// The vbatched trsm starts "by inverting the diagonal blocks of size
// typically 32×32 using a vbatched trtri routine". Each grid block inverts
// one 32×32 diagonal sub-block of one matrix's panel into a workspace;
// out-of-range blocks exit through ETM-classic (all threads of a live block
// must stay in sync, so aggressive is not applicable). Each inverted block
// is stored dense, with exact zeros in the triangle opposite to `uplo`, so
// the trsm sweep can apply it as a plain gemm operand; A's other triangle
// is never read.
#pragma once

#include <span>

#include "vbatch/kernels/common.hpp"

namespace vbatch::kernels {

inline constexpr int kTrtriBlock = 32;

template <typename T>
struct TrtriDiagArgs {
  Uplo uplo = Uplo::Lower;
  /// Triangular NB-wide panels: per-matrix pointer to the panel's top-left
  /// diagonal element, with its leading dimension. ib[i] gives the panel's
  /// actual extent (0 for matrices past the offset).
  T* const* a = nullptr;
  std::span<const int> lda;
  std::span<const int> ib;
  int NB = 64;
  /// Workspace: per-matrix NB×NB buffer receiving the inverted blocks.
  T* const* inv = nullptr;
  int inv_ld = 0;
};

/// Launches the diagonal-block inversion. Returns modelled kernel seconds.
template <typename T>
double launch_trtri_diag(sim::Device& dev, const TrtriDiagArgs<T>& args);

}  // namespace vbatch::kernels
