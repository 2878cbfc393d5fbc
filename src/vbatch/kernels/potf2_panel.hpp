// vbatched panel factorization kernel (paper §III-E1, Approach 2).
//
// Factors the NB×NB diagonal block of each live matrix at a given offset by
// reusing the fused step: the diagonal blocks form a sub-batch of their own
// (order clamp(n_i − offset, 0, NB)), and the panel is a loop of nb-wide
// fused-step launches over it, named "vbatched_potf2_panel". Matrices
// already past the offset, or whose panel finished early, exit through
// ETM-classic.
//
// The launches are cost passes only. The call's numerics ran before them,
// so `info` holds each matrix's final status, and a block exits once its
// inner step has passed the failing column (the fused step's rule, with
// the panel offset as column0).
#pragma once

#include <span>

#include "vbatch/kernels/common.hpp"

namespace vbatch::kernels {

struct Potf2PanelArgs {
  std::span<const int> n;  ///< order of each matrix in the batch
  int offset = 0;    ///< global diagonal offset of the panel (j)
  int NB = 64;       ///< panel size (ib_i = clamp(n_i - offset, 0, NB))
  int nb_inner = 16; ///< internal fused blocking
  std::span<const int> info;  ///< each matrix's final status (0 if it factors)
};

/// Launches the panel's cost passes for element type T. Returns modelled
/// kernel seconds.
template <typename T>
double launch_potf2_panel(sim::Device& dev, const Potf2PanelArgs& args);

}  // namespace vbatch::kernels
