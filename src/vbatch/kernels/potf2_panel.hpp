// vbatched panel factorization kernel (paper §III-E1, Approach 2).
//
// Factors the NB×NB diagonal block of each live matrix at a given offset by
// reusing the fused step: the diagonal blocks form a sub-batch of their own
// (pointer moved to the block, order clamp(n_i − offset, 0, NB), lda kept),
// and the panel is a loop of nb-wide fused-step launches over it, named
// "vbatched_potf2_panel". Each launch is the fused step's cost pass plus
// its lane-grouped numerics pass. Matrices already past the offset, or
// whose panel finished early, exit through ETM-classic.
#pragma once

#include <span>
#include <vector>

#include "vbatch/kernels/common.hpp"

namespace vbatch::kernels {

/// Host mirrors of the panel's sub-batch (block pointers and orders). A
/// driver keeps one across its panel steps, so a step allocates nothing.
template <typename T>
struct PanelScratch {
  std::vector<T*> ptrs;
  std::vector<int> n;
};

template <typename T>
struct Potf2PanelArgs {
  BatchArgs<T> batch;
  Uplo uplo = Uplo::Lower;
  int offset = 0;    ///< global diagonal offset of the panel (j)
  int NB = 64;       ///< panel size (ib_i = clamp(n_i - offset, 0, NB))
  int nb_inner = 16; ///< internal fused blocking
  std::span<int> info;
  PanelScratch<T>* scratch = nullptr;  ///< reused sub-batch mirrors (a local one if null)
};

/// Launches the panel factorization. Returns modelled kernel seconds.
template <typename T>
double launch_potf2_panel(sim::Device& dev, const Potf2PanelArgs<T>& args);

}  // namespace vbatch::kernels
