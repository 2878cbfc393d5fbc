// Crossover policy between the fused and separated approaches (paper §IV-E).
//
// "For the test cases generated here, the crossover point is marked by the
// maximum size in the batch. The reason behind choosing the maximum as the
// deciding criteria is that the kernel fusion approach cannot work for any
// matrix size, due to its shared memory requirements."
#pragma once

#include <cstddef>

#include "vbatch/sim/device_spec.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch {

/// Hard feasibility bound: the largest max-size the fused kernel can launch
/// at all for this element size (shared memory + thread-count limits).
[[nodiscard]] int fused_feasible_max(const sim::DeviceSpec& spec, std::size_t elem_size);

/// Performance crossover: below this max-size the fused approach wins;
/// above it the separated vbatched BLAS approach takes over. Values are
/// calibrated against bench/fig07_crossover (see EXPERIMENTS.md).
[[nodiscard]] int crossover_max_size(const sim::DeviceSpec& spec, Precision prec);

/// The decision for a batch of `prec` elements of `elem_size` bytes (a
/// complex element is twice its precision's scalar): true = run fused,
/// false = run separated. Never picks fused beyond the element size's
/// feasibility bound, whatever the crossover.
[[nodiscard]] bool use_fused(const sim::DeviceSpec& spec, Precision prec, std::size_t elem_size,
                             int max_n, int override_crossover = 0);

}  // namespace vbatch
