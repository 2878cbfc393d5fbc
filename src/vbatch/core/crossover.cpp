#include "vbatch/core/crossover.hpp"

#include <algorithm>

#include "vbatch/kernels/fused_potrf.hpp"

namespace vbatch {

int fused_feasible_max(const sim::DeviceSpec& spec, std::size_t elem_size) {
  // The narrowest supported blocking gives the loosest shared-memory bound.
  return kernels::fused_max_size(spec, 8, elem_size);
}

int crossover_max_size(const sim::DeviceSpec& spec, Precision prec) {
  // Calibrated against bench/fig07_crossover; always within feasibility.
  // The SP fused kernel stays ahead until its blocking drops to nb = 8
  // (beyond the nb = 16 shared-memory bound at 752); DP crosses much
  // earlier, where the wide panels throttle occupancy.
  const int perf = prec == Precision::Double ? 320 : 736;
  const std::size_t real = prec == Precision::Double ? sizeof(double) : sizeof(float);
  return std::min(perf, fused_feasible_max(spec, real));
}

bool use_fused(const sim::DeviceSpec& spec, Precision prec, std::size_t elem_size, int max_n,
               int override_crossover) {
  const int threshold =
      override_crossover > 0 ? override_crossover : crossover_max_size(spec, prec);
  return max_n <= std::min(threshold, fused_feasible_max(spec, elem_size));
}

}  // namespace vbatch
