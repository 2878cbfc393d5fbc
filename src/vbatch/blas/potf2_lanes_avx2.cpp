// AVX2 batch-interleaved potf2: float W = 8, double W = 4. Compiled with
// -mavx2 -ffp-contract=off and without -mfma (potf2_lanes.hpp); the
// dispatcher only selects it once cpuid reports AVX2.
#include "vbatch/blas/potf2_lanes.hpp"

namespace vbatch::blas::detail {

Potf2LaneKernels potf2_lanes_avx2() noexcept {
  return {32, &potf2_lanes<float, 8>, &potf2_lanes<double, 4>};
}

}  // namespace vbatch::blas::detail
