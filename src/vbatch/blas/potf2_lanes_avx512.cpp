// AVX-512 batch-interleaved potf2: float W = 16, double W = 8. Compiled with
// -mavx512f -ffp-contract=off (potf2_lanes.hpp); the dispatcher only selects
// it once cpuid reports AVX-512F.
#include "vbatch/blas/potf2_lanes.hpp"

namespace vbatch::blas::detail {

Potf2LaneKernels potf2_lanes_avx512() noexcept {
  return {64, &potf2_lanes<float, 16>, &potf2_lanes<double, 8>};
}

}  // namespace vbatch::blas::detail
