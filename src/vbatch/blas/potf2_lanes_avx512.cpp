// AVX-512 potf2 and trsm lanes: float W = 16, double W = 8. Compiled with
// -mavx512f -ffp-contract=off (potf2_lanes.hpp); the dispatcher only selects
// it once cpuid reports AVX-512F.
#include "vbatch/blas/potf2_lanes.hpp"

namespace vbatch::blas::detail {

LaneKernels lane_kernels_avx512() noexcept {
  return {64,
          {&potf2_lanes<float, 16>, &trsm_lanes<float, 16>},
          {&potf2_lanes<double, 8>, &trsm_lanes<double, 8>}};
}

}  // namespace vbatch::blas::detail
