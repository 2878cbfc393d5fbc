// AVX2 potf2 and trsm lanes: float W = 8, double W = 4. Compiled with
// -mavx2 -ffp-contract=off and without -mfma (potf2_lanes.hpp); the
// dispatcher only selects it once cpuid reports AVX2.
#include "vbatch/blas/potf2_lanes.hpp"

namespace vbatch::blas::detail {

LaneKernels lane_kernels_avx2() noexcept {
  return {32,
          {&potf2_lanes<float, 8>, &trsm_lanes<float, 8>},
          {&potf2_lanes<double, 4>, &trsm_lanes<double, 4>}};
}

}  // namespace vbatch::blas::detail
