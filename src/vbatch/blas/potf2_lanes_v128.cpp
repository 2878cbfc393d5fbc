// 128-bit potf2 and trsm lanes (SSE2 on x86-64, NEON on AArch64): float
// W = 4, double W = 2. Compiled with -ffp-contract=off (potf2_lanes.hpp).
#include "vbatch/blas/potf2_lanes.hpp"

namespace vbatch::blas::detail {

LaneKernels lane_kernels_v128() noexcept {
  return {16,
          {&potf2_lanes<float, 4>, &trsm_lanes<float, 4>},
          {&potf2_lanes<double, 2>, &trsm_lanes<double, 2>}};
}

}  // namespace vbatch::blas::detail
