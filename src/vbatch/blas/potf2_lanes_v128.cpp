// 128-bit batch-interleaved potf2 (SSE2 on x86-64, NEON on AArch64): float
// W = 4, double W = 2. Compiled with -ffp-contract=off (potf2_lanes.hpp).
#include "vbatch/blas/potf2_lanes.hpp"

namespace vbatch::blas::detail {

Potf2LaneKernels potf2_lanes_v128() noexcept {
  return {16, &potf2_lanes<float, 4>, &potf2_lanes<double, 2>};
}

}  // namespace vbatch::blas::detail
