// 128-bit payload fill kernels (SSE2 on x86-64, NEON on AArch64): W = 4
// lanes of the payload hash (payload.hpp).
#include "vbatch/util/payload.hpp"

namespace vbatch::detail {

PayloadKernels payload_kernels_v128() noexcept { return payload::kernels<4>(); }

}  // namespace vbatch::detail
