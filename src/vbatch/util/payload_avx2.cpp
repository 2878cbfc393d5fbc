// AVX2 payload fill kernels: W = 8 lanes of the payload hash (payload.hpp).
// Compiled with -mavx2; the dispatcher only selects it once cpuid reports
// AVX2.
#include "vbatch/util/payload.hpp"

namespace vbatch::detail {

PayloadKernels payload_kernels_avx2() noexcept { return payload::kernels<8>(); }

}  // namespace vbatch::detail
