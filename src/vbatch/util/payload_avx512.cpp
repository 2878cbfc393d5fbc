// AVX-512 payload fill kernels: W = 16 lanes of the payload hash
// (payload.hpp). Compiled with -mavx512f; the dispatcher only selects it
// once cpuid reports AVX-512F.
#include "vbatch/util/payload.hpp"

namespace vbatch::detail {

PayloadKernels payload_kernels_avx512() noexcept { return payload::kernels<16>(); }

}  // namespace vbatch::detail
