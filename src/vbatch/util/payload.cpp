// The portable payload fill (W = 1) and the dispatch on the active ISA
// (payload.hpp).
#include "vbatch/util/payload.hpp"

#include "vbatch/blas/isa.hpp"

namespace vbatch::detail {

#if !defined(VBATCH_HAVE_AVX2_TU)
PayloadKernels payload_kernels_avx2() noexcept { return {}; }
#endif
#if !defined(VBATCH_HAVE_AVX512_TU)
PayloadKernels payload_kernels_avx512() noexcept { return {}; }
#endif

PayloadKernels active_payload_kernels() noexcept {
  PayloadKernels k;
  switch (blas::micro::active_isa()) {
    case blas::micro::Isa::Avx512: k = payload_kernels_avx512(); break;
    case blas::micro::Isa::Avx2: k = payload_kernels_avx2(); break;
    case blas::micro::Isa::Sse2:
    case blas::micro::Isa::Neon: k = payload_kernels_v128(); break;
    case blas::micro::Isa::Scalar: break;
  }
  return k.f.real != nullptr ? k : payload::kernels<1>();
}

}  // namespace vbatch::detail
