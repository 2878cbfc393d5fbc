// Internal: the MR×NR register-tile templates shared by every ISA-specific
// translation unit of the micro-kernel engine, plus the registry types the
// runtime dispatcher (microkernel.cpp) uses to find them.
//
// Each vector TU (microkernel_v128.cpp for SSE2/NEON, microkernel_avx2.cpp,
// microkernel_avx512.cpp) is compiled with its own -m flags and explicitly
// instantiates `tile_vec` for the tile shapes of its vector width W; the
// base TU instantiates the scalar tiles. The shapes instantiated per (type,
// ISA) are MR ∈ {W, 2W, 3W} × NR ∈ {4, 6, 8} — the register-feasible set
// the cache-hierarchy autotuner sweeps (docs/blas.md). No specialization is
// instantiated in more than one TU (W differs), so vague linkage is safe.
//
// A tile function *overwrites* acc[0..MR*NR) (column-major, acc[j*MR+i])
// with Σ_l ap(:, l) ⊗ bp(l, :) over the packed slivers. The scalar tile
// accumulates in exactly the PR 2 order (l outer, j, i inner), which is the
// bit-compatibility anchor for Isa::Scalar; vector tiles keep the same
// per-element summation order over l, so a fixed (ISA, profile) pair is
// bit-reproducible run to run.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "vbatch/blas/isa.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::blas::micro::detail {

#ifndef VBATCH_RESTRICT
#define VBATCH_RESTRICT __restrict__
#endif

/// One register-tile kernel: writes acc = Ã-sliver × B̃-sliver over kc steps.
template <typename T>
using MicroFn = void (*)(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
                         T* VBATCH_RESTRICT acc);

/// Scalar type index used by the registry: float, double, complex<float>,
/// complex<double>.
template <typename T>
inline constexpr int type_index_v = is_complex_v<T>
                                        ? (std::is_same_v<real_t<T>, float> ? 2 : 3)
                                        : (std::is_same_v<T, float> ? 0 : 1);

struct KernelEntry {
  Isa isa;
  int type;  ///< type_index_v of the scalar type
  int mr, nr;
  const void* fn;  ///< MicroFn<T> for that scalar type
};

/// Per-TU kernel tables. The AVX TUs only exist on x86-64 builds whose
/// compiler accepts the flags; microkernel.cpp references them under the
/// VBATCH_HAVE_*_TU definitions CMake sets when it compiles the file.
std::span<const KernelEntry> kernels_scalar() noexcept;
std::span<const KernelEntry> kernels_v128() noexcept;
std::span<const KernelEntry> kernels_avx2() noexcept;
std::span<const KernelEntry> kernels_avx512() noexcept;

/// The complex tile's fast pass: each product written out in real
/// arithmetic, (ar·br − ai·bi, ar·bi + ai·br), which is exactly what the
/// std::complex multiply computes, minus its per-product C99 NaN-recovery
/// branch, which keeps that loop scalar (this pass runs a kc = 64 tile
/// 1.6–5× faster on an AVX2 Xeon). A
/// product the branch would recover is NaN in both parts and leaves its
/// accumulator NaN, so a NaN-free tile matches the std::complex loop bit for
/// bit under the same contraction flags. Returns false, with acc
/// unspecified, when the tile holds a NaN.
template <typename T, int MR, int NR>
bool tile_complex_split(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
                        T* VBATCH_RESTRICT acc) {
  using R = real_t<T>;
  R cr[MR * NR] = {};
  R ci[MR * NR] = {};
  for (index_t l = 0; l < kc; ++l) {
    const T* VBATCH_RESTRICT av = ap + l * MR;
    const T* VBATCH_RESTRICT bv = bp + l * NR;
    for (int j = 0; j < NR; ++j) {
      const R br = bv[j].real();
      const R bi = bv[j].imag();
      for (int i = 0; i < MR; ++i) {
        const R ar = av[i].real();
        const R ai = av[i].imag();
        cr[j * MR + i] += ar * br - ai * bi;
        ci[j * MR + i] += ar * bi + ai * br;
      }
    }
  }
  bool finite = true;
  for (int x = 0; x < MR * NR; ++x) {
    finite = finite && !std::isnan(cr[x]) && !std::isnan(ci[x]);
    acc[x] = T(cr[x], ci[x]);
  }
  return finite;
}

/// Bit-compatibility anchor: identical loop nest (l outer, then j, then i)
/// and accumulation order to the PR 2 micro_tile, with the zero-init folded
/// in. MR/NR are compile-time so the i/j loops fully unroll. Complex tiles
/// take tile_complex_split and fall back to this loop only on a NaN.
template <typename T, int MR, int NR>
void tile_scalar(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
                 T* VBATCH_RESTRICT acc) {
  if constexpr (is_complex_v<T>) {
    if (tile_complex_split<T, MR, NR>(kc, ap, bp, acc)) return;
  }
  T c[MR * NR] = {};
  for (index_t l = 0; l < kc; ++l) {
    const T* VBATCH_RESTRICT av = ap + l * MR;
    const T* VBATCH_RESTRICT bv = bp + l * NR;
    for (int j = 0; j < NR; ++j) {
      const T bval = bv[j];
      for (int i = 0; i < MR; ++i) c[j * MR + i] += av[i] * bval;
    }
  }
  for (int x = 0; x < MR * NR; ++x) acc[x] = c[x];
}

/// Runtime-shape fallback with the same accumulation order as tile_scalar;
/// used when the active profile names a tile no TU compiled (and for the
/// complex tail shapes the autotuner may pick).
template <typename T>
inline void tile_generic(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
                         T* VBATCH_RESTRICT acc, int mr, int nr) {
  for (int x = 0; x < mr * nr; ++x) acc[x] = T(0);
  for (index_t l = 0; l < kc; ++l) {
    const T* VBATCH_RESTRICT av = ap + l * mr;
    const T* VBATCH_RESTRICT bv = bp + l * nr;
    for (int j = 0; j < nr; ++j) {
      const T bval = bv[j];
      T* VBATCH_RESTRICT cc = acc + j * mr;
      for (int i = 0; i < mr; ++i) cc[i] += av[i] * bval;
    }
  }
}

/// Explicitly vectorized tile using portable compiler-vector types: the
/// accumulator block is MR/W × NR vectors of W lanes; each k-step loads
/// MR/W vectors of Ã, broadcasts NR scalars of B̃ and issues MR/W·NR FMAs.
/// The TU's -m flags decide the actual instruction encoding.
template <typename T, int MR, int NR, int W>
void tile_vec(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
              T* VBATCH_RESTRICT acc) {
  static_assert(!is_complex_v<T>, "vector tiles cover real scalars");
  static_assert(MR % W == 0 && MR / W >= 1 && MR / W <= 4);
  constexpr int MV = MR / W;
  typedef T Vec __attribute__((vector_size(W * sizeof(T))));
  // Unaligned, aliasing-safe view of the packed panels (sliver starts are
  // only sizeof(T)-aligned for odd l·MR offsets).
  typedef T VecU __attribute__((vector_size(W * sizeof(T)), aligned(alignof(T)), may_alias));

  auto splat = [](T x) {
    Vec v;
    for (int i = 0; i < W; ++i) v[i] = x;
    return v;
  };

  Vec c[MV][NR];
  for (int v = 0; v < MV; ++v)
    for (int j = 0; j < NR; ++j) c[v][j] = splat(T(0));

  for (index_t l = 0; l < kc; ++l) {
    Vec a[MV];
    for (int v = 0; v < MV; ++v)
      a[v] = *reinterpret_cast<const VecU*>(ap + l * MR + v * W);
    const T* VBATCH_RESTRICT bv = bp + l * NR;
    for (int j = 0; j < NR; ++j) {
      const Vec bj = splat(bv[j]);
      for (int v = 0; v < MV; ++v) c[v][j] += a[v] * bj;
    }
  }
  for (int j = 0; j < NR; ++j)
    for (int v = 0; v < MV; ++v)
      *reinterpret_cast<VecU*>(acc + j * MR + v * W) = c[v][j];
}

// Builds the nine (MR, NR) entries of one (type, ISA, W) family. Used by the
// per-ISA TUs; kept as a macro so the function pointers instantiate in the
// TU that carries the right -m flags.
#define VBATCH_TILE_ENTRY(ISA, T, MR, NR, W)                                      \
  ::vbatch::blas::micro::detail::KernelEntry {                                    \
    ISA, ::vbatch::blas::micro::detail::type_index_v<T>, MR, NR,                  \
        reinterpret_cast<const void*>(                                            \
            &::vbatch::blas::micro::detail::tile_vec<T, MR, NR, W>)               \
  }

#define VBATCH_TILE_FAMILY(ISA, T, W)                                             \
  VBATCH_TILE_ENTRY(ISA, T, W, 4, W), VBATCH_TILE_ENTRY(ISA, T, W, 6, W),         \
      VBATCH_TILE_ENTRY(ISA, T, W, 8, W), VBATCH_TILE_ENTRY(ISA, T, 2 * W, 4, W), \
      VBATCH_TILE_ENTRY(ISA, T, 2 * W, 6, W), VBATCH_TILE_ENTRY(ISA, T, 2 * W, 8, W), \
      VBATCH_TILE_ENTRY(ISA, T, 3 * W, 4, W), VBATCH_TILE_ENTRY(ISA, T, 3 * W, 6, W), \
      VBATCH_TILE_ENTRY(ISA, T, 3 * W, 8, W)

}  // namespace vbatch::blas::micro::detail
