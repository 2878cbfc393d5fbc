// Internal: the MR×NR register tiles and operand packers shared by every
// ISA-specific translation unit of the micro-kernel engine, plus the
// registry types the runtime dispatcher (microkernel.cpp) uses to find them.
//
// Each vector TU (microkernel_v128.cpp for SSE2/NEON, microkernel_avx2.cpp,
// microkernel_avx512.cpp) is compiled with its own -m flags and explicitly
// instantiates, for the tile shapes of its vector width W, four functions
// per (MR, NR): the tile, its updating form and the A and B packers; the
// base TU instantiates the scalar tiles and their packers. The shapes
// instantiated per (type, ISA) are MR ∈ {W, 2W, 3W} × NR ∈ {4, 6, 8} — the
// register-feasible set the cache-hierarchy autotuner sweeps
// (docs/blas.md). Every template below that a TU instantiates carries W,
// and (type, W) names one TU, so no specialization is instantiated in more
// than one TU and vague linkage is safe.
//
// A tile function overwrites acc[0..MR*NR) (column-major, acc[j*MR+i]) with
// Σ_l ap(:, l) ⊗ bp(l, :) over the packed slivers. A vector tile's updating
// form keeps Σ in registers and adds alpha·Σ into an MR×NR block of C
// instead, with no acc round trip; the engine calls it for whole tiles with
// alpha = ±1, where c + alpha·Σ is c ± Σ bit for bit however the TU
// contracts it. Every other tile (scalar, complex, generic shapes, partial or
// triangle-masked, other alphas) takes the acc path and the base TU's
// write-back. The scalar tile accumulates in exactly the PR 2 order (l
// outer, j, i inner), which is the bit-compatibility anchor for
// Isa::Scalar; vector tiles keep the same per-element summation order over
// l, so a fixed (ISA, profile) pair is bit-reproducible run to run,
// whichever form a tile runs in.
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

/// One register-tile kernel: writes acc = Ã-sliver × B̃-sliver over kc ≥ 1
/// steps.
template <typename T>
using MicroFn = void (*)(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
                         T* VBATCH_RESTRICT acc);

/// A vector tile's updating form: C(0:MR, 0:NR) += alpha·(Ã-sliver ×
/// B̃-sliver), C column-major with leading dimension ldc. Called with
/// alpha = ±1 only.
template <typename T>
using UpdateFn = void (*)(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
                          T alpha, T* VBATCH_RESTRICT c, index_t ldc);

/// Packs op(A)(i0 : i0+mc, p0 : p0+kc) into the tile's MR-row slivers.
template <typename T>
using PackAFn = void (*)(ConstMatrixView<T> a, Trans trans, index_t i0, index_t p0, index_t mc,
                         index_t kc, T* VBATCH_RESTRICT dst);

/// Packs op(B)(p0 : p0+kc, j0 : j0+nc) into the tile's NR-column slivers.
template <typename T>
using PackBFn = void (*)(ConstMatrixView<T> b, Trans trans, index_t p0, index_t j0, index_t kc,
                         index_t nc, T* VBATCH_RESTRICT dst);

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
  const void* tile;    ///< MicroFn<T> for that scalar type
  const void* update;  ///< UpdateFn<T>; null for the scalar tiles
  const void* pack_a;  ///< PackAFn<T>
  const void* pack_b;  ///< PackBFn<T>
};

/// Per-TU kernel tables. The AVX TUs only exist on x86-64 builds whose
/// compiler accepts the flags; microkernel.cpp references them under the
/// VBATCH_HAVE_*_TU definitions CMake sets when it compiles the file.
std::span<const KernelEntry> kernels_scalar() noexcept;
std::span<const KernelEntry> kernels_v128() noexcept;
std::span<const KernelEntry> kernels_avx2() noexcept;
std::span<const KernelEntry> kernels_avx512() noexcept;

/// The functions of one compiled tile (`update` null for the scalar ones).
template <typename T>
struct TileKernels {
  MicroFn<T> tile = nullptr;
  UpdateFn<T> update = nullptr;
  PackAFn<T> pack_a = nullptr;
  PackBFn<T> pack_b = nullptr;
};

/// The best compiled (T, mr, nr) tile at or below `isa`, walking each vector
/// table down through the 128-bit one to the scalar one; all null when no TU
/// compiled the shape (the runtime-shaped generic forms then serve).
template <typename T>
[[nodiscard]] TileKernels<T> find_kernels(Isa isa, int mr, int nr) noexcept;

/// tile_generic as the engine runs it, compiled under the library's flags
/// (an oracle outside the library calls this rather than instantiating its
/// own copy, which another -march would contract differently).
template <typename T>
void generic_tile(index_t kc, const T* ap, const T* bp, T* acc, int mr, int nr);

// ---------------------------------------------------------------------------
// Packing. Sliver s of a packed A block holds rows [s·MR, s·MR+MR) with the
// MR rows of one k-slice contiguous and the kc slices one after another; a
// packed B sliver holds NR columns per k-slice the same way. Partial slivers
// are zero-padded so the tiles never need a mask. W only names the TU.
// ---------------------------------------------------------------------------

/// One A sliver of mr ≤ MR rows starting at row i, zero-padded to MR: the
/// runtime-shaped packer, also every packer's partial sliver.
template <typename T, int W>
void pack_a_sliver(ConstMatrixView<T> a, Trans trans, index_t i, index_t p0, index_t mr,
                   index_t kc, int MR, T* VBATCH_RESTRICT panel) {
  if (trans == Trans::NoTrans) {
    for (index_t l = 0; l < kc; ++l) {
      const T* VBATCH_RESTRICT col = &a(i, p0 + l);
      T* VBATCH_RESTRICT out = panel + l * MR;
      for (index_t r = 0; r < mr; ++r) out[r] = col[r];
      for (index_t r = mr; r < MR; ++r) out[r] = T(0);
    }
  } else {
    // op(A)(i, l) = conj(A(p0+l, i)): each packed row reads one unit-stride
    // column of the stored matrix.
    for (index_t r = 0; r < mr; ++r) {
      const T* VBATCH_RESTRICT col = &a(p0, i + r);
      for (index_t l = 0; l < kc; ++l) panel[l * MR + r] = conj_val(col[l]);
    }
    for (index_t r = mr; r < MR; ++r)
      for (index_t l = 0; l < kc; ++l) panel[l * MR + r] = T(0);
  }
}

/// One B sliver of nr ≤ NR columns starting at column j, zero-padded to NR.
template <typename T, int W>
void pack_b_sliver(ConstMatrixView<T> b, Trans trans, index_t p0, index_t j, index_t kc,
                   index_t nr, int NR, T* VBATCH_RESTRICT panel) {
  if (trans == Trans::NoTrans) {
    for (index_t cidx = 0; cidx < nr; ++cidx) {
      const T* VBATCH_RESTRICT col = &b(p0, j + cidx);
      for (index_t l = 0; l < kc; ++l) panel[l * NR + cidx] = col[l];
    }
    for (index_t cidx = nr; cidx < NR; ++cidx)
      for (index_t l = 0; l < kc; ++l) panel[l * NR + cidx] = T(0);
  } else {
    // op(B)(l, j) = conj(B(j, p0+l)): one k-slice reads a unit-stride row
    // segment of the stored matrix.
    for (index_t l = 0; l < kc; ++l) {
      const T* VBATCH_RESTRICT row = &b(j, p0 + l);
      T* VBATCH_RESTRICT out = panel + l * NR;
      for (index_t cidx = 0; cidx < nr; ++cidx) out[cidx] = conj_val(row[cidx]);
      for (index_t cidx = nr; cidx < NR; ++cidx) out[cidx] = T(0);
    }
  }
}

/// The tile's A packer: whole slivers copy with compile-time extents, so a
/// NoTrans k-slice is MR contiguous elements moved in the TU's full-width
/// vectors and a Trans one gathers MR unrolled columns.
template <typename T, int MR, int W>
void pack_a(ConstMatrixView<T> a, Trans trans, index_t i0, index_t p0, index_t mc, index_t kc,
            T* VBATCH_RESTRICT dst) {
  const index_t lda = a.ld();
  for (index_t ip = 0; ip < mc; ip += MR) {
    T* VBATCH_RESTRICT panel = dst + (ip / MR) * (MR * kc);
    if (mc - ip < MR) {
      pack_a_sliver<T, W>(a, trans, i0 + ip, p0, mc - ip, kc, MR, panel);
    } else if (trans == Trans::NoTrans) {
      const T* VBATCH_RESTRICT col = &a(i0 + ip, p0);
      for (index_t l = 0; l < kc; ++l)
        for (int r = 0; r < MR; ++r) panel[l * MR + r] = col[l * lda + r];
    } else {
      const T* VBATCH_RESTRICT cols = &a(p0, i0 + ip);
      for (index_t l = 0; l < kc; ++l)
        for (int r = 0; r < MR; ++r) panel[l * MR + r] = conj_val(cols[r * lda + l]);
    }
  }
}

/// The tile's B packer, as pack_a: a Trans k-slice is NR contiguous
/// elements of a stored row.
template <typename T, int NR, int W>
void pack_b(ConstMatrixView<T> b, Trans trans, index_t p0, index_t j0, index_t kc, index_t nc,
            T* VBATCH_RESTRICT dst) {
  const index_t ldb = b.ld();
  for (index_t jp = 0; jp < nc; jp += NR) {
    T* VBATCH_RESTRICT panel = dst + (jp / NR) * (NR * kc);
    if (nc - jp < NR) {
      pack_b_sliver<T, W>(b, trans, p0, j0 + jp, kc, nc - jp, NR, panel);
    } else if (trans == Trans::NoTrans) {
      const T* VBATCH_RESTRICT cols = &b(p0, j0 + jp);
      for (index_t l = 0; l < kc; ++l)
        for (int cidx = 0; cidx < NR; ++cidx) panel[l * NR + cidx] = cols[cidx * ldb + l];
    } else {
      const T* VBATCH_RESTRICT row = &b(j0 + jp, p0);
      for (index_t l = 0; l < kc; ++l)
        for (int cidx = 0; cidx < NR; ++cidx) panel[l * NR + cidx] = conj_val(row[l * ldb + cidx]);
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar tiles (base TU).
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Vector tiles (per-ISA TUs).
// ---------------------------------------------------------------------------

/// W-lane compiler-vector types; the TU's -m flags decide the encoding.
template <typename T, int W>
struct Lanes {
  typedef T Vec __attribute__((vector_size(W * sizeof(T))));
  // Unaligned, aliasing-safe view of packed panels and of C (sliver starts
  // are only sizeof(T)-aligned for odd l·MR offsets).
  typedef T VecU __attribute__((vector_size(W * sizeof(T)), aligned(alignof(T)), may_alias));

  static Vec splat(T x) {
    Vec v;
    for (int i = 0; i < W; ++i) v[i] = x;
    return v;
  }
};

/// Σ over the packed slivers into MR/W × NR vector registers: each k-step
/// loads MR/W vectors of Ã, broadcasts NR scalars of B̃ and issues MR/W·NR
/// FMAs.
template <typename T, int MR, int NR, int W>
[[gnu::always_inline]] inline void vec_sum(index_t kc, const T* VBATCH_RESTRICT ap,
                                           const T* VBATCH_RESTRICT bp,
                                           typename Lanes<T, W>::Vec (&c)[MR / W][NR]) {
  static_assert(!is_complex_v<T>, "vector tiles cover real scalars");
  static_assert(MR % W == 0 && MR / W >= 1 && MR / W <= 4);
  using L = Lanes<T, W>;
  constexpr int MV = MR / W;
  // kc ≥ 1 lets GCC keep the accumulators in registers from the zeroing to
  // the store instead of round-tripping them through the stack.
  if (kc < 1) __builtin_unreachable();
  for (int v = 0; v < MV; ++v)
    for (int j = 0; j < NR; ++j) c[v][j] = L::splat(T(0));

  for (index_t l = 0; l < kc; ++l) {
    typename L::Vec a[MV];
    for (int v = 0; v < MV; ++v)
      a[v] = *reinterpret_cast<const typename L::VecU*>(ap + l * MR + v * W);
    const T* VBATCH_RESTRICT bv = bp + l * NR;
    for (int j = 0; j < NR; ++j) {
      const typename L::Vec bj = L::splat(bv[j]);
      for (int v = 0; v < MV; ++v) c[v][j] += a[v] * bj;
    }
  }
}

/// Explicitly vectorized tile: Σ stored to acc.
template <typename T, int MR, int NR, int W>
void tile_vec(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
              T* VBATCH_RESTRICT acc) {
  using L = Lanes<T, W>;
  typename L::Vec c[MR / W][NR];
  vec_sum<T, MR, NR, W>(kc, ap, bp, c);
  for (int j = 0; j < NR; ++j)
    for (int v = 0; v < MR / W; ++v)
      *reinterpret_cast<typename L::VecU*>(acc + j * MR + v * W) = c[v][j];
}

/// tile_vec's updating form: C loaded, ±Σ added in registers, C stored. For
/// alpha = ±1, c + alpha·Σ is exactly c ± Σ. Only alpha's sign is kept: a
/// vector register holding alpha across the k loop made GCC spill an
/// accumulator of the 8×6 double AVX2 tile.
template <typename T, int MR, int NR, int W>
void tile_vec_update(index_t kc, const T* VBATCH_RESTRICT ap, const T* VBATCH_RESTRICT bp,
                     T alpha, T* VBATCH_RESTRICT c, index_t ldc) {
  using L = Lanes<T, W>;
  const bool minus = alpha < T(0);
  typename L::Vec s[MR / W][NR];
  vec_sum<T, MR, NR, W>(kc, ap, bp, s);
  for (int j = 0; j < NR; ++j)
    for (int v = 0; v < MR / W; ++v) {
      auto* cv = reinterpret_cast<typename L::VecU*>(c + j * ldc + v * W);
      *cv = minus ? *cv - s[v][j] : *cv + s[v][j];
    }
}

/// The registry entry of one compiled tile and its packers; UPDATE is the
/// updating form's address as a const void*, or nullptr.
#define VBATCH_KERNEL_ENTRY(ISA, T, MR, NR, TILE, UPDATE, W)                             \
  ::vbatch::blas::micro::detail::KernelEntry {                                           \
    ISA, ::vbatch::blas::micro::detail::type_index_v<T>, MR, NR,                         \
        reinterpret_cast<const void*>(&TILE), UPDATE,                                    \
        reinterpret_cast<const void*>(&::vbatch::blas::micro::detail::pack_a<T, MR, W>), \
        reinterpret_cast<const void*>(&::vbatch::blas::micro::detail::pack_b<T, NR, W>)  \
  }

// Builds the nine (MR, NR) entries of one (type, ISA, W) family. Used by the
// per-ISA TUs; kept as a macro so the function pointers instantiate in the
// TU that carries the right -m flags.
#define VBATCH_TILE_ENTRY(ISA, T, MR, NR, W)                                           \
  VBATCH_KERNEL_ENTRY(                                                                 \
      ISA, T, MR, NR, (::vbatch::blas::micro::detail::tile_vec<T, MR, NR, W>),         \
      reinterpret_cast<const void*>(                                                   \
          &::vbatch::blas::micro::detail::tile_vec_update<T, MR, NR, W>),              \
      W)

#define VBATCH_TILE_FAMILY(ISA, T, W)                                             \
  VBATCH_TILE_ENTRY(ISA, T, W, 4, W), VBATCH_TILE_ENTRY(ISA, T, W, 6, W),         \
      VBATCH_TILE_ENTRY(ISA, T, W, 8, W), VBATCH_TILE_ENTRY(ISA, T, 2 * W, 4, W), \
      VBATCH_TILE_ENTRY(ISA, T, 2 * W, 6, W), VBATCH_TILE_ENTRY(ISA, T, 2 * W, 8, W), \
      VBATCH_TILE_ENTRY(ISA, T, 3 * W, 4, W), VBATCH_TILE_ENTRY(ISA, T, 3 * W, 6, W), \
      VBATCH_TILE_ENTRY(ISA, T, 3 * W, 8, W)

}  // namespace vbatch::blas::micro::detail
