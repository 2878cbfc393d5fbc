#include "vbatch/blas/microkernel.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "vbatch/blas/microkernel_tile.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::blas::micro {

namespace {

using detail::KernelEntry;
using detail::type_index_v;

std::atomic<int> g_dispatch{static_cast<int>(Dispatch::Auto)};

// Thread-local packing buffers, one pair per scalar type. They grow to the
// largest MC×KC (A) / KC×NC (B) the thread has seen, rounded up to whole
// slivers, and are reused by every subsequent call on the same thread.
template <typename T>
std::vector<T>& pack_buffer_a() {
  static thread_local std::vector<T> buf;
  return buf;
}

template <typename T>
std::vector<T>& pack_buffer_b() {
  static thread_local std::vector<T> buf;
  return buf;
}

// The per-ISA kernel tables, searched best-first: every vector set falls
// back through the 128-bit table to the scalar one, so a profile whose tile
// has no compiled kernel under the active ISA still resolves (ultimately to
// the runtime-shaped generic tile, which shares the scalar accumulation
// order). Tables above the active ISA are never consulted, so no kernel can
// execute instructions the host lacks.
std::span<const KernelEntry> table_for(Isa isa) noexcept {
  switch (isa) {
#if defined(VBATCH_HAVE_AVX512_TU)
    case Isa::Avx512: return detail::kernels_avx512();
#endif
#if defined(VBATCH_HAVE_AVX2_TU)
    case Isa::Avx2: return detail::kernels_avx2();
#endif
    case Isa::Sse2:
    case Isa::Neon: return detail::kernels_v128();
    default: return detail::kernels_scalar();
  }
}

Isa next_lower(Isa isa) noexcept {
  switch (isa) {
    case Isa::Avx512: return Isa::Avx2;
    case Isa::Avx2:
#if defined(__aarch64__)
      return Isa::Neon;
#else
      return Isa::Sse2;
#endif
    case Isa::Sse2:
    case Isa::Neon:
    default: return Isa::Scalar;
  }
}

// Splits [0, total) into the same number of chunks greedy `block`-sized
// splitting would produce, but sizes balanced in multiples of `unit` (the
// register-tile extent) so no chunk degenerates to a sliver. Greedy NC
// splitting gave n = 512, NC = 384 chunks of 384 + 128 — the packed-B reuse
// collapses in the 128-wide tail and throughput dipped ~15%; balanced
// splitting yields 256 + 256. The k loop must NOT use this: the k-split
// fixes the accumulation order, and we keep the PR 2 greedy order so a
// fixed (ISA, profile) stays bit-reproducible against history.
class BalancedSplit {
 public:
  BalancedSplit(index_t total, index_t block, index_t unit) noexcept : unit_(unit), total_(total) {
    const index_t nb = total > 0 ? (total + block - 1) / block : 0;
    const index_t units = (total + unit - 1) / unit;
    count_ = nb;
    base_ = nb > 0 ? units / nb : 0;
    rem_ = nb > 0 ? units % nb : 0;
  }
  [[nodiscard]] index_t count() const noexcept { return count_; }
  [[nodiscard]] index_t begin(index_t i) const noexcept {
    return (i * base_ + std::min(i, rem_)) * unit_;
  }
  [[nodiscard]] index_t length(index_t i) const noexcept {
    const index_t units = base_ + (i < rem_ ? 1 : 0);
    return std::min(units * unit_, total_ - begin(i));
  }

 private:
  index_t unit_, total_, count_ = 0, base_ = 0, rem_ = 0;
};

}  // namespace

namespace detail {

namespace {

// Compile-time scalar tiles for the default (anchor) shapes of each scalar
// type; every other shape the tuner may pick resolves to the runtime-shaped
// generic tile. The accumulation order is identical either way. The base
// TU's packers carry W = 1. Scalar tiles register no updating form, so
// their whole tiles take the acc path.
#define VBATCH_SCALAR_ENTRY(T, MR, NR) \
  VBATCH_KERNEL_ENTRY(Isa::Scalar, T, MR, NR, (tile_scalar<T, MR, NR>), nullptr, 1)

const KernelEntry kScalarEntries[] = {
    VBATCH_SCALAR_ENTRY(float, 8, 4),
    VBATCH_SCALAR_ENTRY(float, 4, 4),
    VBATCH_SCALAR_ENTRY(double, 4, 4),
    VBATCH_SCALAR_ENTRY(double, 8, 4),
    VBATCH_SCALAR_ENTRY(std::complex<float>, 4, 2),
    VBATCH_SCALAR_ENTRY(std::complex<float>, 4, 4),
    VBATCH_SCALAR_ENTRY(std::complex<double>, 2, 2),
    VBATCH_SCALAR_ENTRY(std::complex<double>, 4, 4),
};

#undef VBATCH_SCALAR_ENTRY

}  // namespace

std::span<const KernelEntry> kernels_scalar() noexcept { return kScalarEntries; }

#if !defined(VBATCH_HAVE_AVX2_TU)
std::span<const KernelEntry> kernels_avx2() noexcept { return {}; }
#endif
#if !defined(VBATCH_HAVE_AVX512_TU)
std::span<const KernelEntry> kernels_avx512() noexcept { return {}; }
#endif

template <typename T>
TileKernels<T> find_kernels(Isa isa, int mr, int nr) noexcept {
  for (;;) {
    for (const KernelEntry& e : table_for(isa))
      if (e.type == type_index_v<T> && e.mr == mr && e.nr == nr)
        return {reinterpret_cast<MicroFn<T>>(const_cast<void*>(e.tile)),
                reinterpret_cast<UpdateFn<T>>(const_cast<void*>(e.update)),
                reinterpret_cast<PackAFn<T>>(const_cast<void*>(e.pack_a)),
                reinterpret_cast<PackBFn<T>>(const_cast<void*>(e.pack_b))};
    if (isa == Isa::Scalar) return {};
    isa = next_lower(isa);
  }
}

template <typename T>
void generic_tile(index_t kc, const T* ap, const T* bp, T* acc, int mr, int nr) {
  tile_generic<T>(kc, ap, bp, acc, mr, nr);
}

template void generic_tile<float>(index_t, const float*, const float*, float*, int, int);
template void generic_tile<double>(index_t, const double*, const double*, double*, int, int);
template void generic_tile<std::complex<float>>(index_t, const std::complex<float>*,
                                                const std::complex<float>*,
                                                std::complex<float>*, int, int);
template void generic_tile<std::complex<double>>(index_t, const std::complex<double>*,
                                                 const std::complex<double>*,
                                                 std::complex<double>*, int, int);

template TileKernels<float> find_kernels<float>(Isa, int, int) noexcept;
template TileKernels<double> find_kernels<double>(Isa, int, int) noexcept;
template TileKernels<std::complex<float>> find_kernels<std::complex<float>>(Isa, int,
                                                                            int) noexcept;
template TileKernels<std::complex<double>> find_kernels<std::complex<double>>(Isa, int,
                                                                              int) noexcept;

}  // namespace detail

void set_dispatch(Dispatch d) noexcept {
  g_dispatch.store(static_cast<int>(d), std::memory_order_relaxed);
}

Dispatch dispatch() noexcept {
  return static_cast<Dispatch>(g_dispatch.load(std::memory_order_relaxed));
}

template <typename T>
std::vector<TilePair> supported_tiles(Isa isa) {
  std::vector<TilePair> out;
  for (;;) {
    for (const detail::KernelEntry& e : table_for(isa)) {
      if (e.type != detail::type_index_v<T>) continue;
      const bool seen = std::any_of(out.begin(), out.end(), [&](const TilePair& t) {
        return t.mr == e.mr && t.nr == e.nr;
      });
      if (!seen) out.push_back({e.mr, e.nr});
    }
    if (isa == Isa::Scalar) break;
    isa = next_lower(isa);
  }
  return out;
}

template std::vector<TilePair> supported_tiles<float>(Isa);
template std::vector<TilePair> supported_tiles<double>(Isa);
template std::vector<TilePair> supported_tiles<std::complex<float>>(Isa);
template std::vector<TilePair> supported_tiles<std::complex<double>>(Isa);

namespace {

// The part of C the packed core writes: all of it (gemm) ...
struct WholeC {
  static constexpr bool strict = false;
  static constexpr bool meets(index_t, index_t, index_t, index_t) noexcept { return true; }
  static constexpr bool covers(index_t, index_t, index_t, index_t) noexcept { return true; }
  static constexpr index_t lo(index_t, index_t r0, bool) noexcept { return r0; }
  static constexpr index_t hi(index_t, index_t r1, bool) noexcept { return r1; }
};

// ... or its uplo triangle (syrk). `strict` leaves the diagonal out of the
// write-back, for herk's real diagonal sum.
struct Triangle {
  Uplo uplo = Uplo::Lower;
  bool strict = false;

  // Does the tile rows [r0, r1) × columns [c0, c1) meet the triangle?
  [[nodiscard]] bool meets(index_t r0, index_t r1, index_t c0, index_t c1) const noexcept {
    return uplo == Uplo::Lower ? r1 - 1 >= c0 : r0 <= c1 - 1;
  }
  // Does the tile lie wholly inside the write-back, so that it needs no mask?
  [[nodiscard]] bool covers(index_t r0, index_t r1, index_t c0, index_t c1) const noexcept {
    const index_t s = strict ? 1 : 0;
    return uplo == Uplo::Lower ? r0 >= c1 - 1 + s : r1 - 1 <= c0 - s;
  }
  // Rows [lo, hi) of column j inside both [r0, r1) and the triangle (with
  // its diagonal when `diag`); empty when lo >= hi.
  [[nodiscard]] index_t lo(index_t j, index_t r0, bool diag) const noexcept {
    return uplo == Uplo::Lower ? std::max(r0, diag ? j : j + 1) : r0;
  }
  [[nodiscard]] index_t hi(index_t j, index_t r1, bool diag) const noexcept {
    return uplo == Uplo::Upper ? std::min(r1, diag ? j + 1 : j) : r1;
  }
};

// Shortest k block whose tiles prefetch the next tile's C (packed_core).
constexpr index_t kPrefetchMinK = 32;

// One call's tile functions, resolved once from the per-ISA tables; a shape
// no TU compiled runs the runtime-shaped generic tile and packers, which
// share the scalar tile's accumulation order.
template <typename T>
class Kernels {
 public:
  Kernels(int mr, int nr) noexcept
      : fn_(detail::find_kernels<T>(active_isa(), mr, nr)), mr_(mr), nr_(nr) {}

  void pack_a(ConstMatrixView<T> a, Trans trans, index_t i0, index_t p0, index_t mc, index_t kc,
              T* dst) const {
    if (fn_.pack_a) return fn_.pack_a(a, trans, i0, p0, mc, kc, dst);
    for (index_t ip = 0; ip < mc; ip += mr_)
      detail::pack_a_sliver<T, 1>(a, trans, i0 + ip, p0, std::min<index_t>(mr_, mc - ip), kc,
                                  mr_, dst + (ip / mr_) * (mr_ * kc));
  }
  void pack_b(ConstMatrixView<T> b, Trans trans, index_t p0, index_t j0, index_t kc, index_t nc,
              T* dst) const {
    if (fn_.pack_b) return fn_.pack_b(b, trans, p0, j0, kc, nc, dst);
    for (index_t jp = 0; jp < nc; jp += nr_)
      detail::pack_b_sliver<T, 1>(b, trans, p0, j0 + jp, kc, std::min<index_t>(nr_, nc - jp),
                                  nr_, dst + (jp / nr_) * (nr_ * kc));
  }
  void tile(index_t kc, const T* ap, const T* bp, T* acc) const {
    if (fn_.tile) return fn_.tile(kc, ap, bp, acc);
    detail::tile_generic<T>(kc, ap, bp, acc, mr_, nr_);
  }
  /// Whether the tile has an updating form (the vector tiles do).
  [[nodiscard]] bool updates() const noexcept { return fn_.update != nullptr; }
  void update(index_t kc, const T* ap, const T* bp, T alpha, T* c, index_t ldc) const {
    fn_.update(kc, ap, bp, alpha, c, ldc);
  }

 private:
  detail::TileKernels<T> fn_;
  int mr_, nr_;
};

// C = alpha·op(A)·op(B) + beta·C on `region` of C. The register tile grid is
// anchored at C(0, 0) (the balanced m/n chunks start on MR/NR multiples), so
// an element's tile, its packed slivers and its k-block order do not depend
// on which other tiles of the grid run: a region's bits are gemm's bits.
template <typename T, typename Region>
void packed_core(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a,
                 ConstMatrixView<T> b, T beta, MatrixView<T> c, const KernelShape& shape,
                 const Region& region) {
  require(shape.mr >= 1 && shape.mr <= kMaxMR && shape.nr >= 1 && shape.nr <= kMaxNR &&
              shape.kc >= 1 && shape.mc >= shape.mr && shape.nc >= shape.nr,
          "gemm_blocked_shaped: shape out of bounds");
  const int MR = shape.mr;
  const int NR = shape.nr;
  const index_t KC = shape.kc;
  const index_t MC = shape.mc;
  const index_t NC = shape.nc;

  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = trans_a == Trans::NoTrans ? a.cols() : a.rows();

  if (m == 0 || n == 0) return;

  // One beta pass up front; the k-blocked accumulation below then always
  // adds alpha · A_p · B_p in k-block order (deterministic for any caller).
  if (beta != T(1)) {
    for (index_t j = 0; j < n; ++j) {
      T* VBATCH_RESTRICT ccol = &c(0, j);
      const index_t hi = region.hi(j, m, true);
      for (index_t i = region.lo(j, 0, true); i < hi; ++i)
        ccol[i] = beta == T(0) ? T(0) : beta * ccol[i];
    }
  }
  if (k == 0 || alpha == T(0)) return;

  const Kernels<T> kernels(MR, NR);
  // Whole vector tiles with alpha = ±1 update C in registers: c + alpha·Σ is
  // then c ± Σ whatever the tile's TU contracts. Every other tile takes the
  // acc path, whose write-back rounds alpha·Σ and the sum separately.
  const bool in_registers = kernels.updates() && (alpha == T(1) || alpha == T(-1));

  auto& abuf = pack_buffer_a<T>();
  auto& bbuf = pack_buffer_b<T>();
  const std::size_t a_need = static_cast<std::size_t>((MC + MR - 1) / MR * MR * KC);
  const std::size_t b_need = static_cast<std::size_t>((NC + NR - 1) / NR * NR * KC);
  if (abuf.size() < a_need) abuf.resize(a_need);
  if (bbuf.size() < b_need) bbuf.resize(b_need);

  alignas(64) T acc[kMaxMR * kMaxNR];

  const bool diag = !region.strict;
  const BalancedSplit nsplit(n, NC, NR);
  const BalancedSplit msplit(m, MC, MR);
  for (index_t jb = 0; jb < nsplit.count(); ++jb) {
    const index_t jj = nsplit.begin(jb);
    const index_t nc = nsplit.length(jb);
    for (index_t pp = 0; pp < k; pp += KC) {
      const index_t kc = std::min(KC, k - pp);
      kernels.pack_b(b, trans_b, pp, jj, kc, nc, bbuf.data());
      for (index_t ib = 0; ib < msplit.count(); ++ib) {
        const index_t ii = msplit.begin(ib);
        const index_t mc = msplit.length(ib);
        if (!region.meets(ii, ii + mc, jj, jj + nc)) continue;
        kernels.pack_a(a, trans_a, ii, pp, mc, kc, abuf.data());
        for (index_t jr = 0; jr < nc; jr += NR) {
          const index_t nr = std::min<index_t>(NR, nc - jr);
          const T* bp = bbuf.data() + (jr / NR) * (NR * kc);
          for (index_t ir = 0; ir < mc; ir += MR) {
            const index_t mr = std::min<index_t>(MR, mc - ir);
            const index_t r0 = ii + ir;
            if (!region.meets(r0, r0 + mr, jj + jr, jj + jr + nr)) continue;
            const T* ap = abuf.data() + (ir / MR) * (MR * kc);
            // Fetch the next tile's C lines while this tile computes. The
            // separated path's trailing matrices are far larger than the
            // caches, so their C is cold, and its column runs are too short
            // for the hardware prefetcher (about 15% of the in-place syrk's
            // time on an AVX2 Xeon). A tile shorter than kPrefetchMinK steps
            // hides too little behind its compute, and such short products
            // come from small, cached matrices (the fused step's updates).
            if (kc >= kPrefetchMinK && ir + MR < mc) {
              const index_t next_mr = std::min<index_t>(MR, mc - ir - MR);
              for (index_t j = 0; j < nr; ++j) {
                const T* next = &c(r0 + MR, jj + jr + j);
                __builtin_prefetch(next, 1);
                __builtin_prefetch(next + next_mr - 1, 1);
              }
            }
            const bool whole = region.covers(r0, r0 + mr, jj + jr, jj + jr + nr);
            if (whole && in_registers && mr == MR && nr == NR) {
              kernels.update(kc, ap, bp, alpha, &c(r0, jj + jr), c.ld());
              continue;
            }
            kernels.tile(kc, ap, bp, acc);
            for (index_t j = 0; j < nr; ++j) {
              const index_t cj = jj + jr + j;
              T* VBATCH_RESTRICT ccol = &c(r0, cj);
              const T* VBATCH_RESTRICT av = acc + j * MR;
              if (whole) {
                for (index_t i = 0; i < mr; ++i) ccol[i] += alpha * av[i];
              } else {
                const index_t hi = region.hi(cj, r0 + mr, diag) - r0;
                for (index_t i = region.lo(cj, r0, diag) - r0; i < hi; ++i)
                  ccol[i] += alpha * av[i];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void gemm_blocked_shaped(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a,
                         ConstMatrixView<T> b, T beta, MatrixView<T> c, const KernelShape& shape) {
  packed_core(trans_a, trans_b, alpha, a, b, beta, c, shape, WholeC{});
}

template <typename T>
void gemm_blocked(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  gemm_blocked_shaped<T>(trans_a, trans_b, alpha, a, b, beta, c, shape_of<T>(active_profile()));
}

template <typename T>
void syrk_blocked(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, T beta,
                  MatrixView<T> c) {
  const Trans ta = trans == Trans::NoTrans ? Trans::NoTrans : Trans::Trans;
  const Trans tb = trans == Trans::NoTrans ? Trans::Trans : Trans::NoTrans;
  packed_core(ta, tb, alpha, a, a, beta, c, shape_of<T>(active_profile()),
              Triangle{uplo, is_complex_v<T>});
  if constexpr (is_complex_v<T>) {
    const index_t k = trans == Trans::NoTrans ? a.cols() : a.rows();
    if (k == 0 || alpha == T(0)) return;
    for (index_t i = 0; i < c.rows(); ++i)
      c(i, i) = alpha * T(herk_diag_sum(trans, a, i)) + c(i, i);
  }
}

#define VBATCH_INSTANTIATE_PACKED(T)                                                    \
  template void gemm_blocked_shaped<T>(Trans, Trans, T, ConstMatrixView<T>,             \
                                       ConstMatrixView<T>, T, MatrixView<T>,            \
                                       const KernelShape&);                             \
  template void gemm_blocked<T>(Trans, Trans, T, ConstMatrixView<T>, ConstMatrixView<T>, T, \
                                MatrixView<T>);                                         \
  template void syrk_blocked<T>(Uplo, Trans, T, ConstMatrixView<T>, T, MatrixView<T>)

VBATCH_INSTANTIATE_PACKED(float);
VBATCH_INSTANTIATE_PACKED(double);
VBATCH_INSTANTIATE_PACKED(std::complex<float>);
VBATCH_INSTANTIATE_PACKED(std::complex<double>);

#undef VBATCH_INSTANTIATE_PACKED

}  // namespace vbatch::blas::micro
