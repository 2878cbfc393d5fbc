#include <algorithm>
#include <cmath>
#include <utility>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/isa.hpp"
#include "vbatch/blas/potf2_lanes.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::blas {

namespace detail {
#if !defined(VBATCH_HAVE_AVX2_TU)
LaneKernels lane_kernels_avx2() noexcept { return {}; }
#endif
#if !defined(VBATCH_HAVE_AVX512_TU)
LaneKernels lane_kernels_avx512() noexcept { return {}; }
#endif

LaneKernels active_lane_kernels() noexcept {
  switch (micro::active_isa()) {
    case micro::Isa::Avx512: return lane_kernels_avx512();
    case micro::Isa::Avx2: return lane_kernels_avx2();
    case micro::Isa::Sse2:
    case micro::Isa::Neon: return lane_kernels_v128();
    case micro::Isa::Scalar: break;
  }
  return {};
}
}  // namespace detail

namespace {

// The active ISA's interleaved potf2 for T and its lane count; {nullptr, 1}
// for complex T, Isa::Scalar, or an ISA whose TU was not compiled.
template <typename T>
std::pair<detail::Potf2LanesFn<T>, int> lanes_kernel() noexcept {
  if constexpr (is_complex_v<T>) {
    return {nullptr, 1};
  } else {
    const detail::LaneKernels k = detail::active_lane_kernels();
    if (k.vector_bytes == 0) return {nullptr, 1};
    return {k.of<T>().potf2, k.vector_bytes / static_cast<int>(sizeof(T))};
  }
}

// Whether one lane group of width w beats looping potf2 over the panels of
// `orders` (at most w of them). A panel of order n costs the scalar loop
// about c(n) = n³ + 96n + 192 (the cubic work, a sqrt and a divide per
// column, a call), and a group whose largest order is N costs the lanes
// about 10w/(N + 10) panels of order N: lanes pay once the panels' scalar
// cost reaches that. Fitted to bench/wallclock_blas's potf2 group series
// (docs/blas.md, "Batch-interleaved potf2").
bool lanes_pay(int w, std::span<const index_t> orders) {
  auto cost = [](index_t n) { return n * n * n + 96 * n + 192; };
  index_t top = 0, sum = 0;
  for (const index_t n : orders) {
    top = std::max(top, n);
    sum += cost(n);
  }
  return sum * (top + 10) >= 10 * w * cost(top);
}

}  // namespace

// Unblocked Cholesky; for complex scalars this is the Hermitian xPOTF2
// (A = L·Lᴴ / UᴴU): the pivot is the real part of the diagonal and the
// column recurrences conjugate the already-factored rows.
template <typename T>
int potf2(Uplo uplo, MatrixView<T> a) {
  const index_t n = a.rows();
  require(a.cols() == n, "potf2: A must be square");
  using R = real_t<T>;

  if (uplo == Uplo::Lower) {
    for (index_t j = 0; j < n; ++j) {
      R ajj = real_val(a(j, j));
      for (index_t l = 0; l < j; ++l) ajj -= real_val(a(j, l) * conj_val(a(j, l)));
      if (!(ajj > R(0))) {
        a(j, j) = T(ajj);  // LAPACK leaves the offending value in place
        return static_cast<int>(j) + 1;
      }
      ajj = std::sqrt(ajj);
      a(j, j) = T(ajj);
      const R inv = R(1) / ajj;
      for (index_t i = j + 1; i < n; ++i) {
        T sum = a(i, j);
        for (index_t l = 0; l < j; ++l) sum -= a(i, l) * conj_val(a(j, l));
        a(i, j) = sum * inv;
      }
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      R ajj = real_val(a(j, j));
      for (index_t l = 0; l < j; ++l) ajj -= real_val(conj_val(a(l, j)) * a(l, j));
      if (!(ajj > R(0))) {
        a(j, j) = T(ajj);
        return static_cast<int>(j) + 1;
      }
      ajj = std::sqrt(ajj);
      a(j, j) = T(ajj);
      const R inv = R(1) / ajj;
      for (index_t i = j + 1; i < n; ++i) {
        T sum = a(j, i);
        for (index_t l = 0; l < j; ++l) sum -= conj_val(a(l, j)) * a(l, i);
        a(j, i) = sum * inv;
      }
    }
  }
  return 0;
}

template <typename T>
int potf2_lanes() noexcept {
  return lanes_kernel<T>().second;
}

template <typename T>
void potf2_batch(Uplo uplo, std::span<const MatrixView<T>> a, std::span<int> info) {
  require(info.size() == a.size(), "potf2_batch: one info slot per panel");
  const auto [kernel, w] = lanes_kernel<T>();
  const auto width = static_cast<std::size_t>(w);
  for (std::size_t p = 0; p < a.size(); p += width) {
    const std::size_t count = std::min(width, a.size() - p);
    // Lanes past `count` hold no panel (order 0).
    index_t n[kMaxPotf2Lanes];
    T* ptrs[kMaxPotf2Lanes];
    index_t ld[kMaxPotf2Lanes];
    for (std::size_t l = 0; l < width; ++l) {
      const bool panel = l < count;
      if (panel) require(a[p + l].cols() == a[p + l].rows(), "potf2_batch: panels must be square");
      n[l] = panel ? a[p + l].rows() : 0;
      ptrs[l] = panel ? a[p + l].data() : nullptr;
      ld[l] = panel ? a[p + l].ld() : 1;
    }
    if (kernel == nullptr || !lanes_pay(w, {n, count})) {
      for (std::size_t l = 0; l < count; ++l) info[p + l] = potf2(uplo, a[p + l]);
      continue;
    }
    int got[kMaxPotf2Lanes];
    kernel(uplo == Uplo::Upper, n, ptrs, ld, got);
    std::copy_n(got, count, info.begin() + static_cast<std::ptrdiff_t>(p));
  }
}

// Recursive Cholesky: split the order in two at a multiple of 16, factor
// the leading block, solve the off-diagonal block against it (trsm), update
// the trailing block (syrk) and factor that. Every update has the rank of
// the leading block, not one fixed panel width, so the operands stream
// through the cache far fewer times than in a blocked loop. Leaves of
// kPotrfLeaf columns or fewer run potf2. The blocks LAPACK leaves
// unreferenced are never read.
template <typename T>
int potrf(Uplo uplo, MatrixView<T> a) {
  const index_t n = a.rows();
  require(a.cols() == n, "potrf: A must be square");
  if (n <= kPotrfLeaf) return potf2(uplo, a);

  const index_t n1 = std::max<index_t>(16, n / 32 * 16);
  const index_t n2 = n - n1;
  const int info = potrf<T>(uplo, a.block(0, 0, n1, n1));
  if (info != 0) return info;
  if (uplo == Uplo::Lower) {
    trsm<T>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, T(1), a.block(0, 0, n1, n1),
            a.block(n1, 0, n2, n1));
    syrk<T>(Uplo::Lower, Trans::NoTrans, T(-1), a.block(n1, 0, n2, n1), T(1),
            a.block(n1, n1, n2, n2));
  } else {
    trsm<T>(Side::Left, Uplo::Upper, Trans::Trans, Diag::NonUnit, T(1), a.block(0, 0, n1, n1),
            a.block(0, n1, n1, n2));
    syrk<T>(Uplo::Upper, Trans::Trans, T(-1), a.block(0, n1, n1, n2), T(1),
            a.block(n1, n1, n2, n2));
  }
  const int trailing = potrf<T>(uplo, a.block(n1, n1, n2, n2));
  return trailing != 0 ? static_cast<int>(n1) + trailing : 0;
}

template <typename T>
void potrs(Uplo uplo, ConstMatrixView<T> a, MatrixView<T> b) {
  require(a.rows() == a.cols(), "potrs: A must be square");
  require(a.rows() == b.rows(), "potrs: dimension mismatch");
  if (uplo == Uplo::Lower) {
    trsm<T>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, T(1), a, b);
    trsm<T>(Side::Left, Uplo::Lower, Trans::Trans, Diag::NonUnit, T(1), a, b);
  } else {
    trsm<T>(Side::Left, Uplo::Upper, Trans::Trans, Diag::NonUnit, T(1), a, b);
    trsm<T>(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, T(1), a, b);
  }
}

template int potf2<float>(Uplo, MatrixView<float>);
template int potf2<double>(Uplo, MatrixView<double>);
template int potf2_lanes<float>() noexcept;
template int potf2_lanes<double>() noexcept;
template int potf2_lanes<std::complex<float>>() noexcept;
template int potf2_lanes<std::complex<double>>() noexcept;
template void potf2_batch<float>(Uplo, std::span<const MatrixView<float>>, std::span<int>);
template void potf2_batch<double>(Uplo, std::span<const MatrixView<double>>, std::span<int>);
template void potf2_batch<std::complex<float>>(Uplo,
                                               std::span<const MatrixView<std::complex<float>>>,
                                               std::span<int>);
template void potf2_batch<std::complex<double>>(Uplo,
                                                std::span<const MatrixView<std::complex<double>>>,
                                                std::span<int>);
template int potrf<float>(Uplo, MatrixView<float>);
template int potrf<double>(Uplo, MatrixView<double>);
template void potrs<float>(Uplo, ConstMatrixView<float>, MatrixView<float>);
template void potrs<double>(Uplo, ConstMatrixView<double>, MatrixView<double>);
template int potf2<std::complex<float>>(Uplo, MatrixView<std::complex<float>>);
template int potf2<std::complex<double>>(Uplo, MatrixView<std::complex<double>>);
template int potrf<std::complex<float>>(Uplo, MatrixView<std::complex<float>>);
template int potrf<std::complex<double>>(Uplo, MatrixView<std::complex<double>>);
template void potrs<std::complex<float>>(Uplo, ConstMatrixView<std::complex<float>>,
                                         MatrixView<std::complex<float>>);
template void potrs<std::complex<double>>(Uplo, ConstMatrixView<std::complex<double>>,
                                          MatrixView<std::complex<double>>);

}  // namespace vbatch::blas
