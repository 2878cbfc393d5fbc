// Conformance suite for the blocked micro-kernel engine (docs/blas.md):
// every blocked path (gemm for all four trans combinations, syrk/herk,
// trsm, trmm) is compared against the *_ref reference loops across all four
// precisions, all uplo/side/diag combinations, and tail sizes that are not
// multiples of the MR/NR/KC tiling parameters — including 0 and 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/blas/microkernel_tile.hpp"
#include "vbatch/blas/potf2_lanes.hpp"
#include "vbatch/blas/tuning.hpp"
#include "vbatch/kernels/fused_step_math.hpp"
#include "vbatch/util/rng.hpp"

namespace {

using namespace vbatch;
using blas::micro::Dispatch;
using blas::micro::DispatchGuard;
using blas::micro::Isa;
using blas::micro::IsaGuard;
using blas::micro::isa_supported;
using blas::micro::to_string;

template <typename T>
T make_scalar(double re, double im) {
  if constexpr (is_complex_v<T>) {
    return T(static_cast<real_t<T>>(re), static_cast<real_t<T>>(im));
  } else {
    return static_cast<T>(re);
  }
}

template <typename T>
double tol_for(index_t k) {
  const double eps = static_cast<double>(std::numeric_limits<real_t<T>>::epsilon());
  return 64.0 * eps * static_cast<double>(std::max<index_t>(k, 1));
}

template <typename T>
double max_rel_diff(ConstMatrixView<T> x, ConstMatrixView<T> y) {
  double diff = 0.0, scale = 1.0;
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i) {
      diff = std::max(diff, static_cast<double>(std::abs(x(i, j) - y(i, j))));
      scale = std::max(scale, static_cast<double>(std::abs(y(i, j))));
    }
  return diff / scale;
}

template <typename T>
std::vector<T> random_buffer(Rng& rng, index_t rows, index_t cols, index_t ld) {
  std::vector<T> buf(static_cast<std::size_t>(ld * std::max<index_t>(cols, 1)) + 1);
  if (rows > 0 && cols > 0) fill_general(rng, buf.data(), rows, cols, ld);
  return buf;
}

template <typename T>
class MicrokernelTest : public ::testing::Test {};

using Precisions =
    ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(MicrokernelTest, Precisions);

// ---------------------------------------------------------------------------
// GEMM: blocked engine vs gemm_ref, all trans combos, tail sizes.
// ---------------------------------------------------------------------------

TYPED_TEST(MicrokernelTest, GemmMatchesRefAcrossShapesAndTrans) {
  using T = TypeParam;
  const index_t dims[] = {0, 1, 2, 3, 5, 7, 9, 17, 33};
  const T alpha = make_scalar<T>(1.3, -0.4);
  const T beta = make_scalar<T>(-0.7, 0.2);
  Rng rng(11);
  for (Trans ta : {Trans::NoTrans, Trans::Trans})
    for (Trans tb : {Trans::NoTrans, Trans::Trans})
      for (index_t m : dims)
        for (index_t n : dims)
          for (index_t k : dims) {
            const index_t ar = ta == Trans::NoTrans ? m : k;
            const index_t ac = ta == Trans::NoTrans ? k : m;
            const index_t br = tb == Trans::NoTrans ? k : n;
            const index_t bc = tb == Trans::NoTrans ? n : k;
            const index_t lda = ar + 3, ldb = br + 1, ldc = m + 2;
            auto abuf = random_buffer<T>(rng, ar, ac, lda);
            auto bbuf = random_buffer<T>(rng, br, bc, ldb);
            auto cblk = random_buffer<T>(rng, m, n, ldc);
            auto cref = cblk;
            ConstMatrixView<T> a(abuf.data(), ar, ac, lda);
            ConstMatrixView<T> b(bbuf.data(), br, bc, ldb);
            MatrixView<T> c1(cblk.data(), m, n, ldc);
            MatrixView<T> c2(cref.data(), m, n, ldc);
            blas::micro::gemm_blocked<T>(ta, tb, alpha, a, b, beta, c1);
            blas::gemm_ref<T>(ta, tb, alpha, a, b, beta, c2);
            ASSERT_LT(max_rel_diff<T>(c1, c2), tol_for<T>(k))
                << "m=" << m << " n=" << n << " k=" << k << " ta=" << to_string(ta)
                << " tb=" << to_string(tb);
          }
}

TYPED_TEST(MicrokernelTest, GemmKcAndCacheBlockBoundaries) {
  using T = TypeParam;
  const auto scalar = blas::micro::TuningProfile::defaults(Isa::Scalar);
  const index_t KC = blas::micro::shape_of<T>(scalar).kc;
  const index_t MC = blas::micro::shape_of<T>(scalar).mc;
  const index_t NC = blas::micro::shape_of<T>(scalar).nc;
  Rng rng(13);
  const T alpha = make_scalar<T>(0.9, 0.3);
  // k straddling the KC panel depth exercises multi-pass accumulation into
  // C; m/n straddling MC/NC exercise the outer cache blocking.
  const index_t shapes[][3] = {{13, 9, KC - 1},  {13, 9, KC},     {13, 9, KC + 1},
                               {MC + 1, 9, 40},  {9, NC + 1, 40}, {MC + 1, NC + 1, KC + 1}};
  for (const auto& s : shapes) {
    const index_t m = s[0], n = s[1], k = s[2];
    auto abuf = random_buffer<T>(rng, m, k, m);
    auto bbuf = random_buffer<T>(rng, k, n, k);
    auto cblk = random_buffer<T>(rng, m, n, m);
    auto cref = cblk;
    ConstMatrixView<T> a(abuf.data(), m, k, m);
    ConstMatrixView<T> b(bbuf.data(), k, n, k);
    MatrixView<T> c1(cblk.data(), m, n, m);
    MatrixView<T> c2(cref.data(), m, n, m);
    blas::micro::gemm_blocked<T>(Trans::NoTrans, Trans::NoTrans, alpha, a, b, T(1), c1);
    blas::gemm_ref<T>(Trans::NoTrans, Trans::NoTrans, alpha, a, b, T(1), c2);
    ASSERT_LT(max_rel_diff<T>(c1, c2), tol_for<T>(k)) << "m=" << m << " n=" << n << " k=" << k;
  }
}

TYPED_TEST(MicrokernelTest, GemmBlockedIsDeterministic) {
  using T = TypeParam;
  Rng rng(17);
  const index_t m = 70, n = 50, k = 90;
  auto abuf = random_buffer<T>(rng, m, k, m);
  auto bbuf = random_buffer<T>(rng, n, k, n);  // stored n×k, used as Bᵀ (k×n)
  auto c1 = random_buffer<T>(rng, m, n, m);
  auto c2 = c1;
  ConstMatrixView<T> a(abuf.data(), m, k, m);
  ConstMatrixView<T> b(bbuf.data(), n, k, n);
  MatrixView<T> v1(c1.data(), m, n, m);
  MatrixView<T> v2(c2.data(), m, n, m);
  blas::micro::gemm_blocked<T>(Trans::NoTrans, Trans::Trans, make_scalar<T>(1.1, 0.2), a, b,
                               make_scalar<T>(0.4, -0.1), v1);
  blas::micro::gemm_blocked<T>(Trans::NoTrans, Trans::Trans, make_scalar<T>(1.1, 0.2), a, b,
                               make_scalar<T>(0.4, -0.1), v2);
  ASSERT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(T)), 0);
}

// Every ISA the host can execute must agree with the reference loops; the
// dispatcher's job is to change speed, never answers. Exercises all four
// trans combos at sizes that straddle every compiled tile width (the widest
// is AVX-512 float MR=48) plus the deeper-than-KC accumulation path.
TYPED_TEST(MicrokernelTest, GemmMatchesRefUnderEverySupportedIsa) {
  using T = TypeParam;
  const T alpha = make_scalar<T>(1.2, 0.5);
  const T beta = make_scalar<T>(0.6, -0.3);
  for (Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512}) {
    if (!isa_supported(isa)) continue;
    IsaGuard guard(isa);
    Rng rng(19);
    const index_t shapes[][3] = {{1, 1, 1}, {7, 5, 9}, {49, 9, 33}, {97, 23, 300}};
    for (Trans ta : {Trans::NoTrans, Trans::Trans})
      for (Trans tb : {Trans::NoTrans, Trans::Trans})
        for (const auto& s : shapes) {
          const index_t m = s[0], n = s[1], k = s[2];
          const index_t ar = ta == Trans::NoTrans ? m : k;
          const index_t ac = ta == Trans::NoTrans ? k : m;
          const index_t br = tb == Trans::NoTrans ? k : n;
          const index_t bc = tb == Trans::NoTrans ? n : k;
          auto abuf = random_buffer<T>(rng, ar, ac, ar);
          auto bbuf = random_buffer<T>(rng, br, bc, br);
          auto cblk = random_buffer<T>(rng, m, n, m);
          auto cref = cblk;
          ConstMatrixView<T> a(abuf.data(), ar, ac, ar);
          ConstMatrixView<T> b(bbuf.data(), br, bc, br);
          MatrixView<T> c1(cblk.data(), m, n, m);
          MatrixView<T> c2(cref.data(), m, n, m);
          blas::micro::gemm_blocked<T>(ta, tb, alpha, a, b, beta, c1);
          blas::gemm_ref<T>(ta, tb, alpha, a, b, beta, c2);
          ASSERT_LT(max_rel_diff<T>(c1, c2), tol_for<T>(k))
              << to_string(isa) << " m=" << m << " n=" << n << " k=" << k;
        }
  }
}

// ---------------------------------------------------------------------------
// SYRK / HERK: blocked decomposition vs syrk_ref, both triangles untouched
// outside the requested one.
// ---------------------------------------------------------------------------

TYPED_TEST(MicrokernelTest, SyrkMatchesRefAndPreservesOtherTriangle) {
  using T = TypeParam;
  // Tail sizes around the register tiles, plus the separated path's
  // diagonal-block shapes (k = the panel width 64).
  std::vector<std::pair<index_t, index_t>> shapes;
  for (index_t n : {0, 1, 5, 31, 32, 33, 70})
    for (index_t k : {0, 1, 8, 40}) shapes.emplace_back(n, k);
  for (index_t n : {8, 16, 32, 64}) shapes.emplace_back(n, 64);
  Rng rng(19);
  // herk semantics: real alpha/beta keep C Hermitian.
  const T alpha = make_scalar<T>(-1.1, 0.0);
  const T beta = make_scalar<T>(0.5, 0.0);
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
    for (Trans trans : {Trans::NoTrans, Trans::Trans})
      for (const auto& [n, k] : shapes) {
        const index_t ar = trans == Trans::NoTrans ? n : k;
        const index_t ac = trans == Trans::NoTrans ? k : n;
        const index_t lda = ar + 2;
        auto abuf = random_buffer<T>(rng, ar, ac, lda);
        auto corig = random_buffer<T>(rng, n, n, n);
        // A Hermitian C has a real diagonal, which herk must keep exactly real.
        for (index_t d = 0; d < n; ++d) {
          auto& cdd = corig[static_cast<std::size_t>(d + d * n)];
          cdd = T(real_val(cdd));
        }
        ConstMatrixView<T> a(abuf.data(), ar, ac, lda);
        auto cref = corig;
        MatrixView<T> c2(cref.data(), n, n, n);
        blas::syrk_ref<T>(uplo, trans, alpha, a, beta, c2);
        for (Dispatch d : {Dispatch::ForceBlocked, Dispatch::Auto}) {
          auto cblk = corig;
          MatrixView<T> c1(cblk.data(), n, n, n);
          {
            DispatchGuard guard(d);
            blas::syrk<T>(uplo, trans, alpha, a, beta, c1);
          }
          const std::string where = "n=" + std::to_string(n) + " k=" + std::to_string(k) + " " +
                                    std::string(vbatch::to_string(uplo)) + " " +
                                    std::string(vbatch::to_string(trans)) +
                                    (d == Dispatch::Auto ? " Auto" : " ForceBlocked");
          ASSERT_LT(max_rel_diff<T>(c1, c2), tol_for<T>(k)) << where;
          for (index_t j = 0; j < n; ++j)
            for (index_t i = 0; i < n; ++i) {
              const bool in_tri = uplo == Uplo::Lower ? i >= j : i <= j;
              if (!in_tri) {
                ASSERT_EQ(c1(i, j), corig[static_cast<std::size_t>(i + j * n)])
                    << "off-triangle touched at " << i << "," << j << ", " << where;
              }
            }
          if constexpr (is_complex_v<T>) {
            for (index_t i = 0; i < n; ++i)
              ASSERT_EQ(c1(i, i).imag(), 0) << "diagonal " << i << ", " << where;
          }
        }
      }
}

// The pack-once syrk is gemm_blocked(op(A), op(A)ᴴ) restricted to the
// triangle: memcmp-equal there (the complex diagonal aside, which is herk's
// real sum), with the other triangle and the padding rows of C untouched.
// Sizes straddle the tile (MR, NR), KC and the NC column chunk of the scalar
// profile and of the host's default one.
TYPED_TEST(MicrokernelTest, SyrkBlockedIsGemmBlockedOnTheTriangle) {
  using T = TypeParam;
  const T alpha = make_scalar<T>(-1.0, 0.0);
  const T beta = make_scalar<T>(0.75, 0.0);
  std::vector<Isa> isas{Isa::Scalar};
  if (blas::micro::active_isa() != Isa::Scalar) isas.push_back(blas::micro::active_isa());
  for (Isa isa : isas) {
    IsaGuard guard(isa);
    const auto& shape = blas::micro::shape_of<T>(blas::micro::active_profile());
    const index_t MR = shape.mr, NR = shape.nr, KC = shape.kc;
    Rng rng(23);
    for (index_t n : {index_t{1}, MR - 1, MR, NR + 1, index_t{64}, index_t{65}, index_t{130},
                      index_t{449}})
      for (index_t k : {index_t{1}, index_t{8}, index_t{64}, KC, KC + 1}) {
        if (n < 1) continue;
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
          for (Trans trans : {Trans::NoTrans, Trans::Trans}) {
            const index_t ar = trans == Trans::NoTrans ? n : k;
            const index_t ac = trans == Trans::NoTrans ? k : n;
            const index_t ldc = n + 3;
            auto abuf = random_buffer<T>(rng, ar, ac, ar + 1);
            auto corig = random_buffer<T>(rng, ldc, n, ldc);
            // A Hermitian C: herk keeps its real diagonal exactly real.
            for (index_t d = 0; d < n; ++d)
              corig[static_cast<std::size_t>(d + d * ldc)] =
                  T(real_val(corig[static_cast<std::size_t>(d + d * ldc)]));
            ConstMatrixView<T> a(abuf.data(), ar, ac, ar + 1);
            auto csyrk = corig, cgemm = corig;
            blas::micro::syrk_blocked<T>(uplo, trans, alpha, a, beta,
                                         MatrixView<T>(csyrk.data(), n, n, ldc));
            blas::micro::gemm_blocked<T>(trans, trans == Trans::NoTrans ? Trans::Trans
                                                                        : Trans::NoTrans,
                                         alpha, a, a, beta,
                                         MatrixView<T>(cgemm.data(), n, n, ldc));
            const std::string where = std::string(to_string(isa)) + " n=" + std::to_string(n) +
                                      " k=" + std::to_string(k) + " " +
                                      std::string(vbatch::to_string(uplo)) + " " +
                                      std::string(vbatch::to_string(trans));
            for (index_t j = 0; j < n; ++j)
              for (index_t i = 0; i < ldc; ++i) {
                const std::size_t at = static_cast<std::size_t>(i + j * ldc);
                const bool in_tri = i < n && (uplo == Uplo::Lower ? i >= j : i <= j);
                const T& want = !in_tri ? corig[at] : cgemm[at];
                if (in_tri && i == j && is_complex_v<T>) {
                  ASSERT_EQ(std::imag(csyrk[at]), 0) << "diagonal " << i << ", " << where;
                  continue;
                }
                ASSERT_EQ(std::memcmp(&csyrk[at], &want, sizeof(T)), 0)
                    << (in_tri ? "triangle" : "outside") << " (" << i << "," << j << "), "
                    << where;
              }
          }
      }
  }
}

// The complex tile's split-arithmetic pass hands any tile holding a NaN back
// to the std::complex loop, whose C99 recovery makes (Inf, Inf)·(1, 0) an
// infinity, as gemm_ref does; the split pass alone would leave NaN.
template <typename T>
class MicrokernelComplexTest : public ::testing::Test {};
using ComplexPrecisions = ::testing::Types<std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(MicrokernelComplexTest, ComplexPrecisions);

TYPED_TEST(MicrokernelComplexTest, InfiniteProductsStayInfiniteOnEveryPath) {
  using T = TypeParam;
  const real_t<T> inf = std::numeric_limits<real_t<T>>::infinity();
  for (Dispatch d : {Dispatch::ForceRef, Dispatch::ForceBlocked}) {
    DispatchGuard guard(d);
    std::vector<T> abuf(64, make_scalar<T>(0.5, -0.25)), bbuf(64, make_scalar<T>(1.0, 0.0)),
        cbuf(64, T(0));
    abuf[0] = T(inf, inf);  // a(0, 0)
    ConstMatrixView<T> a(abuf.data(), 8, 8, 8);
    ConstMatrixView<T> b(bbuf.data(), 8, 8, 8);
    MatrixView<T> c(cbuf.data(), 8, 8, 8);
    blas::gemm<T>(Trans::NoTrans, Trans::NoTrans, T(1), a, b, T(0), c);
    for (index_t j = 0; j < 8; ++j) {
      EXPECT_TRUE(std::isinf(c(0, j).real()) && std::isinf(c(0, j).imag()))
          << "col " << j << (d == Dispatch::ForceRef ? " ref" : " blocked");
      EXPECT_EQ(c(1, j), make_scalar<T>(4.0, -2.0)) << "col " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// TRSM / TRMM: recursive blocked paths vs the reference loops for all 16
// side/uplo/trans/diag combinations, sizes above and below the recursion
// base and with degenerate right-hand sides.
// ---------------------------------------------------------------------------

TYPED_TEST(MicrokernelTest, TrsmMatchesRefAllCombos) {
  using T = TypeParam;
  const index_t shapes[][2] = {{1, 1}, {5, 3}, {33, 8}, {48, 48}, {67, 1}, {67, 33}, {96, 17}};
  Rng rng(23);
  const T alpha = make_scalar<T>(1.5, -0.2);
  for (Side side : {Side::Left, Side::Right})
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (Trans trans : {Trans::NoTrans, Trans::Trans})
        for (Diag diag : {Diag::NonUnit, Diag::Unit})
          for (const auto& s : shapes) {
            const index_t m = s[0], n = s[1];
            const index_t ka = side == Side::Left ? m : n;
            auto abuf = random_buffer<T>(rng, ka, ka, ka);
            MatrixView<T> av(abuf.data(), ka, ka, ka);
            for (index_t d = 0; d < ka; ++d)
              av(d, d) = make_scalar<T>(4.0 + static_cast<double>(d), 0.5);
            auto bblk = random_buffer<T>(rng, m, n, m);
            auto bref = bblk;
            auto bforce_ref = bblk;
            MatrixView<T> b1(bblk.data(), m, n, m);
            MatrixView<T> b2(bref.data(), m, n, m);
            {
              DispatchGuard guard(Dispatch::ForceBlocked);
              blas::trsm<T>(side, uplo, trans, diag, alpha, av, b1);
            }
            {
              DispatchGuard guard(Dispatch::ForceRef);
              blas::trsm<T>(side, uplo, trans, diag, alpha, av,
                            MatrixView<T>(bforce_ref.data(), m, n, m));
            }
            blas::trsm_ref<T>(side, uplo, trans, diag, alpha, av, b2);
            const std::string what = "m=" + std::to_string(m) + " n=" + std::to_string(n) + " " +
                                     std::string(to_string(side)) + " " +
                                     std::string(to_string(uplo)) + " " +
                                     std::string(to_string(trans)) + " " +
                                     std::string(to_string(diag));
            // Unblocked orders (the lane base case for real T) and ForceRef
            // reproduce trsm_ref bit for bit; the recursion's gemm updates
            // only agree within rounding.
            ASSERT_EQ(std::memcmp(bforce_ref.data(), bref.data(), bref.size() * sizeof(T)), 0)
                << what << " (ForceRef)";
            if (ka <= 32) {
              ASSERT_EQ(std::memcmp(bblk.data(), bref.data(), bref.size() * sizeof(T)), 0)
                  << what;
            } else {
              ASSERT_LT(max_rel_diff<T>(b1, b2), tol_for<T>(ka)) << what;
            }
          }
}

// ---------------------------------------------------------------------------
// trsm's lane base case (potf2_lanes.hpp) against trsm_ref: memcmp-equal
// over the whole B buffer, padding rows beyond m included, under every ISA
// the host supports. A profile whose crossover is out of reach keeps every
// order unblocked, so blas::trsm runs the lanes at orders above 32 as well.
// ---------------------------------------------------------------------------

template <typename T>
class TrsmLanes : public ::testing::Test {};
using RealPrecisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(TrsmLanes, RealPrecisions);

constexpr Side kSides[] = {Side::Left, Side::Right};
constexpr Uplo kUplos[] = {Uplo::Lower, Uplo::Upper};
constexpr Trans kTranses[] = {Trans::NoTrans, Trans::Trans};
constexpr Diag kDiags[] = {Diag::NonUnit, Diag::Unit};

// Pins `isa` with a profile that never blocks a trsm.
struct UnblockedTrsm {
  explicit UnblockedTrsm(Isa isa) : isa_guard(isa), profile_guard(never_blocked()) {}
  static blas::micro::TuningProfile never_blocked() {
    blas::micro::TuningProfile p = blas::micro::active_profile();
    for (auto& s : p.shapes) s.min_mnk = 1e12;
    return p;
  }
  IsaGuard isa_guard;
  blas::micro::ProfileGuard profile_guard;
};

// Solves the m×n B (leading dimension m + 3, the padding filled too) with
// blas::trsm and with trsm_ref; the two buffers must match byte for byte.
template <typename T>
::testing::AssertionResult lanes_match_ref(Side side, Uplo uplo, Trans trans, Diag diag,
                                           T alpha, ConstMatrixView<T> a,
                                           const std::vector<T>& b0, index_t m, index_t n) {
  auto got = b0, want = b0;
  const index_t ldb = m + 3;
  blas::trsm<T>(side, uplo, trans, diag, alpha, a, MatrixView<T>(got.data(), m, n, ldb));
  blas::trsm_ref<T>(side, uplo, trans, diag, alpha, a, MatrixView<T>(want.data(), m, n, ldb));
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(T)) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << to_string(side) << " " << to_string(uplo) << " " << to_string(trans) << " "
         << to_string(diag) << " m=" << m << " n=" << n;
}

template <typename T>
std::vector<T> lanes_b(Rng& rng, index_t m, index_t n) {
  std::vector<T> b(static_cast<std::size_t>((m + 3) * n));
  fill_general(rng, b.data(), m + 3, n, m + 3);
  return b;
}

// Every combination, orders 1…33 and 40, and free counts W − 1, W, W + 1
// and 15·W + 1 (the eight-vector block, each narrower one and the trsm_ref
// rest all run), alpha 1 and not.
TYPED_TEST(TrsmLanes, MatchTrsmRefAllCombosOrdersAndTails) {
  using T = TypeParam;
  for (Isa isa : {Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512}) {
    if (!isa_supported(isa)) continue;
    UnblockedTrsm pin(isa);
    const index_t w = blas::potf2_lanes<T>();  // the trsm lanes share potf2's width
    ASSERT_GT(w, 1) << to_string(isa);
    Rng rng(61);
    std::vector<index_t> orders;
    for (index_t k = 1; k <= 33; ++k) orders.push_back(k);
    orders.push_back(40);
    for (index_t ka : orders) {
      std::vector<T> abuf(static_cast<std::size_t>((ka + 2) * ka));
      fill_general(rng, abuf.data(), ka + 2, ka, ka + 2);
      for (index_t d = 0; d < ka; ++d)
        abuf[static_cast<std::size_t>(d * (ka + 3))] = T(2) + static_cast<T>(d % 5);
      ConstMatrixView<T> a(abuf.data(), ka, ka, ka + 2);
      for (index_t free : {w - 1, w, w + 1, 15 * w + 1})
        for (Side side : kSides) {
          const index_t m = side == Side::Left ? ka : free;
          const index_t n = side == Side::Left ? free : ka;
          const auto b = lanes_b<T>(rng, m, n);
          for (Uplo uplo : kUplos)
            for (Trans trans : kTranses)
              for (Diag diag : kDiags)
                for (T alpha : {T(1), T(-0.75)})
                  ASSERT_TRUE(lanes_match_ref<T>(side, uplo, trans, diag, alpha, a, b, m, n))
                      << to_string(isa) << " alpha=" << alpha;
        }
    }
  }
}

// The rest below a multiple of W: m mod W = 1…W−1 rows (Right) or n mod W
// columns (Left), alone and after whole vectors, solved by the lane kernel
// itself (its zero-padded tail, whatever trsm's tail rule picks) and by
// blas::trsm (the rule's choice), both memcmp-equal to trsm_ref over the
// whole buffer, padding rows included.
TYPED_TEST(TrsmLanes, TailsMatchTrsmRef) {
  using T = TypeParam;
  for (Isa isa : {Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512}) {
    if (!isa_supported(isa)) continue;
    UnblockedTrsm pin(isa);
    const blas::detail::LaneKernels kernels = blas::detail::active_lane_kernels();
    const index_t w = blas::potf2_lanes<T>();
    Rng rng(71);
    for (index_t ka : {1, 5, 16, 32}) {
      std::vector<T> abuf(static_cast<std::size_t>((ka + 2) * ka));
      fill_general(rng, abuf.data(), ka + 2, ka, ka + 2);
      for (index_t d = 0; d < ka; ++d)
        abuf[static_cast<std::size_t>(d * (ka + 3))] = T(2) + static_cast<T>(d % 5);
      ConstMatrixView<T> a(abuf.data(), ka, ka, ka + 2);
      for (index_t rest = 1; rest < w; ++rest)
        for (index_t free : {rest, w + rest, 8 * w + rest})
          for (Side side : kSides) {
            const index_t m = side == Side::Left ? ka : free;
            const index_t n = side == Side::Left ? free : ka;
            const auto b = lanes_b<T>(rng, m, n);
            for (Uplo uplo : kUplos)
              for (Trans trans : kTranses)
                for (Diag diag : kDiags) {
                  ASSERT_TRUE(lanes_match_ref<T>(side, uplo, trans, diag, T(1), a, b, m, n))
                      << to_string(isa) << " rest=" << rest;
                  auto got = b, want = b;
                  kernels.of<T>().trsm(side, uplo, trans, diag, m, n, a.data(), a.ld(),
                                       got.data(), m + 3);
                  blas::trsm_ref<T>(side, uplo, trans, diag, T(1), a,
                                    MatrixView<T>(want.data(), m, n, m + 3));
                  ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0)
                      << to_string(isa) << " lane kernel " << to_string(side) << " "
                      << to_string(uplo) << " " << to_string(trans) << " " << to_string(diag)
                      << " m=" << m << " n=" << n;
                }
          }
    }
  }
}

// Exact zeros in A (the Right side skips them, the Left side multiplies
// them), NaN and ±Inf in B, and a zero pivot.
TYPED_TEST(TrsmLanes, MatchTrsmRefOnZerosNonFiniteAndZeroPivot) {
  using T = TypeParam;
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  for (Isa isa : {Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512}) {
    if (!isa_supported(isa)) continue;
    UnblockedTrsm pin(isa);
    const index_t w = blas::potf2_lanes<T>();
    Rng rng(67);
    for (index_t ka : {7, 32}) {
      std::vector<T> abuf(static_cast<std::size_t>(ka * ka));
      fill_general(rng, abuf.data(), ka, ka, ka);
      for (std::size_t e = 0; e < abuf.size(); e += 3) abuf[e] = e % 2 ? T(0) : -T(0);
      for (index_t d = 0; d < ka; ++d) abuf[static_cast<std::size_t>(d * (ka + 1))] = T(3);
      abuf[static_cast<std::size_t>((ka / 2) * (ka + 1))] = T(0);  // zero pivot
      ConstMatrixView<T> a(abuf.data(), ka, ka, ka);
      for (Side side : kSides) {
        const index_t m = side == Side::Left ? ka : 15 * w + 1;
        const index_t n = side == Side::Left ? 15 * w + 1 : ka;
        auto b = lanes_b<T>(rng, m, n);
        for (std::size_t e = 0; e < b.size(); e += 11)
          b[e] = e % 3 == 0 ? nan : e % 3 == 1 ? inf : -inf;
        for (Uplo uplo : kUplos)
          for (Trans trans : kTranses)
            for (Diag diag : kDiags)
              ASSERT_TRUE(lanes_match_ref<T>(side, uplo, trans, diag, T(1), a, b, m, n))
                  << to_string(isa) << " ka=" << ka;
      }
    }
  }
}

TYPED_TEST(MicrokernelTest, TrmmMatchesRefAllCombos) {
  using T = TypeParam;
  const index_t shapes[][2] = {{1, 1}, {5, 3}, {33, 8}, {48, 48}, {67, 1}, {67, 33}, {96, 17}};
  Rng rng(29);
  const T alpha = make_scalar<T>(0.8, 0.3);
  for (Side side : {Side::Left, Side::Right})
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (Trans trans : {Trans::NoTrans, Trans::Trans})
        for (Diag diag : {Diag::NonUnit, Diag::Unit})
          for (const auto& s : shapes) {
            const index_t m = s[0], n = s[1];
            const index_t ka = side == Side::Left ? m : n;
            auto abuf = random_buffer<T>(rng, ka, ka, ka);
            auto bblk = random_buffer<T>(rng, m, n, m);
            auto bref = bblk;
            ConstMatrixView<T> av(abuf.data(), ka, ka, ka);
            MatrixView<T> b1(bblk.data(), m, n, m);
            MatrixView<T> b2(bref.data(), m, n, m);
            {
              DispatchGuard guard(Dispatch::ForceBlocked);
              blas::trmm<T>(side, uplo, trans, diag, alpha, av, b1);
            }
            blas::trmm_ref<T>(side, uplo, trans, diag, alpha, av, b2);
            ASSERT_LT(max_rel_diff<T>(b1, b2), tol_for<T>(ka))
                << "m=" << m << " n=" << n << " " << to_string(side) << " " << to_string(uplo)
                << " " << to_string(trans) << " " << to_string(diag);
          }
}

// ---------------------------------------------------------------------------
// alpha = 0 (BLAS rule): B becomes +0 and neither A nor B is read, on every
// dispatch path of both trsm and trmm — NaNs in A and B must not survive and
// negative entries must not leave -0.
// ---------------------------------------------------------------------------

template <typename T>
class TriangularAlphaZero : public ::testing::Test {};
TYPED_TEST_SUITE(TriangularAlphaZero, Precisions);

TYPED_TEST(TriangularAlphaZero, ZeroesBOnEveryPath) {
  using T = TypeParam;
  const T nan = make_scalar<T>(std::numeric_limits<double>::quiet_NaN(), 0.0);
  const index_t nrhs = 64;
  for (bool solve : {true, false})
    for (index_t ka : {8, 64})
      for (Side side : {Side::Left, Side::Right})
        for (Dispatch d : {Dispatch::Auto, Dispatch::ForceRef, Dispatch::ForceBlocked}) {
          const index_t m = side == Side::Left ? ka : nrhs;
          const index_t n = side == Side::Left ? nrhs : ka;
          std::vector<T> abuf(static_cast<std::size_t>(ka * ka), nan);
          std::vector<T> bbuf(static_cast<std::size_t>(m * n), make_scalar<T>(-1.5, -2.0));
          bbuf[1] = nan;
          ConstMatrixView<T> a(abuf.data(), ka, ka, ka);
          MatrixView<T> b(bbuf.data(), m, n, m);
          {
            DispatchGuard guard(d);
            if (solve) {
              blas::trsm<T>(side, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, T(0), a, b);
            } else {
              blas::trmm<T>(side, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, T(0), a, b);
            }
          }
          for (std::size_t k = 0; k < bbuf.size(); ++k) {
            const real_t<T> re = real_val(bbuf[k]);
            ASSERT_TRUE(re == 0 && !std::signbit(re) && bbuf[k] == T(0))
                << (solve ? "trsm" : "trmm") << " ka=" << ka << " " << to_string(side) << " "
                << (d == Dispatch::Auto ? "Auto" : d == Dispatch::ForceRef ? "ForceRef"
                                                                           : "ForceBlocked")
                << " entry " << k;
            if constexpr (is_complex_v<T>) {
              ASSERT_FALSE(std::signbit(bbuf[k].imag())) << "entry " << k;
            }
          }
        }
}

// syrk with alpha = 0 (or k = 0) is the beta pass alone: A is not read, so
// an Inf in A cannot turn 0·Inf into a NaN, and beta = 0 clears a NaN C.
// The other triangle stays untouched.
template <typename T>
class SyrkAlphaZero : public ::testing::Test {};
TYPED_TEST_SUITE(SyrkAlphaZero, Precisions);

TYPED_TEST(SyrkAlphaZero, RunsOnlyTheBetaPass) {
  using T = TypeParam;
  const T inf = make_scalar<T>(std::numeric_limits<double>::infinity(), 0.0);
  const T nan = make_scalar<T>(std::numeric_limits<double>::quiet_NaN(), 0.0);
  const index_t k = 5;
  for (index_t n : {3, 16})
    for (double beta_re : {0.0, 1.0, 0.5})
      for (bool zero_k : {false, true})
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
          for (Trans trans : {Trans::NoTrans, Trans::Trans})
            for (Dispatch d : {Dispatch::ForceRef, Dispatch::ForceBlocked}) {
              const T beta = make_scalar<T>(beta_re, 0.0);
              const T alpha = zero_k ? make_scalar<T>(-1.0, 0.0) : T(0);
              const index_t kk = zero_k ? 0 : k;
              const index_t ar = trans == Trans::NoTrans ? n : kk;
              const index_t ac = trans == Trans::NoTrans ? kk : n;
              std::vector<T> abuf(static_cast<std::size_t>(std::max<index_t>(ar * ac, 1)),
                                  make_scalar<T>(0.25, -0.5));
              abuf[0] = inf;
              std::vector<T> cbuf(static_cast<std::size_t>(n * n), make_scalar<T>(2.0, 0.0));
              if (beta_re == 0.0) std::fill(cbuf.begin(), cbuf.end(), nan);
              const auto corig = cbuf;
              {
                DispatchGuard guard(d);
                blas::syrk<T>(uplo, trans, alpha,
                              ConstMatrixView<T>(abuf.data(), ar, ac, std::max<index_t>(ar, 1)),
                              beta, MatrixView<T>(cbuf.data(), n, n, n));
              }
              for (index_t j = 0; j < n; ++j)
                for (index_t i = 0; i < n; ++i) {
                  const std::size_t at = static_cast<std::size_t>(i + j * n);
                  const bool in_tri = uplo == Uplo::Lower ? i >= j : i <= j;
                  const T want = !in_tri ? corig[at] : beta_re == 0.0 ? T(0) : beta * corig[at];
                  ASSERT_EQ(std::memcmp(&cbuf[at], &want, sizeof(T)), 0)
                      << "n=" << n << " beta=" << beta_re << (zero_k ? " k=0 " : " alpha=0 ")
                      << vbatch::to_string(uplo) << " " << vbatch::to_string(trans) << " "
                      << (d == Dispatch::ForceRef ? "ForceRef" : "ForceBlocked") << " at (" << i
                      << "," << j << ")";
                }
            }
}

// ---------------------------------------------------------------------------
// MicrokernelUpdate: a whole vector tile with alpha = ±1 updates C in
// registers (the tile's updating form); every other tile writes acc and the engine
// adds alpha·acc. Either way each element must be c + alpha·acc as the
// registered acc-writing tile and a per-element write-back compute it. The
// oracle packs op(A)/op(B) itself on the MR×NR grid anchored at C(0, 0),
// runs the registered tile (or the generic one) per KC block in order and
// adds alpha·acc element by element. Power-of-two alphas make alpha·acc
// exact, so the oracle holds under any contraction flags. A NaN injected
// into A or C is the hardware's default NaN (made at run time as ∞ − ∞),
// the pattern arithmetic produces, so no element depends on which of two
// NaN operands an add returns: IEEE 754 leaves that open, and the compiler
// may commute an add.
// ---------------------------------------------------------------------------

template <typename T>
class MicrokernelUpdate : public ::testing::Test {};
TYPED_TEST_SUITE(MicrokernelUpdate, Precisions);

/// op(X)(i, l) of a stored X; Trans conjugates a complex X.
template <typename T>
T op_at(ConstMatrixView<T> x, Trans t, index_t i, index_t l) {
  return t == Trans::NoTrans ? x(i, l) : conj_val(x(l, i));
}

/// C = alpha·op(A)·op(B) + beta·C, tile by tile. `region(i, j, diag)` says
/// whether element (i, j) is written; the beta pass takes the diagonal and
/// the tiles take it when `diag`.
template <typename T, typename Region>
void update_oracle(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
                   T beta, MatrixView<T> c, const blas::micro::KernelShape& s, bool diag,
                   Region region) {
  const index_t m = c.rows(), n = c.cols(), k = ta == Trans::NoTrans ? a.cols() : a.rows();
  const int MR = s.mr, NR = s.nr;
  if (beta != T(1))
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        if (region(i, j, true)) c(i, j) = beta == T(0) ? T(0) : beta * c(i, j);
  if (k == 0 || alpha == T(0)) return;
  const auto fn = blas::micro::detail::find_kernels<T>(blas::micro::active_isa(), MR, NR);
  std::vector<T> ap(static_cast<std::size_t>(MR * s.kc)), bp(static_cast<std::size_t>(NR * s.kc)),
      acc(static_cast<std::size_t>(MR * NR));
  for (index_t pp = 0; pp < k; pp += s.kc) {
    const index_t kc = std::min(s.kc, k - pp);
    for (index_t j0 = 0; j0 < n; j0 += NR)
      for (index_t i0 = 0; i0 < m; i0 += MR) {
        for (index_t l = 0; l < kc; ++l) {
          for (int r = 0; r < MR; ++r)
            ap[static_cast<std::size_t>(l * MR + r)] =
                i0 + r < m ? op_at(a, ta, i0 + r, pp + l) : T(0);
          for (int q = 0; q < NR; ++q)
            bp[static_cast<std::size_t>(l * NR + q)] =
                j0 + q < n ? op_at(b, tb, pp + l, j0 + q) : T(0);
        }
        if (fn.tile)
          fn.tile(kc, ap.data(), bp.data(), acc.data());
        else
          blas::micro::detail::generic_tile<T>(kc, ap.data(), bp.data(), acc.data(), MR, NR);
        for (int q = 0; q < NR && j0 + q < n; ++q)
          for (int r = 0; r < MR && i0 + r < m; ++r)
            if (region(i0 + r, j0 + q, diag))
              c(i0 + r, j0 + q) += alpha * acc[static_cast<std::size_t>(q * MR + r)];
      }
  }
}

/// A rows × cols operand with ld = rows + pad; the padding holds `sentinel`.
template <typename T>
std::vector<T> padded(Rng& rng, index_t rows, index_t cols, index_t ld, T sentinel) {
  std::vector<T> buf(static_cast<std::size_t>(ld * cols), sentinel);
  fill_general(rng, buf.data(), rows, cols, ld);
  return buf;
}

template <typename T>
std::string first_difference(const std::vector<T>& got, const std::vector<T>& want,
                             index_t ld) {
  for (std::size_t x = 0; x < got.size(); ++x)
    if (std::memcmp(&got[x], &want[x], sizeof(T)) != 0)
      return "first difference at (" + std::to_string(static_cast<index_t>(x) % ld) + "," +
             std::to_string(static_cast<index_t>(x) / ld) + ")";
  return "equal";
}

TYPED_TEST(MicrokernelUpdate, WholeAndPartialTilesMatchTheAccTileAndWriteBack) {
  using T = TypeParam;
  using R = real_t<T>;
  volatile R inf_v = std::numeric_limits<R>::infinity();
  const R dnan = inf_v - inf_v;  // the hardware's default NaN
  const R inf = inf_v;
  const double alphas[] = {1.0, -1.0, 0.5, -2.0};
  const double betas[] = {0.0, 1.0, -0.5};
  int counter = 0;
  for (Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512}) {
    if (!isa_supported(isa)) continue;
    IsaGuard isa_guard(isa);
    auto tiles = blas::micro::supported_tiles<T>(isa);
    tiles.push_back({3, 5});  // no TU compiles it: the generic tile
    for (const blas::micro::TilePair tp : tiles) {
      const blas::micro::KernelShape shape{tp.mr, tp.nr, 8, 2 * tp.mr, 2 * tp.nr, tp.mr, 4096.0};
      blas::micro::TuningProfile profile = blas::micro::active_profile();
      profile.shapes[blas::micro::detail::type_index_v<T>] = shape;
      blas::micro::ProfileGuard profile_guard(profile);
      const index_t MR = shape.mr, NR = shape.nr;
      std::vector<index_t> ms{1, MR - 1, MR, MR + 1, shape.mc + 1, shape.nc + 1};
      std::vector<index_t> ns{1, NR - 1, NR, NR + 1, shape.mc + 1, shape.nc + 1};
      const index_t ks[] = {1, MR + 1, shape.kc + 3, 2 * shape.kc + 1};
      Rng rng(41);
      // Sets the next (alpha, beta) pair, k and poisoning from one counter,
      // so every combination recurs across the shapes.
      auto next = [&](T& alpha, T& beta, index_t& k, bool& poison) {
        alpha = make_scalar<T>(alphas[counter % 4], 0.0);
        beta = make_scalar<T>(betas[(counter / 4) % 3], 0.0);
        k = ks[(counter / 3) % 4];
        poison = counter % 5 == 0;
        ++counter;
      };
      const std::string tile =
          std::string(to_string(isa)) + " " + std::to_string(MR) + "x" + std::to_string(NR);

      for (Trans ta : {Trans::NoTrans, Trans::Trans})
        for (Trans tb : {Trans::NoTrans, Trans::Trans})
          for (index_t m : ms)
            for (index_t n : ns) {
              if (m < 1 || n < 1) continue;
              T alpha, beta;
              index_t k;
              bool poison;
              next(alpha, beta, k, poison);
              const index_t ar = ta == Trans::NoTrans ? m : k, ac = ta == Trans::NoTrans ? k : m;
              const index_t br = tb == Trans::NoTrans ? k : n, bc = tb == Trans::NoTrans ? n : k;
              auto abuf = padded<T>(rng, ar, ac, ar + 2, T(dnan));
              auto bbuf = padded<T>(rng, br, bc, br + 1, T(dnan));
              auto cbuf = padded<T>(rng, m, n, m + 3, make_scalar<T>(7.0, -7.0));
              if (poison) {
                abuf[static_cast<std::size_t>(ar - 1)] = T(inf);
                abuf[static_cast<std::size_t>((ac - 1) * (ar + 2))] = T(dnan);
                cbuf[static_cast<std::size_t>((n - 1) * (m + 3))] = T(dnan);
                cbuf[static_cast<std::size_t>(m - 1)] = T(-inf);
              }
              auto want = cbuf;
              ConstMatrixView<T> a(abuf.data(), ar, ac, ar + 2), b(bbuf.data(), br, bc, br + 1);
              blas::micro::gemm_blocked_shaped<T>(ta, tb, alpha, a, b, beta,
                                                  MatrixView<T>(cbuf.data(), m, n, m + 3), shape);
              update_oracle<T>(ta, tb, alpha, a, b, beta, MatrixView<T>(want.data(), m, n, m + 3),
                               shape, true, [](index_t, index_t, bool) { return true; });
              ASSERT_EQ(std::memcmp(cbuf.data(), want.data(), cbuf.size() * sizeof(T)), 0)
                  << "gemm " << tile << " " << to_string(ta) << " " << to_string(tb) << " m=" << m
                  << " n=" << n << " k=" << k << " alpha=" << std::real(alpha)
                  << " beta=" << std::real(beta) << (poison ? " poisoned, " : ", ")
                  << first_difference(cbuf, want, m + 3);
            }

      for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
        for (Trans trans : {Trans::NoTrans, Trans::Trans})
          for (index_t n : ns) {
            if (n < 1) continue;
            T alpha, beta;
            index_t k;
            bool poison;
            next(alpha, beta, k, poison);
            const index_t ar = trans == Trans::NoTrans ? n : k;
            const index_t ac = trans == Trans::NoTrans ? k : n;
            const index_t ldc = n + 3;
            auto abuf = padded<T>(rng, ar, ac, ar + 2, T(dnan));
            // The untouched triangle and the padding rows keep these values.
            auto cbuf = padded<T>(rng, ldc, n, ldc, make_scalar<T>(7.0, -7.0));
            for (index_t d = 0; d < n; ++d)  // herk keeps a real diagonal real
              cbuf[static_cast<std::size_t>(d + d * ldc)] =
                  T(real_val(cbuf[static_cast<std::size_t>(d + d * ldc)]));
            if (poison) {
              abuf[static_cast<std::size_t>(ar - 1)] = T(inf);
              cbuf[static_cast<std::size_t>(n - 1)] = T(dnan);
            }
            auto want = cbuf;
            ConstMatrixView<T> a(abuf.data(), ar, ac, ar + 2);
            blas::micro::syrk_blocked<T>(uplo, trans, alpha, a, beta,
                                         MatrixView<T>(cbuf.data(), n, n, ldc));
            const Trans ta = trans == Trans::NoTrans ? Trans::NoTrans : Trans::Trans;
            const Trans tb = trans == Trans::NoTrans ? Trans::Trans : Trans::NoTrans;
            update_oracle<T>(ta, tb, alpha, a, a, beta, MatrixView<T>(want.data(), n, n, ldc),
                             shape, !is_complex_v<T>, [uplo](index_t i, index_t j, bool diag) {
                               return uplo == Uplo::Lower ? (diag ? i >= j : i > j)
                                                          : (diag ? i <= j : i < j);
                             });
            if constexpr (is_complex_v<T>) {
              // herk's diagonal is no tile's: it is a real sum the library
              // adds after the tiles, in its own rounding (a -march build
              // contracts it). Only its realness on finite inputs is
              // checked here.
              for (index_t i = 0; i < n; ++i) {
                const std::size_t at = static_cast<std::size_t>(i + i * ldc);
                if (k > 0 && !poison) {
                  ASSERT_EQ(std::imag(cbuf[at]), 0) << "diagonal " << i;
                }
                want[at] = cbuf[at];
              }
            }
            ASSERT_EQ(std::memcmp(cbuf.data(), want.data(), cbuf.size() * sizeof(T)), 0)
                << "syrk " << tile << " " << vbatch::to_string(uplo) << " "
                << vbatch::to_string(trans) << " n=" << n << " k=" << k
                << " alpha=" << std::real(alpha) << " beta=" << std::real(beta)
                << (poison ? " poisoned, " : ", ") << first_difference(cbuf, want, ldc);
          }
    }
  }
}

// ---------------------------------------------------------------------------
// Empty extents are no-ops through every blocked entry point.
// ---------------------------------------------------------------------------

TYPED_TEST(MicrokernelTest, ZeroExtentsAreNoops) {
  using T = TypeParam;
  DispatchGuard guard(Dispatch::ForceBlocked);
  std::vector<T> buf(16, T(1));
  MatrixView<T> c(buf.data(), 2, 2, 2);
  ConstMatrixView<T> a0(buf.data(), 2, 0, 2);
  ConstMatrixView<T> b0(buf.data(), 0, 2, 2);
  blas::gemm<T>(Trans::NoTrans, Trans::NoTrans, T(1), a0, b0, T(1), c);
  EXPECT_EQ(c(0, 0), T(1));
  MatrixView<T> bempty(buf.data(), 2, 0, 2);
  ConstMatrixView<T> asq(buf.data(), 2, 2, 2);
  blas::trsm<T>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, T(1), asq, bempty);
  blas::trmm<T>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, T(1), asq, bempty);
  MatrixView<T> cempty(buf.data(), 0, 0, 1);
  ConstMatrixView<T> aempty(buf.data(), 0, 3, 1);
  blas::syrk<T>(Uplo::Lower, Trans::NoTrans, T(1), aempty, T(0), cempty);
  EXPECT_EQ(buf[0], T(1));
}

// ---------------------------------------------------------------------------
// fused_step_math: the engine must leave the fused-path factorization
// residual unchanged within tolerance, and Auto-mode results must be
// reproducible bit-for-bit.
// ---------------------------------------------------------------------------

double fused_path_residual(Dispatch d, std::vector<double>& out) {
  const index_t n = 96;
  const int nb = 32;
  Rng rng(31);
  std::vector<double> a(static_cast<std::size_t>(n * n));
  fill_spd(rng, a.data(), n, n);
  const auto orig = a;
  MatrixView<double> av(a.data(), n, n, n);
  DispatchGuard guard(d);
  for (int step = 0; static_cast<index_t>(step) * nb < n; ++step)
    EXPECT_EQ(kernels::fused_step_math<double>(Uplo::Lower, av, step, nb), 0);
  out = a;
  return blas::potrf_residual<double>(Uplo::Lower,
                                      ConstMatrixView<double>(orig.data(), n, n, n),
                                      ConstMatrixView<double>(a.data(), n, n, n));
}

TEST(FusedStepMicrokernel, ResidualUnchangedAndDeterministic) {
  std::vector<double> ref_factor, blk_factor, blk_factor2;
  const double ref_res = fused_path_residual(Dispatch::ForceRef, ref_factor);
  const double blk_res = fused_path_residual(Dispatch::Auto, blk_factor);
  const double blk_res2 = fused_path_residual(Dispatch::Auto, blk_factor2);
  EXPECT_LT(ref_res, 1e-14);
  EXPECT_LT(blk_res, 1e-14);
  EXPECT_NEAR(blk_res, ref_res, 1e-14);
  EXPECT_EQ(blk_res2, blk_res);
  // Same dispatch mode, same input → bit-identical factor.
  ASSERT_EQ(blk_factor.size(), blk_factor2.size());
  ASSERT_EQ(std::memcmp(blk_factor.data(), blk_factor2.data(),
                        blk_factor.size() * sizeof(double)),
            0);
}

// The blocked potrf in blas/ (used by the CPU baselines) inherits the
// engine through syrk/gemm/trsm; its residual gate must hold in both modes.
TEST(FusedStepMicrokernel, BlockedPotrfResidualBothModes) {
  const index_t n = 130;
  for (Dispatch d : {Dispatch::ForceRef, Dispatch::Auto}) {
    Rng rng(37);
    std::vector<double> a(static_cast<std::size_t>(n * n));
    fill_spd(rng, a.data(), n, n);
    const auto orig = a;
    MatrixView<double> av(a.data(), n, n, n);
    DispatchGuard guard(d);
    ASSERT_EQ(blas::potrf<double>(Uplo::Lower, av), 0);
    EXPECT_LT(blas::potrf_residual<double>(Uplo::Lower,
                                           ConstMatrixView<double>(orig.data(), n, n, n),
                                           ConstMatrixView<double>(a.data(), n, n, n)),
              1e-14);
  }
}

}  // namespace
