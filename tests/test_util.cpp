// Unit tests for vbatch/util: RNG determinism and statistics, payload rule
// v2 (fill_spd / fill_general), matrix views, flop formulas, size
// distributions, table/histogram rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <sstream>
#include <vector>

#include "vbatch/blas/isa.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/rng.hpp"
#include "vbatch/util/table.hpp"
#include "vbatch/util/types.hpp"

namespace {

using namespace vbatch;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(3, 10);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 10);
    saw_lo |= v == 3;
    saw_hi |= v == 10;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, FillSpdIsSymmetricAndDiagonallyDominant) {
  Rng rng(3);
  const int n = 17;
  std::vector<double> a(static_cast<std::size_t>(n * n));
  fill_spd(rng, a.data(), n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(i + j * n)],
                       a[static_cast<std::size_t>(j + i * n)]);
    }
    EXPECT_GT(a[static_cast<std::size_t>(j + j * n)], static_cast<double>(n) - 1.0);
  }
}

// Payload rule v2 (util/payload.hpp): every entry is a hash of the call's
// key and its position, so the bits may not depend on the ISA, the leading
// dimension or where in a request's stream the matrix is regenerated.
template <typename T>
class PayloadRule : public ::testing::Test {};
using PayloadTypes = ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(PayloadRule, PayloadTypes);

// Row tails of every vector width, and 300 crosses a fill tile (256 rows and
// columns).
constexpr std::int64_t kPayloadOrders[] = {0,  1,  2,  7,   8,   9,   15, 16,
                                           17, 31, 33, 127, 128, 129, 300};

std::vector<blas::micro::Isa> host_isas() {
  using blas::micro::Isa;
  std::vector<Isa> isas;
  for (Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Avx512})
    if (blas::micro::isa_supported(isa)) isas.push_back(isa);
  return isas;
}

template <typename T>
real_t<T> imag_part(const T& v) {
  if constexpr (is_complex_v<T>) return v.imag();
  else return real_t<T>(0);
}

// A column-major m×n payload at leading dimension ld, drawn from a fresh
// Rng(seed); pad rows and one column's worth past the end hold `pad`.
template <typename T>
std::vector<T> payload(bool spd, std::uint64_t seed, std::int64_t m, std::int64_t n,
                       std::int64_t ld, T pad = T(-777)) {
  std::vector<T> a(static_cast<std::size_t>(ld * (n + 1)), pad);
  Rng rng(seed);
  if (spd) fill_spd(rng, a.data(), n, ld);
  else fill_general(rng, a.data(), m, n, ld);
  return a;
}

// Bitwise equality of the m×n matrices held at leading dimensions la, lb.
template <typename T>
bool same_bits(const std::vector<T>& a, std::int64_t la, const std::vector<T>& b,
               std::int64_t lb, std::int64_t m, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j)
    if (m > 0 && std::memcmp(a.data() + j * la, b.data() + j * lb,
                             static_cast<std::size_t>(m) * sizeof(T)) != 0)
      return false;
  return true;
}

TYPED_TEST(PayloadRule, BitsIdenticalAcrossIsas) {
  using T = TypeParam;
  for (const std::int64_t n : kPayloadOrders) {
    const std::int64_t ld = std::max<std::int64_t>(1, n);
    const std::int64_t cols = n / 2 + 3;
    std::vector<T> spd_ref, gen_ref;
    {
      blas::micro::IsaGuard guard(blas::micro::Isa::Scalar);
      spd_ref = payload<T>(true, 11, n, n, ld);
      gen_ref = payload<T>(false, 12, n, cols, ld);
    }
    for (const blas::micro::Isa isa : host_isas()) {
      blas::micro::IsaGuard guard(isa);
      SCOPED_TRACE(std::string(blas::micro::to_string(isa)) + " n=" + std::to_string(n));
      EXPECT_TRUE(same_bits(payload<T>(true, 11, n, n, ld), ld, spd_ref, ld, n, n));
      EXPECT_TRUE(same_bits(payload<T>(false, 12, n, cols, ld), ld, gen_ref, ld, n, cols));
      // The leading dimension moves no bit either.
      EXPECT_TRUE(same_bits(payload<T>(true, 11, n, n, n + 5), n + 5, spd_ref, ld, n, n));
      EXPECT_TRUE(
          same_bits(payload<T>(false, 12, n, cols, n + 5), n + 5, gen_ref, ld, n, cols));
    }
  }
}

TYPED_TEST(PayloadRule, SpdIsExactlyHermitianWithDominantDiagonal) {
  using T = TypeParam;
  using R = real_t<T>;
  for (const blas::micro::Isa isa : host_isas()) {
    blas::micro::IsaGuard guard(isa);
    for (const std::int64_t n : kPayloadOrders) {
      SCOPED_TRACE(std::string(blas::micro::to_string(isa)) + " n=" + std::to_string(n));
      const std::int64_t ld = std::max<std::int64_t>(1, n);
      const std::vector<T> a = payload<T>(true, 21 + static_cast<std::uint64_t>(n), n, n, ld);
      auto at = [&](std::int64_t i, std::int64_t j) { return a[static_cast<std::size_t>(i + j * ld)]; };
      for (std::int64_t j = 0; j < n; ++j) {
        const T d = at(j, j);
        EXPECT_EQ(imag_part(d), R(0));
        EXPECT_GT(real_val(d), static_cast<R>(n - 1));
        EXPECT_LT(real_val(d), static_cast<R>(n + 1));
        for (std::int64_t i = j + 1; i < n; ++i) {
          const T lo = at(i, j), up = conj_val(at(j, i));
          ASSERT_EQ(std::memcmp(&lo, &up, sizeof(T)), 0) << i << "," << j;
          ASSERT_GE(real_val(lo), R(0));
          ASSERT_LT(real_val(lo), R(1));
          ASSERT_GE(imag_part(lo), R(-0.5));
          ASSERT_LT(imag_part(lo), R(0.5));
        }
      }
    }
  }
}

TYPED_TEST(PayloadRule, GeneralInRangeAndNotSymmetric) {
  using T = TypeParam;
  using R = real_t<T>;
  for (const blas::micro::Isa isa : host_isas()) {
    blas::micro::IsaGuard guard(isa);
    for (const std::int64_t n : kPayloadOrders) {
      SCOPED_TRACE(std::string(blas::micro::to_string(isa)) + " n=" + std::to_string(n));
      const std::int64_t ld = std::max<std::int64_t>(1, n);
      const std::vector<T> a = payload<T>(false, 31 + static_cast<std::uint64_t>(n), n, n, ld);
      bool symmetric = true;
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i < n; ++i) {
          const T v = a[static_cast<std::size_t>(i + j * ld)];
          ASSERT_GE(real_val(v), R(-1));
          ASSERT_LT(real_val(v), R(1));
          ASSERT_GE(imag_part(v), R(-1));
          ASSERT_LT(imag_part(v), R(1));
          symmetric = symmetric && v == a[static_cast<std::size_t>(j + i * ld)];
        }
      // fill_general hashes the ordered pair: it is not a symmetric fill.
      if (n >= 2) {
        EXPECT_FALSE(symmetric);
      }
    }
  }
}

TYPED_TEST(PayloadRule, PadRowsKeepSentinel) {
  using T = TypeParam;
  const T pad = T(-777);
  for (const std::int64_t n : kPayloadOrders) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::int64_t ld = n + 3, cols = n + 2;
    const std::vector<T> spd = payload<T>(true, 41, n, n, ld, pad);
    const std::vector<T> gen = payload<T>(false, 42, n, cols, ld, pad);
    auto pad_kept = [&](const std::vector<T>& a, std::int64_t used_cols) {
      for (std::size_t k = 0; k < a.size(); ++k) {
        const std::int64_t i = static_cast<std::int64_t>(k) % ld;
        const std::int64_t j = static_cast<std::int64_t>(k) / ld;
        if ((i >= n || j >= used_cols) && a[k] != pad) return false;
      }
      return true;
    };
    EXPECT_TRUE(pad_kept(spd, n));
    EXPECT_TRUE(pad_kept(gen, cols));
  }
}

TYPED_TEST(PayloadRule, KthMatrixOfAStreamIsAFreshRngAdvancedKDraws) {
  using T = TypeParam;
  for (const bool spd : {true, false}) {
    // One request's matrices, drawn sequentially from one stream.
    Rng stream(2016);
    std::vector<std::vector<T>> drawn;
    for (const std::int64_t n : kPayloadOrders) {
      const std::int64_t ld = std::max<std::int64_t>(1, n);
      drawn.emplace_back(static_cast<std::size_t>(ld * n) + 1, T(0));
      if (spd) fill_spd(stream, drawn.back().data(), n, ld);
      else fill_general(stream, drawn.back().data(), n, n, ld);
    }
    for (std::size_t k = 0; k < drawn.size(); ++k) {
      const std::int64_t n = kPayloadOrders[k];
      const std::int64_t ld = std::max<std::int64_t>(1, n);
      Rng fresh(2016);
      for (std::size_t d = 0; d < k; ++d) (void)fresh.next();
      std::vector<T> again(static_cast<std::size_t>(ld * n) + 1, T(0));
      if (spd) fill_spd(fresh, again.data(), n, ld);
      else fill_general(fresh, again.data(), n, n, ld);
      EXPECT_TRUE(same_bits(again, ld, drawn[k], ld, n, n)) << "matrix " << k;
    }
  }
}

TYPED_TEST(PayloadRule, RejectsNegativeExtentsAndShortLeadingDimension) {
  using T = TypeParam;
  std::vector<T> a(64);
  Rng rng(5);
  auto rejects = [](auto&& call) {
    try {
      call();
    } catch (const Error& e) {
      return e.status() == Status::InvalidArgument;
    }
    return false;
  };
  EXPECT_TRUE(rejects([&] { fill_spd(rng, a.data(), -1, 1); }));
  EXPECT_TRUE(rejects([&] { fill_spd(rng, a.data(), 4, 3); }));
  EXPECT_TRUE(rejects([&] { fill_spd(rng, a.data(), 0, 0); }));
  EXPECT_TRUE(rejects([&] { fill_general(rng, a.data(), -1, 2, 1); }));
  EXPECT_TRUE(rejects([&] { fill_general(rng, a.data(), 2, -1, 2); }));
  EXPECT_TRUE(rejects([&] { fill_general(rng, a.data(), 5, 2, 4); }));
  EXPECT_TRUE(rejects([&] { fill_general(rng, a.data(), 0, 2, 0); }));
  // The buffer a short ld would overrun is left as it was.
  for (const T& v : a) EXPECT_EQ(v, T(0));
}

TEST(MatrixView, ElementAndBlockAccess) {
  std::vector<double> buf(30);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<double>(i);
  MatrixView<double> a(buf.data(), 5, 6, 5);
  EXPECT_DOUBLE_EQ(a(2, 3), 17.0);  // 2 + 3*5
  auto b = a.block(1, 2, 3, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), a(1, 2));
  EXPECT_DOUBLE_EQ(b(2, 1), a(3, 3));
  EXPECT_EQ(b.ld(), 5);
}

TEST(MatrixView, LeadingDimensionRespected) {
  std::vector<float> buf(40, 0.0f);
  MatrixView<float> a(buf.data(), 3, 4, 10);  // ld > rows
  a(2, 3) = 5.0f;
  EXPECT_FLOAT_EQ(buf[2 + 3 * 10], 5.0f);
}

TEST(MatrixView, ColSpan) {
  std::vector<double> buf(12);
  MatrixView<double> a(buf.data(), 3, 4, 3);
  auto c = a.col(2);
  EXPECT_EQ(c.size(), 3u);
  c[1] = 9.0;
  EXPECT_DOUBLE_EQ(a(1, 2), 9.0);
}

TEST(Flops, PotrfMatchesClosedForm) {
  // n³/3 + n²/2 + n/6 at n=6: 72 + 18 + 1 = 91.
  EXPECT_DOUBLE_EQ(flops::potrf(6), 91.0);
  EXPECT_DOUBLE_EQ(flops::potrf(1), 1.0);
  EXPECT_DOUBLE_EQ(flops::potrf(0), 0.0);
}

TEST(Flops, GemmSyrkTrsm) {
  EXPECT_DOUBLE_EQ(flops::gemm(3, 4, 5), 120.0);
  EXPECT_DOUBLE_EQ(flops::syrk(4, 3), 4.0 * 5.0 * 3.0);
  EXPECT_DOUBLE_EQ(flops::trsm(4, 3, true), 3.0 * 16.0);
  EXPECT_DOUBLE_EQ(flops::trsm(4, 3, false), 4.0 * 9.0);
}

TEST(Flops, BatchSumsPerMatrixCounts) {
  std::vector<int> sizes{2, 3, 5};
  EXPECT_DOUBLE_EQ(flops::potrf_batch(sizes),
                   flops::potrf(2) + flops::potrf(3) + flops::potrf(5));
}

TEST(Flops, GetrfGeqrfPositiveAndMonotone) {
  EXPECT_GT(flops::getrf(8, 8), flops::getrf(4, 4));
  EXPECT_GT(flops::geqrf(16, 8), flops::geqrf(8, 8));
  EXPECT_GT(flops::geqrf(8, 8), 0.0);
}

TEST(SizeDist, UniformBounds) {
  Rng rng(123);
  auto sizes = uniform_sizes(rng, 2000, 512);
  const auto st = size_stats(sizes);
  EXPECT_GE(st.min, 1);
  EXPECT_LE(st.max, 512);
  EXPECT_NEAR(st.mean, 256.5, 12.0);
  // Uniform stddev = (b-a)/sqrt(12) ≈ 147.5.
  EXPECT_NEAR(st.stddev, 147.5, 10.0);
}

TEST(SizeDist, GaussianCentredAtHalfMax) {
  Rng rng(321);
  auto sizes = gaussian_sizes(rng, 2000, 512);
  const auto st = size_stats(sizes);
  EXPECT_GE(st.min, 1);
  EXPECT_LE(st.max, 512);
  EXPECT_NEAR(st.mean, 256.0, 8.0);
  EXPECT_NEAR(st.stddev, 512.0 / 6.0, 10.0);
}

TEST(SizeDist, GaussianRarelyNearBoundaries) {
  Rng rng(55);
  auto sizes = gaussian_sizes(rng, 2000, 512);
  int near_edges = 0;
  for (int s : sizes)
    if (s < 64 || s > 448) ++near_edges;
  EXPECT_LT(near_edges, 80);  // ~2.4% expected beyond ±2.25σ; allow 4%
}

TEST(SizeDist, DispatchMatchesEnum) {
  Rng r1(7), r2(7);
  EXPECT_EQ(make_sizes(SizeDist::Uniform, r1, 100, 64), uniform_sizes(r2, 100, 64));
}

TEST(Table, RendersAlignedColumns) {
  util::Table t({"n", "gflops"});
  t.new_row().add(32).add(1.5);
  t.new_row().add(512).add(123.45);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("gflops"), std::string::npos);
  EXPECT_NE(s.find("123.45"), std::string::npos);
  EXPECT_NE(s.find("512"), std::string::npos);
}

TEST(Table, HistogramCountsBuckets) {
  std::vector<int> values{1, 2, 3, 10, 11, 12, 13};
  std::ostringstream os;
  util::print_histogram(os, values, 8, 16, 20);
  const std::string s = os.str();
  EXPECT_NE(s.find(" 3"), std::string::npos);
  EXPECT_NE(s.find(" 4"), std::string::npos);
}

TEST(Types, EnumNames) {
  EXPECT_EQ(to_string(Uplo::Lower), "lower");
  EXPECT_EQ(to_string(Trans::Trans), "trans");
  EXPECT_EQ(to_string(EtmMode::Aggressive), "etm-aggressive");
  EXPECT_EQ(precision_of<double>::name, "double");
  EXPECT_EQ(precision_of<float>::blas_prefix, 's');
}

}  // namespace
