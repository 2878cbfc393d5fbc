// Tests for the paper's announced extensions (§V): vbatched LU and QR, and
// the vbatched solve routines (potrs/posv).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/core/geqrf_vbatched.hpp"
#include "vbatch/core/getrf_vbatched.hpp"
#include "vbatch/core/potrs_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;

// ---------------------------------------------------------------------------
// LU
// ---------------------------------------------------------------------------

class GetrfVbatchedTest : public ::testing::TestWithParam<int> {};

TEST_P(GetrfVbatchedTest, ResidualsSmallAcrossRandomBatch) {
  const int nmax = GetParam();
  Queue q;
  Rng rng(61);
  auto sizes = uniform_sizes(rng, 25, nmax);
  Batch<double> batch(q, sizes);
  if (q.full()) {
    for (int i = 0; i < batch.count(); ++i) {
      const int n = sizes[static_cast<std::size_t>(i)];
      fill_general(rng, batch.matrix(i).data(), n, n, batch.ldas()[static_cast<std::size_t>(i)]);
    }
  }
  std::vector<std::vector<double>> originals;
  for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));

  PivotArrays ipiv(q, sizes);
  const auto r = getrf_vbatched<double>(q, batch, ipiv);
  EXPECT_GT(r.gflops(), 0.0);

  for (int i = 0; i < batch.count(); ++i) {
    ASSERT_EQ(batch.info()[static_cast<std::size_t>(i)], 0) << "matrix " << i;
    const int n = sizes[static_cast<std::size_t>(i)];
    ConstMatrixView<double> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
    const double res = blas::getrf_residual<double>(orig, batch.matrix(i), ipiv.item(i));
    EXPECT_LT(res, 1e-12) << "matrix " << i << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(MaxSizes, GetrfVbatchedTest, ::testing::Values(20, 60, 100));

/// One getrf_vbatched call on `sizes` (lda padded by 3) after `poke` edits
/// the filled batch, checked against blas::getrf with max(8, panel_nb)-wide
/// panels on a copy of each matrix's storage: info equal, factor bytes (lda
/// padding included) and pivots memcmp-equal. Returns the info and those
/// bytes, for comparisons across worker counts.
struct GetrfOutput {
  std::vector<int> info;
  std::vector<unsigned char> bytes;
};

template <typename T>
GetrfOutput expect_getrf_is_host_getrf(const std::vector<int>& sizes, int panel_nb,
                                       const std::function<void(Batch<T>&)>& poke) {
  Queue q;
  Batch<T> batch(q, sizes, 3);
  Rng rng(67);
  batch.fill_general(rng);
  poke(batch);
  std::vector<std::vector<T>> want;
  for (int i = 0; i < batch.count(); ++i) {
    const T* p = batch.device_ptrs()[i];
    want.emplace_back(p, p + batch.ldas()[static_cast<std::size_t>(i)] *
                                 sizes[static_cast<std::size_t>(i)]);
  }

  PivotArrays ipiv(q, sizes);
  getrf_vbatched<T>(q, batch, ipiv, {.panel_nb = panel_nb});

  GetrfOutput out{{batch.info().begin(), batch.info().end()}, {}};
  for (int i = 0; i < batch.count(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    const int n = sizes[k];
    const std::string what = "matrix " + std::to_string(i) + " n=" + std::to_string(n) +
                             " panel_nb=" + std::to_string(panel_nb);
    std::vector<int> want_piv(static_cast<std::size_t>(n));
    const int want_info = blas::getrf<T>(MatrixView<T>(want[k].data(), n, n, batch.ldas()[k]),
                                         want_piv, std::max(8, panel_nb));
    EXPECT_EQ(batch.info()[k], want_info) << what;
    const auto* got = reinterpret_cast<const unsigned char*>(batch.device_ptrs()[i]);
    const std::size_t len = want[k].size() * sizeof(T);
    EXPECT_EQ(0, len == 0 ? 0 : std::memcmp(got, want[k].data(), len)) << what;
    const auto piv = ipiv.item(i);
    EXPECT_TRUE(std::equal(piv.begin(), piv.end(), want_piv.begin(), want_piv.end())) << what;
    out.bytes.insert(out.bytes.end(), got, got + len);
    const auto* pb = reinterpret_cast<const unsigned char*>(piv.data());
    out.bytes.insert(out.bytes.end(), pb, pb + piv.size() * sizeof(int));
  }
  return out;
}

TEST(GetrfVbatched, MatchesReferenceFactorsExactly) {
  const std::vector<int> sizes{0, 1, 7, 8, 9, 31, 32, 33, 48, 70, 97, 130};
  // The default width, one below the clamp to 8, and one not dividing the
  // orders.
  for (int nb : {GetrfOptions{}.panel_nb, 4, 48}) {
    expect_getrf_is_host_getrf<double>(sizes, nb, [](Batch<double>&) {});
    expect_getrf_is_host_getrf<float>(sizes, nb, [](Batch<float>&) {});
  }
}

TEST(GetrfVbatched, SingularMatrixFlagged) {
  Queue q;
  std::vector<int> sizes{8, 8};
  Batch<double> batch(q, sizes);
  Rng rng(71);
  fill_general(rng, batch.matrix(0).data(), 8, 8, 8);
  // Matrix 1 is rank deficient (all ones).
  auto m1 = batch.matrix(1);
  for (int c = 0; c < 8; ++c)
    for (int r = 0; r < 8; ++r) m1(r, c) = 1.0;

  PivotArrays ipiv(q, sizes);
  getrf_vbatched<double>(q, batch, ipiv);
  EXPECT_EQ(batch.info()[0], 0);
  EXPECT_GT(batch.info()[1], 0);
}

// ---------------------------------------------------------------------------
// LU edge cases: non-finite, singular and empty inputs
// ---------------------------------------------------------------------------

template <typename T>
class GetrfVbatchedEdgeCases : public ::testing::Test {
 protected:
  void TearDown() override { util::set_host_threads(0); }
};
using GetrfTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(GetrfVbatchedEdgeCases, GetrfTypes);

/// NaN and ±Inf entries, an exact zero pivot inside a panel, on a panel's
/// last column and on the last column, an empty matrix, padded lda: info,
/// pivots and factors are blas::getrf's, and the same at 1 and 4 workers.
TYPED_TEST(GetrfVbatchedEdgeCases, MatchHostGetrfAtAnyWorkerCount) {
  using T = TypeParam;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  struct Entry {
    int r, c;
    double value;
  };
  // Matrix k + 1 of order 100 carries entries[k]; with 16-wide panels the
  // panels start at 0, 16, …, 96.
  const std::vector<Entry> entries{
      {50, 20, kNaN}, {30, 30, kNaN}, {60, 10, kInf}, {70, 70, -kInf}, {5, 90, kInf}};
  // Exactly zero columns: inside panel 2, on its last column, on the last
  // column. A zero column stays zero under every earlier step, so its
  // pivot is exactly zero.
  const std::vector<int> zero_cols{40, 47, 99};
  std::vector<int> sizes(1 + entries.size() + zero_cols.size(), 100);
  sizes.push_back(0);
  sizes.push_back(23);
  constexpr int kNb = 16;

  auto poke = [&](Batch<T>& b) {
    for (std::size_t k = 0; k < entries.size(); ++k)
      b.matrix(static_cast<int>(k + 1))(entries[k].r, entries[k].c) =
          static_cast<T>(entries[k].value);
    for (std::size_t k = 0; k < zero_cols.size(); ++k) {
      MatrixView<T> a = b.matrix(static_cast<int>(1 + entries.size() + k));
      for (index_t r = 0; r < a.rows(); ++r) a(r, zero_cols[k]) = T(0);
    }
  };
  std::vector<GetrfOutput> runs;
  for (unsigned threads : {1u, 4u}) {
    util::set_host_threads(threads);
    runs.push_back(expect_getrf_is_host_getrf<T>(sizes, kNb, poke));
  }
  EXPECT_EQ(runs[0].info, runs[1].info);
  EXPECT_TRUE(runs[0].bytes == runs[1].bytes);
  // The clean matrix and the empty one succeed; each zero column is the
  // first zero pivot of its matrix.
  EXPECT_EQ(runs[0].info[0], 0);
  EXPECT_EQ(runs[0].info[sizes.size() - 2], 0);
  for (std::size_t k = 0; k < zero_cols.size(); ++k)
    EXPECT_EQ(runs[0].info[1 + entries.size() + k], zero_cols[k] + 1);
}

TEST(GetrsVbatched, SolvesAgainstKnownSolutions) {
  Queue q;
  Rng rng(91);
  std::vector<int> sizes{14, 33, 27};
  std::vector<int> nrhs{2, 1, 3};
  Batch<double> a(q, sizes);
  for (int i = 0; i < a.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    fill_general(rng, a.matrix(i).data(), n, n, n);
  }
  std::vector<std::vector<double>> aorig;
  for (int i = 0; i < a.count(); ++i) aorig.push_back(a.copy_matrix(i));

  RectBatch<double> b(q, sizes, nrhs);
  std::vector<std::vector<double>> x_true;
  for (int i = 0; i < a.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    const int r = nrhs[static_cast<std::size_t>(i)];
    std::vector<double> x(static_cast<std::size_t>(n * r));
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    ConstMatrixView<double> av(aorig[static_cast<std::size_t>(i)].data(), n, n, n);
    ConstMatrixView<double> xv(x.data(), n, r, n);
    blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av, xv, 0.0, b.matrix(i));
    x_true.push_back(std::move(x));
  }

  PivotArrays ipiv(q, sizes);
  getrf_vbatched<double>(q, a, ipiv);
  const auto r = getrs_vbatched<double>(q, a, ipiv, b);
  EXPECT_GT(r.seconds, 0.0);

  for (int i = 0; i < a.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    const int rr = nrhs[static_cast<std::size_t>(i)];
    auto bx = b.matrix(i);
    for (int c = 0; c < rr; ++c)
      for (int row = 0; row < n; ++row)
        EXPECT_NEAR(bx(row, c),
                    x_true[static_cast<std::size_t>(i)][static_cast<std::size_t>(row + c * n)],
                    1e-8)
            << "matrix " << i;
  }
}

TEST(GetrsVbatched, SkipsSingularMatrices) {
  Queue q;
  Rng rng(93);
  std::vector<int> sizes{10, 10};
  std::vector<int> nrhs{1, 1};
  Batch<double> a(q, sizes);
  fill_general(rng, a.matrix(0).data(), 10, 10, 10);
  auto m1 = a.matrix(1);
  for (int c = 0; c < 10; ++c)
    for (int r = 0; r < 10; ++r) m1(r, c) = 1.0;  // singular
  RectBatch<double> b(q, sizes, nrhs);
  b.fill_general(rng);
  auto b1_before = b.copy_matrix(1);

  PivotArrays ipiv(q, sizes);
  getrf_vbatched<double>(q, a, ipiv);
  ASSERT_GT(a.info()[1], 0);
  getrs_vbatched<double>(q, a, ipiv, b);
  EXPECT_EQ(b.copy_matrix(1), b1_before);
}

// ---------------------------------------------------------------------------
// QR
// ---------------------------------------------------------------------------

class GeqrfVbatchedTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeqrfVbatchedTest, ResidualsSmallAcrossRectangularBatch) {
  const auto [count, nmax] = GetParam();
  Queue q;
  Rng rng(73);
  auto cols = uniform_sizes(rng, count, nmax);
  std::vector<int> rows(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i)
    rows[i] = cols[i] + static_cast<int>(rng.uniform_int(0, nmax / 2));  // m >= n

  RectBatch<double> batch(q, rows, cols);
  batch.fill_general(rng);
  std::vector<std::vector<double>> originals;
  for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));

  std::vector<int> mn(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) mn[i] = std::min(rows[i], cols[i]);
  TauArrays<double> tau(q, mn);
  const auto r = geqrf_vbatched<double>(q, batch, tau);
  EXPECT_GT(r.gflops(), 0.0);

  for (int i = 0; i < batch.count(); ++i) {
    const int m = rows[static_cast<std::size_t>(i)];
    const int n = cols[static_cast<std::size_t>(i)];
    ConstMatrixView<double> orig(originals[static_cast<std::size_t>(i)].data(), m, n, m);
    const double res = blas::geqrf_residual<double>(orig, batch.matrix(i), tau.item(i));
    EXPECT_LT(res, 1e-12) << "matrix " << i << " m=" << m << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeqrfVbatchedTest,
                         ::testing::Values(std::tuple{15, 24}, std::tuple{20, 60},
                                           std::tuple{10, 90}));

/// Wide matrices (m < n) whose last panel is narrower than the panel width:
/// their trailing columns reach past n_i − j − NB. Each shape alone and
/// all in one batch, memcmp-equal to blas::geqrf with the same panel width
/// (factor and tau), residual under the suite's bound.
TEST(GeqrfVbatched, WideMatricesMatchHostGeqrf) {
  const std::vector<int> rows{8, 40, 40, 40, 100, 64}, cols{30, 60, 114, 100, 40, 64};
  auto check = [](const std::vector<int>& m, const std::vector<int>& n) {
    Queue q;
    Rng rng(79);
    RectBatch<double> batch(q, m, n);
    batch.fill_general(rng);
    std::vector<int> mn(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) mn[i] = std::min(m[i], n[i]);
    TauArrays<double> tau(q, mn);
    std::vector<std::vector<double>> originals;
    for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));
    geqrf_vbatched<double>(q, batch, tau);

    for (int i = 0; i < batch.count(); ++i) {
      const auto k = static_cast<std::size_t>(i);
      std::vector<double> want = originals[k];
      std::vector<double> want_tau(static_cast<std::size_t>(mn[k]));
      blas::geqrf<double>(MatrixView<double>(want.data(), m[k], n[k], m[k]), want_tau, 32);
      const std::vector<double> got = batch.copy_matrix(i);
      const std::string what =
          "matrix " + std::to_string(i) + " " + std::to_string(m[k]) + "x" + std::to_string(n[k]);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(double))) << what;
      EXPECT_EQ(0, std::memcmp(tau.item(i).data(), want_tau.data(),
                               want_tau.size() * sizeof(double)))
          << what;
      ConstMatrixView<double> orig(originals[k].data(), m[k], n[k], m[k]);
      EXPECT_LT(blas::geqrf_residual<double>(orig, batch.matrix(i), tau.item(i)), 1e-12) << what;
    }
  };
  for (std::size_t k = 0; k < rows.size(); ++k) check({rows[k]}, {cols[k]});
  check(rows, cols);
}

TEST(OrmqrVbatched, QtQisIdentityAction) {
  // Applying Qᵀ then checking ‖Qᵀb‖ == ‖b‖ (orthogonality preserved).
  Queue q;
  Rng rng(95);
  std::vector<int> m{20, 45}, n{8, 12}, nrhs{3, 2};
  RectBatch<double> a(q, m, n);
  a.fill_general(rng);
  std::vector<int> mn = n;
  TauArrays<double> tau(q, mn);
  geqrf_vbatched<double>(q, a, tau);

  RectBatch<double> c(q, m, nrhs);
  c.fill_general(rng);
  std::vector<double> norms_before;
  for (int i = 0; i < c.count(); ++i) {
    auto v = c.matrix(i);
    norms_before.push_back(blas::norm_fro<double>(
        ConstMatrixView<double>(v.data(), v.rows(), v.cols(), v.ld())));
  }
  ormqr_vbatched<double>(q, a, tau, c);
  for (int i = 0; i < c.count(); ++i) {
    auto v = c.matrix(i);
    const double after = blas::norm_fro<double>(
        ConstMatrixView<double>(v.data(), v.rows(), v.cols(), v.ld()));
    EXPECT_NEAR(after, norms_before[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(GeqrsVbatched, RecoversExactSolutions) {
  // Consistent systems (b = A·x): least squares recovers x exactly.
  Queue q;
  Rng rng(97);
  std::vector<int> m{24, 50, 15}, n{6, 20, 15}, nrhs{2, 1, 3};
  RectBatch<double> a(q, m, n);
  a.fill_general(rng);
  // Boost the diagonal so R is well conditioned.
  for (int i = 0; i < a.count(); ++i) {
    auto av = a.matrix(i);
    for (index_t d = 0; d < av.cols(); ++d) av(d, d) += 3.0;
  }
  std::vector<std::vector<double>> aorig;
  for (int i = 0; i < a.count(); ++i) aorig.push_back(a.copy_matrix(i));

  RectBatch<double> b(q, m, nrhs);
  std::vector<std::vector<double>> x_true;
  for (int i = 0; i < a.count(); ++i) {
    const int mi = m[static_cast<std::size_t>(i)];
    const int ni = n[static_cast<std::size_t>(i)];
    const int ri = nrhs[static_cast<std::size_t>(i)];
    std::vector<double> x(static_cast<std::size_t>(ni) * ri);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    ConstMatrixView<double> av(aorig[static_cast<std::size_t>(i)].data(), mi, ni, mi);
    ConstMatrixView<double> xv(x.data(), ni, ri, ni);
    blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av, xv, 0.0, b.matrix(i));
    x_true.push_back(std::move(x));
  }

  std::vector<int> mn = n;
  TauArrays<double> tau(q, mn);
  geqrf_vbatched<double>(q, a, tau);
  const auto r = geqrs_vbatched<double>(q, a, tau, b);
  EXPECT_GT(r.seconds, 0.0);

  for (int i = 0; i < a.count(); ++i) {
    const int ni = n[static_cast<std::size_t>(i)];
    const int ri = nrhs[static_cast<std::size_t>(i)];
    auto x = b.matrix(i);
    for (int c = 0; c < ri; ++c)
      for (int row = 0; row < ni; ++row)
        EXPECT_NEAR(x(row, c),
                    x_true[static_cast<std::size_t>(i)][static_cast<std::size_t>(row + c * ni)],
                    1e-9)
            << "matrix " << i;
  }
}

TEST(GeqrsVbatched, MinimizesResidualForOverdetermined) {
  // Inconsistent system: the residual must be orthogonal to range(A).
  Queue q;
  Rng rng(99);
  std::vector<int> m{30}, n{5}, nrhs{1};
  RectBatch<double> a(q, m, n);
  a.fill_general(rng);
  auto aorig = a.copy_matrix(0);
  RectBatch<double> b(q, m, nrhs);
  b.fill_general(rng);
  auto borig = b.copy_matrix(0);

  std::vector<int> mn = n;
  TauArrays<double> tau(q, mn);
  geqrf_vbatched<double>(q, a, tau);
  geqrs_vbatched<double>(q, a, tau, b);

  // r = b - A x must satisfy Aᵀ r = 0.
  ConstMatrixView<double> av(aorig.data(), 30, 5, 30);
  auto x = b.matrix(0);
  std::vector<double> res = borig;
  for (int row = 0; row < 30; ++row)
    for (int c = 0; c < 5; ++c) res[static_cast<std::size_t>(row)] -= av(row, c) * x(c, 0);
  for (int c = 0; c < 5; ++c) {
    double dot = 0.0;
    for (int row = 0; row < 30; ++row) dot += av(row, c) * res[static_cast<std::size_t>(row)];
    EXPECT_NEAR(dot, 0.0, 1e-10);
  }
}

// ---------------------------------------------------------------------------
// potrs / posv
// ---------------------------------------------------------------------------

TEST(PotrsVbatched, SolvesAgainstKnownSolutions) {
  Queue q;
  Rng rng(79);
  std::vector<int> sizes{12, 30, 21};
  std::vector<int> nrhs{1, 4, 2};
  Batch<double> a(q, sizes);
  a.fill_spd(rng);
  std::vector<std::vector<double>> aorig;
  for (int i = 0; i < a.count(); ++i) aorig.push_back(a.copy_matrix(i));

  // Build B = A · X_true.
  RectBatch<double> b(q, sizes, nrhs);
  std::vector<std::vector<double>> x_true;
  for (int i = 0; i < a.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    const int r = nrhs[static_cast<std::size_t>(i)];
    std::vector<double> x(static_cast<std::size_t>(n * r));
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    ConstMatrixView<double> av(aorig[static_cast<std::size_t>(i)].data(), n, n, n);
    ConstMatrixView<double> xv(x.data(), n, r, n);
    blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av, xv, 0.0, b.matrix(i));
    x_true.push_back(std::move(x));
  }

  potrf_vbatched<double>(q, Uplo::Lower, a);
  const auto r = potrs_vbatched<double>(q, Uplo::Lower, a, b);
  EXPECT_GT(r.seconds, 0.0);

  for (int i = 0; i < a.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    const int rr = nrhs[static_cast<std::size_t>(i)];
    auto bx = b.matrix(i);
    for (int c = 0; c < rr; ++c)
      for (int row = 0; row < n; ++row)
        EXPECT_NEAR(bx(row, c),
                    x_true[static_cast<std::size_t>(i)][static_cast<std::size_t>(row + c * n)],
                    1e-8);
  }
}

TEST(PosvVbatched, FactorsAndSolvesInOneCall) {
  Queue q;
  Rng rng(83);
  std::vector<int> sizes{16, 25};
  std::vector<int> nrhs{2, 2};
  Batch<double> a(q, sizes);
  a.fill_spd(rng);
  std::vector<std::vector<double>> aorig;
  for (int i = 0; i < a.count(); ++i) aorig.push_back(a.copy_matrix(i));

  RectBatch<double> b(q, sizes, nrhs);
  b.fill_general(rng);
  std::vector<std::vector<double>> borig;
  for (int i = 0; i < b.count(); ++i) borig.push_back(b.copy_matrix(i));

  const auto r = posv_vbatched<double>(q, Uplo::Lower, a, b);
  EXPECT_GT(r.flops, 0.0);

  // Check residual ‖A·X − B‖ per matrix.
  for (int i = 0; i < a.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    ConstMatrixView<double> av(aorig[static_cast<std::size_t>(i)].data(), n, n, n);
    auto x = b.matrix(i);
    std::vector<double> ax(static_cast<std::size_t>(n * 2));
    MatrixView<double> axv(ax.data(), n, 2, n);
    blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av,
                       ConstMatrixView<double>(x.data(), n, 2, x.ld()), 0.0, axv);
    for (int c = 0; c < 2; ++c)
      for (int row = 0; row < n; ++row)
        EXPECT_NEAR(axv(row, c),
                    borig[static_cast<std::size_t>(i)][static_cast<std::size_t>(row + c * n)],
                    1e-8);
  }
}

TEST(LauumReference, LowerMatchesExplicitProduct) {
  Rng rng(201);
  const int n = 13;
  std::vector<double> l(static_cast<std::size_t>(n * n), 0.0);
  MatrixView<double> lv(l.data(), n, n, n);
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) lv(i, j) = rng.uniform(0.5, 2.0);
  auto work = l;
  MatrixView<double> wv(work.data(), n, n, n);
  blas::lauum<double>(Uplo::Lower, wv);
  // Expected: (LᵀL)(i, j) for i >= j.
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) {
      double sum = 0.0;
      for (int k = i; k < n; ++k) sum += lv(k, i) * lv(k, j);
      EXPECT_NEAR(wv(i, j), sum, 1e-12) << i << "," << j;
    }
}

TEST(LauumReference, UpperMatchesExplicitProduct) {
  Rng rng(203);
  const int n = 11;
  std::vector<double> u(static_cast<std::size_t>(n * n), 0.0);
  MatrixView<double> uv(u.data(), n, n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) uv(i, j) = rng.uniform(0.5, 2.0);
  auto work = u;
  MatrixView<double> wv(work.data(), n, n, n);
  blas::lauum<double>(Uplo::Upper, wv);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) {
      double sum = 0.0;
      for (int k = j; k < n; ++k) sum += uv(i, k) * uv(j, k);
      EXPECT_NEAR(wv(i, j), sum, 1e-12) << i << "," << j;
    }
}

class PotriVbatchedTest : public ::testing::TestWithParam<Uplo> {};

TEST_P(PotriVbatchedTest, ProducesTrueInverses) {
  const Uplo uplo = GetParam();
  Queue q;
  Rng rng(207);
  std::vector<int> sizes{9, 26, 17, 1};
  Batch<double> a(q, sizes);
  a.fill_spd(rng);
  std::vector<std::vector<double>> aorig;
  for (int i = 0; i < a.count(); ++i) aorig.push_back(a.copy_matrix(i));

  potrf_vbatched<double>(q, uplo, a);
  const auto r = potri_vbatched<double>(q, uplo, a);
  EXPECT_GT(r.seconds, 0.0);

  // A · A⁻¹ == I using the symmetric completion of the inverse triangle.
  for (int idx = 0; idx < a.count(); ++idx) {
    const int n = sizes[static_cast<std::size_t>(idx)];
    auto inv_tri = a.matrix(idx);
    std::vector<double> inv(static_cast<std::size_t>(n) * n);
    MatrixView<double> iv(inv.data(), n, n, n);
    for (int c = 0; c < n; ++c)
      for (int rr = 0; rr < n; ++rr) {
        const bool in_tri = uplo == Uplo::Lower ? rr >= c : rr <= c;
        iv(rr, c) = in_tri ? inv_tri(rr, c) : inv_tri(c, rr);
      }
    ConstMatrixView<double> av(aorig[static_cast<std::size_t>(idx)].data(), n, n, n);
    for (int c = 0; c < n; ++c)
      for (int rr = 0; rr < n; ++rr) {
        double sum = 0.0;
        for (int k = 0; k < n; ++k) sum += av(rr, k) * iv(k, c);
        EXPECT_NEAR(sum, rr == c ? 1.0 : 0.0, 1e-9) << "matrix " << idx;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Uplos, PotriVbatchedTest,
                         ::testing::Values(Uplo::Lower, Uplo::Upper));

TEST(PotriVbatched, SkipsFailedFactorizations) {
  Queue q;
  Rng rng(209);
  std::vector<int> sizes{8, 8};
  Batch<double> a(q, sizes);
  a.fill_spd(rng);
  a.matrix(1)(4, 4) = -1e9;
  potrf_vbatched<double>(q, Uplo::Lower, a);
  ASSERT_GT(a.info()[1], 0);
  auto before = a.copy_matrix(1);
  potri_vbatched<double>(q, Uplo::Lower, a);
  EXPECT_EQ(a.copy_matrix(1), before);
}

TEST(PotrsVbatched, SkipsFailedFactorizations) {
  Queue q;
  Rng rng(89);
  std::vector<int> sizes{10, 10};
  std::vector<int> nrhs{1, 1};
  Batch<double> a(q, sizes);
  a.fill_spd(rng);
  a.matrix(1)(5, 5) = -1e9;  // matrix 1 will fail
  RectBatch<double> b(q, sizes, nrhs);
  b.fill_general(rng);
  auto b1_before = b.copy_matrix(1);

  potrf_vbatched<double>(q, Uplo::Lower, a);
  ASSERT_GT(a.info()[1], 0);
  potrs_vbatched<double>(q, Uplo::Lower, a, b);
  // The failed matrix's rhs must be left untouched.
  EXPECT_EQ(b.copy_matrix(1), b1_before);
}

// ---------------------------------------------------------------------------
// Pivot and tau arrays are bounds-checked on the host before any launch: one
// item per matrix, item i holding min(m_i, n_i) entries. The check reads the
// slab offsets, so it fires in TimingOnly mode too, and costs no modelled time.
// ---------------------------------------------------------------------------

void expect_rejected_before_launch(Queue& q, const char* routine,
                                   const std::function<void()>& call) {
  try {
    call();
    ADD_FAILURE() << routine << " accepted a mis-sized pivot/tau array";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArgument);
    EXPECT_NE(std::string(e.what()).find(routine), std::string::npos) << e.what();
  }
  EXPECT_EQ(q.device().timeline().size(), 0u) << routine;
  EXPECT_EQ(q.time(), 0.0) << routine;
}

const std::vector<int> kLuSizes{4, 9, 6};
const std::vector<int> kQrRows{7, 5, 9}, kQrCols{4, 5, 3}, kNrhs{2, 1, 3};

TEST(PivotTauBounds, GetrfRejectsMisSizedPivots) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> a(q, kLuSizes);
  PivotArrays one_item(q, std::vector<int>{4});
  PivotArrays short_item(q, std::vector<int>{4, 8, 6});
  expect_rejected_before_launch(q, "getrf_vbatched",
                                [&] { getrf_vbatched<double>(q, a, one_item); });
  expect_rejected_before_launch(q, "getrf_vbatched",
                                [&] { getrf_vbatched<double>(q, a, short_item); });
}

TEST(PivotTauBounds, GetrsRejectsMisSizedPivots) {
  // Full mode: a one-item pivot array on a three-matrix batch used to be read
  // past its end by the row interchanges.
  for (auto mode : {sim::ExecMode::Full, sim::ExecMode::TimingOnly}) {
    Queue q(sim::DeviceSpec::k40c(), mode);
    Batch<double> a(q, kLuSizes);
    RectBatch<double> b(q, kLuSizes, kNrhs);
    PivotArrays one_item(q, std::vector<int>{4});
    PivotArrays short_item(q, std::vector<int>{4, 9, 5});
    expect_rejected_before_launch(q, "getrs_vbatched",
                                  [&] { getrs_vbatched<double>(q, a, one_item, b); });
    expect_rejected_before_launch(q, "getrs_vbatched",
                                  [&] { getrs_vbatched<double>(q, a, short_item, b); });
  }
}

TEST(PivotTauBounds, GeqrfRejectsMisSizedTaus) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  RectBatch<double> a(q, kQrRows, kQrCols);
  TauArrays<double> two_items(q, std::vector<int>{4, 5});
  TauArrays<double> short_item(q, std::vector<int>{4, 5, 2});
  expect_rejected_before_launch(q, "geqrf_vbatched",
                                [&] { geqrf_vbatched<double>(q, a, two_items); });
  expect_rejected_before_launch(q, "geqrf_vbatched",
                                [&] { geqrf_vbatched<double>(q, a, short_item); });
}

TEST(PivotTauBounds, OrmqrRejectsMisSizedTaus) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  RectBatch<double> a(q, kQrRows, kQrCols);
  RectBatch<double> c(q, kQrRows, kNrhs);
  TauArrays<double> two_items(q, std::vector<int>{4, 5});
  TauArrays<double> short_item(q, std::vector<int>{3, 5, 3});
  expect_rejected_before_launch(q, "ormqr_vbatched",
                                [&] { ormqr_vbatched<double>(q, a, two_items, c); });
  expect_rejected_before_launch(q, "ormqr_vbatched",
                                [&] { ormqr_vbatched<double>(q, a, short_item, c); });
}

TEST(PivotTauBounds, GeqrsRejectsMisSizedTaus) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  RectBatch<double> a(q, kQrRows, kQrCols);
  RectBatch<double> b(q, kQrRows, kNrhs);
  TauArrays<double> two_items(q, std::vector<int>{4, 5});
  TauArrays<double> short_item(q, std::vector<int>{4, 4, 3});
  expect_rejected_before_launch(q, "geqrs_vbatched",
                                [&] { geqrs_vbatched<double>(q, a, two_items, b); });
  expect_rejected_before_launch(q, "geqrs_vbatched",
                                [&] { geqrs_vbatched<double>(q, a, short_item, b); });
}

// ---------------------------------------------------------------------------
// Launch shape of the rhs-strip solves: one block per (matrix, 8-column strip
// of its right-hand side). The batch has an empty operator (matrix 0), a
// failed factor (matrix 5, potrs/getrs only) and 1–11 right-hand sides, so
// matrices 9–11 span two strips.
// ---------------------------------------------------------------------------

const std::vector<int> kStripN{0, 6, 13, 20, 9, 31, 4, 17, 25, 11, 8, 2};
const std::vector<int> kStripNrhs{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
constexpr int kFailed = 5;

// Per-block (flops, bytes) of a live block on an m×n operator with nc rhs.
using StripCost = std::function<std::pair<double, double>(index_t m, index_t n, index_t nc)>;

void expect_strip_record(const Queue& q, const char* name, const std::vector<int>& m,
                         const std::vector<int>& n, bool has_info, int expected_exits,
                         const StripCost& cost) {
  const auto& recs = q.device().timeline().records();
  ASSERT_EQ(recs.size(), 1u) << name;
  const auto& rec = recs.front();
  const int rows = std::min(*std::max_element(m.begin(), m.end()), 512);
  const int warp = q.spec().warp_size;
  double flops = 0.0, bytes = 0.0;
  int exits = 0;
  for (std::size_t i = 0; i < n.size(); ++i)
    for (int c0 = 0; c0 < 16; c0 += 8) {
      const bool failed = has_info && static_cast<int>(i) == kFailed;
      if (m[i] == 0 || n[i] == 0 || c0 >= kStripNrhs[i] || failed) {
        ++exits;
        continue;
      }
      const auto [f, b] = cost(m[i], n[i], std::min(8, kStripNrhs[i] - c0));
      flops += f;
      bytes += b;
    }
  EXPECT_EQ(rec.name, name);
  EXPECT_EQ(rec.grid_blocks, 12 * 2) << name;
  EXPECT_EQ(rec.block_threads, (rows + warp - 1) / warp * warp) << name;
  EXPECT_EQ(rec.shared_mem, static_cast<std::size_t>(rows) * 8 * sizeof(double)) << name;
  EXPECT_EQ(exits, expected_exits) << name;
  EXPECT_EQ(rec.early_exits, exits) << name;
  EXPECT_EQ(rec.flops, flops) << name;
  EXPECT_EQ(rec.bytes, bytes) << name;
}

TEST(SolveStrips, PotrsLaunchShape) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> a(q, kStripN);
  RectBatch<double> b(q, kStripN, kStripNrhs);
  a.info()[kFailed] = 3;
  potrs_vbatched<double>(q, Uplo::Lower, a, b);
  expect_strip_record(q, "vbatched_potrs", kStripN, kStripN, true, 11,
                      [](index_t, index_t n, index_t nc) {
                        return std::pair{flops::potrs(n, nc),
                                         static_cast<double>(n * n / 2 + 2 * n * nc) * 8};
                      });
}

TEST(SolveStrips, GetrsLaunchShape) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> a(q, kStripN);
  RectBatch<double> b(q, kStripN, kStripNrhs);
  PivotArrays ipiv(q, kStripN);
  a.info()[kFailed] = 3;
  getrs_vbatched<double>(q, a, ipiv, b);
  expect_strip_record(q, "vbatched_getrs", kStripN, kStripN, true, 11,
                      [](index_t, index_t n, index_t nc) {
                        return std::pair{2.0 * flops::trsm(n, nc, true),
                                         static_cast<double>(n * n + 2 * n * nc) * 8};
                      });
}

// QR operators are m×n with m = n + 3, so matrix 0 is empty with 3 rows.
std::vector<int> strip_qr_rows() {
  std::vector<int> m = kStripN;
  for (int& v : m) v += 3;
  return m;
}

std::pair<double, double> apply_qt_cost(index_t m, index_t n, index_t nc) {
  return {4.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(nc),
          static_cast<double>(m * n + 2 * m * nc) * 8};
}

TEST(SolveStrips, OrmqrLaunchShape) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  const auto m = strip_qr_rows();
  RectBatch<double> a(q, m, kStripN);
  RectBatch<double> c(q, m, kStripNrhs);
  TauArrays<double> tau(q, kStripN);
  ormqr_vbatched<double>(q, a, tau, c);
  expect_strip_record(q, "vbatched_ormqr", m, kStripN, false, 10, apply_qt_cost);
}

TEST(SolveStrips, GeqrsLaunchShape) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  const auto m = strip_qr_rows();
  RectBatch<double> a(q, m, kStripN);
  RectBatch<double> b(q, m, kStripNrhs);
  TauArrays<double> tau(q, kStripN);
  geqrs_vbatched<double>(q, a, tau, b);
  expect_strip_record(q, "vbatched_geqrs", m, kStripN, false, 10,
                      [](index_t mi, index_t n, index_t nc) {
                        auto [f, b] = apply_qt_cost(mi, n, nc);
                        return std::pair{f + flops::trsm(n, nc, true), b};
                      });
}

}  // namespace
