// Randomized property sweeps: for a grid of seeds, draw a random workload
// (distribution, batch count, size range, lda padding) and random solver
// options, run the full vbatched pipeline, and check the invariants that
// must hold for ANY configuration:
//   * every info code is zero for SPD inputs;
//   * every factor reproduces its matrix (residual below tolerance);
//   * factor-then-solve returns the original solution;
//   * the modelled time is positive and finite, and the device clock
//     advanced by exactly the run's duration;
//   * TimingOnly mode reports the same modelled seconds as Full mode.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/core/geqrf_vbatched.hpp"
#include "vbatch/core/getrf_vbatched.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/potrs_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"

namespace {

using namespace vbatch;

struct RandomConfig {
  std::vector<int> sizes;
  int lda_pad;
  PotrfOptions opts;
  Uplo uplo;
};

RandomConfig draw_config(std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  RandomConfig cfg;
  const auto dist = rng.uniform() < 0.5 ? SizeDist::Uniform : SizeDist::Gaussian;
  const int batch = static_cast<int>(rng.uniform_int(5, 60));
  const int nmax = static_cast<int>(rng.uniform_int(4, 110));
  cfg.sizes = make_sizes(dist, rng, batch, nmax);
  cfg.lda_pad = static_cast<int>(rng.uniform_int(0, 5));
  cfg.opts.path = rng.uniform() < 0.5 ? PotrfPath::Fused : PotrfPath::Separated;
  cfg.opts.etm = rng.uniform() < 0.5 ? EtmMode::Classic : EtmMode::Aggressive;
  cfg.opts.implicit_sorting = rng.uniform() < 0.5;
  cfg.opts.streamed_syrk = rng.uniform() < 0.3;
  cfg.uplo = rng.uniform() < 0.5 ? Uplo::Lower : Uplo::Upper;
  return cfg;
}

class PotrfPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PotrfPropertyTest, RandomWorkloadSatisfiesAllInvariants) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const RandomConfig cfg = draw_config(seed);

  Queue q;
  Batch<double> batch(q, cfg.sizes, cfg.lda_pad);
  Rng fill(seed + 99);
  batch.fill_spd(fill);
  std::vector<std::vector<double>> originals;
  for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));

  const double clock_before = q.time();
  const auto r = potrf_vbatched<double>(q, cfg.uplo, batch, cfg.opts);

  // Timing invariants.
  ASSERT_TRUE(std::isfinite(r.seconds));
  ASSERT_GT(r.seconds, 0.0);
  EXPECT_NEAR(q.time() - clock_before, r.seconds, r.seconds * 1e-12);
  EXPECT_DOUBLE_EQ(r.flops, batch.potrf_flops());

  // Numerical invariants.
  for (int i = 0; i < batch.count(); ++i) {
    ASSERT_EQ(batch.info()[static_cast<std::size_t>(i)], 0)
        << "seed " << seed << " matrix " << i;
    const int n = cfg.sizes[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    ConstMatrixView<double> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
    EXPECT_LT(blas::potrf_residual<double>(cfg.uplo, orig, batch.matrix(i)), 1e-12)
        << "seed " << seed << " matrix " << i;
  }

  // Factor-then-solve round trip on a random rhs.
  std::vector<int> nrhs(cfg.sizes.size(), 2);
  RectBatch<double> b(q, cfg.sizes, nrhs);
  std::vector<std::vector<double>> x_true;
  for (int i = 0; i < batch.count(); ++i) {
    const int n = cfg.sizes[static_cast<std::size_t>(i)];
    std::vector<double> x(static_cast<std::size_t>(n) * 2);
    for (auto& v : x) v = fill.uniform(-1.0, 1.0);
    if (n > 0) {
      ConstMatrixView<double> av(originals[static_cast<std::size_t>(i)].data(), n, n, n);
      ConstMatrixView<double> xv(x.data(), n, 2, n);
      blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av, xv, 0.0, b.matrix(i));
    }
    x_true.push_back(std::move(x));
  }
  potrs_vbatched<double>(q, cfg.uplo, batch, b);
  for (int i = 0; i < batch.count(); ++i) {
    const int n = cfg.sizes[static_cast<std::size_t>(i)];
    auto x = b.matrix(i);
    for (int c = 0; c < 2; ++c)
      for (int row = 0; row < n; ++row)
        EXPECT_NEAR(x(row, c),
                    x_true[static_cast<std::size_t>(i)][static_cast<std::size_t>(row + c * n)],
                    1e-7)
            << "seed " << seed;
  }

  // Timing-only agreement: the cost model must not depend on the data.
  Queue qt(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> bt(qt, cfg.sizes, cfg.lda_pad);
  const auto rt = potrf_vbatched<double>(qt, cfg.uplo, bt, cfg.opts);
  EXPECT_NEAR(rt.seconds, r.seconds, r.seconds * 1e-9) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PotrfPropertyTest, ::testing::Range(1, 13));

class LuQrPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LuQrPropertyTest, RandomLuAndQrBatchesFactorCorrectly) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 40503u + 7);
  const int batch = static_cast<int>(rng.uniform_int(4, 25));
  const int nmax = static_cast<int>(rng.uniform_int(6, 80));

  // LU on square matrices.
  {
    auto sizes = uniform_sizes(rng, batch, nmax);
    Queue q;
    Batch<double> a(q, sizes);
    for (int i = 0; i < a.count(); ++i) {
      const int n = sizes[static_cast<std::size_t>(i)];
      fill_general(rng, a.matrix(i).data(), n, n, a.ldas()[static_cast<std::size_t>(i)]);
    }
    std::vector<std::vector<double>> originals;
    for (int i = 0; i < a.count(); ++i) originals.push_back(a.copy_matrix(i));
    PivotArrays ipiv(q, sizes);
    getrf_vbatched<double>(q, a, ipiv);
    for (int i = 0; i < a.count(); ++i) {
      if (a.info()[static_cast<std::size_t>(i)] != 0) continue;  // exact singularity is legal
      const int n = sizes[static_cast<std::size_t>(i)];
      ConstMatrixView<double> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
      EXPECT_LT(blas::getrf_residual<double>(orig, a.matrix(i), ipiv.item(i)), 1e-11)
          << "seed " << seed;
    }
  }

  // QR on tall matrices.
  {
    auto cols = uniform_sizes(rng, batch, nmax);
    std::vector<int> rows(cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i)
      rows[i] = cols[i] + static_cast<int>(rng.uniform_int(0, 20));
    Queue q;
    RectBatch<double> a(q, rows, cols);
    a.fill_general(rng);
    std::vector<std::vector<double>> originals;
    for (int i = 0; i < a.count(); ++i) originals.push_back(a.copy_matrix(i));
    std::vector<int> mn(cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i) mn[i] = std::min(rows[i], cols[i]);
    TauArrays<double> tau(q, mn);
    geqrf_vbatched<double>(q, a, tau);
    for (int i = 0; i < a.count(); ++i) {
      const int m = rows[static_cast<std::size_t>(i)];
      const int n = cols[static_cast<std::size_t>(i)];
      ConstMatrixView<double> orig(originals[static_cast<std::size_t>(i)].data(), m, n, m);
      EXPECT_LT(blas::geqrf_residual<double>(orig, a.matrix(i), tau.item(i)), 1e-11)
          << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuQrPropertyTest, ::testing::Range(1, 9));

}  // namespace
