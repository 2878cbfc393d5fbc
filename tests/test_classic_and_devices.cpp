// Tests for the classic pre-fusion building-block baseline (the Fig. 4
// comparator), the cost-model's property invariants, and the cross-device
// presets (K40c vs P100).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/core/potrf_classic.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/sim/scheduler.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;

// ---------------------------------------------------------------------------
// Classic building-block baseline numerics
// ---------------------------------------------------------------------------

class ClassicTest : public ::testing::TestWithParam<std::tuple<int, Uplo>> {};

TEST_P(ClassicTest, FactorsFixedBatchCorrectly) {
  const auto [n, uplo] = GetParam();
  Queue q;
  Rng rng(401);
  Batch<double> batch = Batch<double>::fixed(q, 12, n);
  batch.fill_spd(rng);
  std::vector<std::vector<double>> originals;
  for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));

  const auto r = potrf_batched_classic<double>(q, uplo, batch);
  EXPECT_GT(r.gflops(), 0.0);
  for (int i = 0; i < batch.count(); ++i) {
    ASSERT_EQ(batch.info()[static_cast<std::size_t>(i)], 0);
    ConstMatrixView<double> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
    EXPECT_LT(blas::potrf_residual<double>(uplo, orig, batch.matrix(i)), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ClassicTest,
                         ::testing::Combine(::testing::Values(5, 16, 40, 100),
                                            ::testing::Values(Uplo::Lower, Uplo::Upper)));

TEST(Classic, VariableSizesAndIdenticalFactorsToFused) {
  Rng size_rng(403);
  const auto sizes = uniform_sizes(size_rng, 20, 60);
  Queue q1, q2;
  Batch<double> b1(q1, sizes), b2(q2, sizes);
  Rng f1(405), f2(405);
  b1.fill_spd(f1);
  b2.fill_spd(f2);

  potrf_batched_classic<double>(q1, Uplo::Lower, b1);
  PotrfOptions fused;
  fused.path = PotrfPath::Fused;
  potrf_vbatched<double>(q2, Uplo::Lower, b2, fused);
  for (int i = 0; i < b1.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    auto a1 = b1.matrix(i);
    auto a2 = b2.matrix(i);
    for (int c = 0; c < n; ++c)
      for (int r = c; r < n; ++r) EXPECT_NEAR(a1(r, c), a2(r, c), 1e-11);
  }
}

/// The classic driver's factors and info are one blas::potrf per matrix,
/// bit for bit (lda padding included), whatever the blocking.
template <typename T>
void expect_classic_is_host_potrf(Uplo uplo, int nb) {
  const std::vector<int> sizes{0, 1, 7, 16, 23, 40, 65, 100, 130};
  Queue q;
  Batch<T> batch(q, sizes, 3);
  Rng rng(411);
  batch.fill_spd(rng);
  std::vector<std::vector<T>> want;
  for (int i = 0; i < batch.count(); ++i) {
    const T* p = batch.device_ptrs()[i];
    want.emplace_back(p, p + batch.ldas()[static_cast<std::size_t>(i)] *
                                 sizes[static_cast<std::size_t>(i)]);
  }
  potrf_batched_classic<T>(q, uplo, batch, ClassicOptions{nb});
  for (int i = 0; i < batch.count(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    const int n = sizes[k];
    EXPECT_EQ(batch.info()[k],
              blas::potrf<T>(uplo, MatrixView<T>(want[k].data(), n, n, batch.ldas()[k])));
    const std::size_t len = want[k].size() * sizeof(T);
    EXPECT_EQ(0, len == 0 ? 0 : std::memcmp(batch.device_ptrs()[i], want[k].data(), len))
        << "n=" << n << " nb=" << nb << " " << to_string(uplo);
  }
}

TEST(Classic, FactorsAreHostPotrfBitForBit) {
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
    for (int nb : {0, 8, 24}) {
      expect_classic_is_host_potrf<double>(uplo, nb);
      expect_classic_is_host_potrf<float>(uplo, nb);
    }
}

// ---------------------------------------------------------------------------
// Classic driver edge cases: non-finite and non-SPD inputs
// ---------------------------------------------------------------------------

/// One poison per matrix of order 100, set at (r, c) and (c, r) so either
/// triangle reads it, and the column the factorization must report. With
/// nb = 16 the tiles start at 0, 16, …, 96.
struct ClassicPoison {
  int r, c;
  double value;
  int info;
  const char* what;
};

template <typename T>
class ClassicEdgeCases : public ::testing::Test {
 protected:
  void TearDown() override { util::set_host_threads(0); }
};
using ClassicTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(ClassicEdgeCases, ClassicTypes);

/// info is the first failing column; each classic_potf2 launch exits the
/// blocks with j ≥ n_i or 0 < info_i ≤ j, each classic_trsm launch those
/// with no sub-panel or 0 < info_i ≤ j + ib_i; the factors' bytes (lda
/// padding included) are the same at 1 and 4 workers.
TYPED_TEST(ClassicEdgeCases, InfoAndEarlyExitsFollowTheFailingColumn) {
  using T = TypeParam;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<ClassicPoison> poisons{
      {0, 0, 0.0, 0, "clean"},
      {3, 3, -1e6, 4, "non-SPD pivot inside the first tile"},
      {31, 31, -1e6, 32, "non-SPD pivot ending a tile"},
      {32, 32, -1e6, 33, "non-SPD pivot at a tile boundary"},
      {98, 98, -1e6, 99, "non-SPD pivot inside the last tile"},
      {40, 5, kNaN, 41, "NaN below the diagonal"},
      {50, 50, kNaN, 51, "NaN on the diagonal"},
      {60, 20, kInf, 61, "+Inf below the diagonal"},
      {70, 70, -kInf, 71, "-Inf on the diagonal"},
      {80, 80, kInf, 0, "+Inf on the diagonal (a finite factor's inf pivot)"},
  };
  std::vector<int> sizes(poisons.size(), 100);
  sizes.push_back(0);
  sizes.push_back(40);
  constexpr int kNb = 16;

  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    std::vector<std::vector<unsigned char>> bytes;
    for (unsigned threads : {1u, 4u}) {
      util::set_host_threads(threads);
      Queue q;
      Batch<T> batch(q, sizes, 3);
      Rng rng(409);
      batch.fill_spd(rng);
      for (std::size_t k = 1; k < poisons.size(); ++k) {
        const ClassicPoison& p = poisons[k];
        batch.matrix(static_cast<int>(k))(p.r, p.c) = static_cast<T>(p.value);
        batch.matrix(static_cast<int>(k))(p.c, p.r) = static_cast<T>(p.value);
      }
      potrf_batched_classic<T>(q, uplo, batch, ClassicOptions{kNb});

      const auto info = batch.info();
      for (std::size_t k = 0; k < poisons.size(); ++k)
        EXPECT_EQ(info[k], poisons[k].info) << poisons[k].what << ", " << to_string(uplo);
      EXPECT_EQ(info[poisons.size()], 0);
      EXPECT_EQ(info[poisons.size() + 1], 0);

      int potf2_step = 0, trsm_step = 0;
      for (const sim::KernelRecord& rec : q.device().timeline().records()) {
        const bool potf2 = rec.name == "classic_potf2";
        if (!potf2 && rec.name != "classic_trsm") continue;
        const int j = (potf2 ? potf2_step++ : trsm_step++) * kNb;
        int want = 0;
        for (std::size_t i = 0; i < sizes.size(); ++i) {
          const int ib = std::clamp(sizes[i] - j, 0, kNb);
          const int last = potf2 ? j : j + ib;
          const bool no_work = ib == 0 || (!potf2 && sizes[i] - j - ib <= 0);
          if (no_work || (info[i] > 0 && info[i] <= last)) ++want;
        }
        EXPECT_EQ(rec.early_exits, want) << rec.name << " at j = " << j << ", "
                                         << to_string(uplo);
      }
      EXPECT_EQ(potf2_step, 7);
      EXPECT_EQ(trsm_step, 6);

      bytes.emplace_back();
      for (int i = 0; i < batch.count(); ++i) {
        const auto k = static_cast<std::size_t>(i);
        const auto* p = reinterpret_cast<const unsigned char*>(batch.device_ptrs()[i]);
        bytes.back().insert(bytes.back().end(), p,
                            p + sizeof(T) * static_cast<std::size_t>(batch.ldas()[k]) *
                                    static_cast<std::size_t>(std::max(1, sizes[k])));
      }
    }
    EXPECT_TRUE(bytes[0] == bytes[1]) << to_string(uplo);
  }
}

TEST(Classic, NonSpdReportsGlobalIndex) {
  Queue q;
  Rng rng(407);
  Batch<double> batch = Batch<double>::fixed(q, 3, 24);
  batch.fill_spd(rng);
  batch.matrix(1)(20, 20) = -1e9;
  potrf_batched_classic<double>(q, Uplo::Lower, batch);
  EXPECT_EQ(batch.info()[0], 0);
  EXPECT_EQ(batch.info()[1], 21);
  EXPECT_EQ(batch.info()[2], 0);
}

TEST(Classic, UsesManyMoreLaunchesThanFused) {
  // The defining overhead of the pre-fusion approach (§III-D motivation).
  Rng size_rng(409);
  const auto sizes = uniform_sizes(size_rng, 50, 96);
  Queue q1(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Queue q2(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> b1(q1, sizes), b2(q2, sizes);
  potrf_batched_classic<double>(q1, Uplo::Lower, b1);
  PotrfOptions fused;
  fused.path = PotrfPath::Fused;
  fused.implicit_sorting = false;
  potrf_vbatched<double>(q2, Uplo::Lower, b2, fused);
  EXPECT_GT(q1.device().timeline().size(), 2 * q2.device().timeline().size());
}

// ---------------------------------------------------------------------------
// Cost-model property invariants
// ---------------------------------------------------------------------------

sim::BlockCost cost_with(double flops, double bytes, int active, int live) {
  sim::BlockCost c;
  c.flops = flops;
  c.bytes = bytes;
  c.active_threads = active;
  c.live_threads = live;
  return c;
}

TEST(CostModel, MonotoneInFlops) {
  const auto spec = sim::DeviceSpec::k40c();
  double prev = 0.0;
  for (double f : {1e3, 1e4, 1e5, 1e6, 1e7}) {
    const double t = sim::block_seconds(spec, Precision::Double, 4, cost_with(f, 0, 64, 64));
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, MonotoneInBytes) {
  const auto spec = sim::DeviceSpec::k40c();
  double prev = 0.0;
  for (double b : {1e4, 1e5, 1e6, 1e7}) {
    const double t = sim::block_seconds(spec, Precision::Double, 4, cost_with(0, b, 64, 64));
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, MoreActiveThreadsNeverSlower) {
  const auto spec = sim::DeviceSpec::k40c();
  double prev = 1e9;
  for (int threads : {1, 2, 4, 8, 16, 32, 64}) {
    const double t =
        sim::block_seconds(spec, Precision::Double, 1, cost_with(1e6, 0, threads, threads));
    EXPECT_LE(t, prev);
    prev = t;
  }
}

TEST(CostModel, SinglePrecisionFasterThanDouble) {
  const auto spec = sim::DeviceSpec::k40c();
  const auto c = cost_with(1e6, 0, 256, 256);
  EXPECT_LT(sim::block_seconds(spec, Precision::Single, 4, c),
            sim::block_seconds(spec, Precision::Double, 4, c));
}

TEST(CostModel, LatencyCyclesAddDirectly) {
  const auto spec = sim::DeviceSpec::k40c();
  auto base = cost_with(1e5, 0, 32, 32);
  const double t0 = sim::block_seconds(spec, Precision::Double, 1, base);
  base.latency_cycles = 10000.0;
  const double t1 = sim::block_seconds(spec, Precision::Double, 1, base);
  EXPECT_NEAR(t1 - t0, 10000.0 * spec.cycle_seconds(), 1e-12);
}

// ---------------------------------------------------------------------------
// Device presets
// ---------------------------------------------------------------------------

TEST(DevicePresets, P100PeaksMatchPublishedFigures) {
  const auto p = sim::DeviceSpec::p100();
  EXPECT_NEAR(p.peak_gflops(Precision::Double), 4759.6, 5.0);
  EXPECT_NEAR(p.peak_gflops(Precision::Single), 9519.1, 10.0);
  EXPECT_GT(p.mem_bandwidth_gbps, sim::DeviceSpec::k40c().mem_bandwidth_gbps);
}

TEST(DevicePresets, NewerDeviceRunsTheSameWorkloadFaster) {
  Rng size_rng(411);
  const auto sizes = uniform_sizes(size_rng, 500, 256);
  Queue kepler(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Queue pascal(sim::DeviceSpec::p100(), sim::ExecMode::TimingOnly);
  Batch<double> b1(kepler, sizes), b2(pascal, sizes);
  const auto r1 = potrf_vbatched<double>(kepler, Uplo::Lower, b1);
  const auto r2 = potrf_vbatched<double>(pascal, Uplo::Lower, b2);
  EXPECT_GT(r2.gflops(), r1.gflops() * 1.5);
}

TEST(DevicePresets, NumericsIdenticalAcrossDevices) {
  Rng size_rng(413);
  const auto sizes = uniform_sizes(size_rng, 15, 50);
  Queue kepler(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
  Queue pascal(sim::DeviceSpec::p100(), sim::ExecMode::Full);
  Batch<double> b1(kepler, sizes), b2(pascal, sizes);
  Rng f1(415), f2(415);
  b1.fill_spd(f1);
  b2.fill_spd(f2);
  potrf_vbatched<double>(kepler, Uplo::Lower, b1);
  potrf_vbatched<double>(pascal, Uplo::Lower, b2);
  for (int i = 0; i < b1.count(); ++i) EXPECT_EQ(b1.copy_matrix(i), b2.copy_matrix(i));
}

}  // namespace
