// End-to-end tests for the vbatched Cholesky: both interfaces, both
// algorithmic paths, all ETM/sorting variants, fixed-size batches, the
// padding adapter, crossover dispatch, failure injection and device-memory
// exhaustion.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/core/blas_vbatched.hpp"
#include "vbatch/core/crossover.hpp"
#include "vbatch/core/geqrf_vbatched.hpp"
#include "vbatch/core/getrf_vbatched.hpp"
#include "vbatch/core/hybrid.hpp"
#include "vbatch/core/padding.hpp"
#include "vbatch/core/potrf_batched_fixed.hpp"
#include "vbatch/core/potrf_classic.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/potrs_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/hetero/device_pool.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;

template <typename T>
void check_batch_factors(Queue& q, Batch<T>& batch, const std::vector<std::vector<T>>& originals,
                         Uplo uplo, double tol) {
  ASSERT_TRUE(q.full());
  for (int i = 0; i < batch.count(); ++i) {
    ASSERT_EQ(batch.info()[static_cast<std::size_t>(i)], 0) << "matrix " << i;
    const int n = batch.sizes()[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    ConstMatrixView<T> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
    const double res = blas::potrf_residual<T>(uplo, orig, batch.matrix(i));
    EXPECT_LT(res, tol) << "matrix " << i << " (n=" << n << ")";
  }
}

template <typename T>
std::vector<std::vector<T>> snapshot(Batch<T>& batch) {
  std::vector<std::vector<T>> out;
  out.reserve(static_cast<std::size_t>(batch.count()));
  for (int i = 0; i < batch.count(); ++i) out.push_back(batch.copy_matrix(i));
  return out;
}

// ---------------------------------------------------------------------------
// Numerical correctness across every option combination.
// ---------------------------------------------------------------------------

struct VariantParam {
  PotrfPath path;
  EtmMode etm;
  bool sorting;
  bool streamed;
  Uplo uplo;
};

class PotrfVariantTest : public ::testing::TestWithParam<VariantParam> {};

TEST_P(PotrfVariantTest, FactorsWholeRandomBatch) {
  const auto p = GetParam();
  Queue q;
  Rng rng(2024);
  auto sizes = uniform_sizes(rng, 60, 96);
  sizes[0] = 0;  // empty matrix must be handled
  Batch<double> batch(q, sizes);
  batch.fill_spd(rng);
  const auto originals = snapshot(batch);

  PotrfOptions opts;
  opts.path = p.path;
  opts.etm = p.etm;
  opts.implicit_sorting = p.sorting;
  opts.streamed_syrk = p.streamed;
  const auto result = potrf_vbatched<double>(q, p.uplo, batch, opts);

  EXPECT_GT(result.seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.flops, batch.potrf_flops());
  check_batch_factors(q, batch, originals, p.uplo, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, PotrfVariantTest,
    ::testing::Values(
        VariantParam{PotrfPath::Fused, EtmMode::Classic, false, false, Uplo::Lower},
        VariantParam{PotrfPath::Fused, EtmMode::Aggressive, false, false, Uplo::Lower},
        VariantParam{PotrfPath::Fused, EtmMode::Classic, true, false, Uplo::Lower},
        VariantParam{PotrfPath::Fused, EtmMode::Aggressive, true, false, Uplo::Lower},
        VariantParam{PotrfPath::Fused, EtmMode::Aggressive, true, false, Uplo::Upper},
        VariantParam{PotrfPath::Separated, EtmMode::Classic, false, false, Uplo::Lower},
        VariantParam{PotrfPath::Separated, EtmMode::Classic, false, true, Uplo::Lower},
        VariantParam{PotrfPath::Separated, EtmMode::Classic, false, false, Uplo::Upper},
        VariantParam{PotrfPath::Auto, EtmMode::Aggressive, true, false, Uplo::Lower}));

TEST(PotrfVbatched, AllVariantsProduceIdenticalFactors) {
  // ETMs and sorting are scheduling concerns; the arithmetic must be
  // bit-identical across fused variants.
  Rng size_rng(7);
  const auto sizes = uniform_sizes(size_rng, 40, 80);
  std::vector<std::vector<double>> reference;
  bool first = true;
  for (EtmMode etm : {EtmMode::Classic, EtmMode::Aggressive}) {
    for (bool sorting : {false, true}) {
      Queue q;
      Batch<double> batch(q, sizes);
      Rng fill(99);
      batch.fill_spd(fill);
      PotrfOptions opts;
      opts.path = PotrfPath::Fused;
      opts.etm = etm;
      opts.implicit_sorting = sorting;
      potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
      auto snap = snapshot(batch);
      if (first) {
        reference = std::move(snap);
        first = false;
      } else {
        EXPECT_EQ(snap, reference) << to_string(etm) << " sorting=" << sorting;
      }
    }
  }
}

TEST(PotrfVbatched, GaussianDistributionBatch) {
  Queue q;
  Rng rng(31);
  auto sizes = gaussian_sizes(rng, 50, 120);
  Batch<double> batch(q, sizes);
  batch.fill_spd(rng);
  const auto originals = snapshot(batch);
  const auto result = potrf_vbatched<double>(q, Uplo::Lower, batch);
  EXPECT_GT(result.gflops(), 0.0);
  check_batch_factors(q, batch, originals, Uplo::Lower, 1e-12);
}

TEST(PotrfVbatched, SinglePrecision) {
  Queue q;
  Rng rng(33);
  auto sizes = uniform_sizes(rng, 30, 64);
  Batch<float> batch(q, sizes);
  batch.fill_spd(rng);
  const auto originals = snapshot(batch);
  potrf_vbatched<float>(q, Uplo::Lower, batch);
  check_batch_factors(q, batch, originals, Uplo::Lower, 2e-5);
}

class PaddedLdaTest : public ::testing::TestWithParam<PotrfPath> {};

TEST_P(PaddedLdaTest, IndependentLeadingDimensionsRespected) {
  // §III-A: every matrix has an independent leading dimension. A non-zero
  // pad makes lda_i != n_i for every matrix; any kernel that conflates the
  // two corrupts results or the padding.
  Queue q;
  Rng rng(222);
  auto sizes = uniform_sizes(rng, 30, 90);
  Batch<double> batch(q, sizes, /*lda_pad=*/7);
  for (int i = 0; i < batch.count(); ++i) {
    EXPECT_EQ(batch.ldas()[static_cast<std::size_t>(i)],
              std::max(1, sizes[static_cast<std::size_t>(i)] + 7));
  }
  batch.fill_spd(rng);
  const auto originals = snapshot(batch);

  PotrfOptions opts;
  opts.path = GetParam();
  potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
  check_batch_factors(q, batch, originals, Uplo::Lower, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Paths, PaddedLdaTest,
                         ::testing::Values(PotrfPath::Fused, PotrfPath::Separated));

// ---------------------------------------------------------------------------
// Interface pair (§III-A)
// ---------------------------------------------------------------------------

TEST(PotrfVbatched, MaxInterfaceMatchesLapackLikeInterface) {
  Rng size_rng(55);
  const auto sizes = uniform_sizes(size_rng, 25, 70);

  Queue q1, q2;
  Batch<double> b1(q1, sizes), b2(q2, sizes);
  Rng f1(5), f2(5);
  b1.fill_spd(f1);
  b2.fill_spd(f2);

  potrf_vbatched<double>(q1, Uplo::Lower, b1);
  potrf_vbatched_max<double>(q2, Uplo::Lower, b2, 70);
  for (int i = 0; i < b1.count(); ++i) EXPECT_EQ(b1.copy_matrix(i), b2.copy_matrix(i));
}

TEST(PotrfVbatched, LapackLikeInterfaceLaunchesMaxReduction) {
  Queue q;
  Rng rng(11);
  auto sizes = uniform_sizes(rng, 20, 50);
  Batch<double> batch(q, sizes);
  batch.fill_spd(rng);
  potrf_vbatched<double>(q, Uplo::Lower, batch);
  EXPECT_GE(q.device().timeline().count_with_prefix("aux_imax_reduce"), 1u);
}

TEST(PotrfVbatched, MaxOverheadIsNegligible) {
  // §III-A: "In most cases, the overhead of computing the maximum is
  // negligible." Compare device times of the two interfaces.
  Rng size_rng(77);
  const auto sizes = uniform_sizes(size_rng, 800, 128);
  Queue q1(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Queue q2(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> b1(q1, sizes), b2(q2, sizes);
  const double t0_1 = q1.time();
  potrf_vbatched<double>(q1, Uplo::Lower, b1);
  const double lapack_like = q1.time() - t0_1;
  const double t0_2 = q2.time();
  potrf_vbatched_max<double>(q2, Uplo::Lower, b2, 128);
  const double expert = q2.time() - t0_2;
  EXPECT_LT(lapack_like, expert * 1.05);
}

// ---------------------------------------------------------------------------
// Crossover policy (§IV-E)
// ---------------------------------------------------------------------------

TEST(Crossover, FeasibilityBoundsExceedCrossover) {
  const auto spec = sim::DeviceSpec::k40c();
  EXPECT_GT(fused_feasible_max(spec, sizeof(double)), 500);
  EXPECT_GE(crossover_max_size(spec, Precision::Single),
            crossover_max_size(spec, Precision::Double));
  EXPECT_LE(crossover_max_size(spec, Precision::Double),
            fused_feasible_max(spec, sizeof(double)));
}

TEST(Crossover, AutoPathSelectsByMaxSize) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Rng rng(3);
  {
    auto sizes = uniform_sizes(rng, 50, 64);
    Batch<double> small(q, sizes);
    const auto r = potrf_vbatched<double>(q, Uplo::Lower, small);
    EXPECT_EQ(r.path_taken, PotrfPath::Fused);
  }
  {
    auto sizes = uniform_sizes(rng, 50, 1500);
    Batch<double> large(q, sizes);
    const auto r = potrf_vbatched<double>(q, Uplo::Lower, large);
    EXPECT_EQ(r.path_taken, PotrfPath::Separated);
  }
}

TEST(Crossover, OverrideRespected) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Rng rng(4);
  auto sizes = uniform_sizes(rng, 50, 200);
  Batch<double> batch(q, sizes);
  PotrfOptions opts;
  opts.crossover = 100;  // force separated for a 200-max batch
  const auto r = potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
  EXPECT_EQ(r.path_taken, PotrfPath::Separated);
}

TEST(Crossover, FusedPathRejectsInfeasibleSizes) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Rng rng(5);
  auto sizes = uniform_sizes(rng, 10, 2000);
  Batch<double> batch(q, sizes);
  PotrfOptions opts;
  opts.path = PotrfPath::Fused;
  EXPECT_THROW(potrf_vbatched<double>(q, Uplo::Lower, batch, opts), Error);
}

/// Full mode runs the call's numerics before the launches, so a pinned
/// fused plan past the device's bound must be rejected before them: the
/// matrices are left as they were.
TEST(Crossover, RejectedFusedCallLeavesTheBatchUntouched) {
  Queue q;
  const std::vector<int> sizes{800, 16};
  Batch<double> batch(q, sizes);
  Rng rng(5);
  batch.fill_spd(rng);
  const std::vector<double> big = batch.copy_matrix(0), small = batch.copy_matrix(1);
  PotrfOptions opts;
  opts.path = PotrfPath::Fused;
  EXPECT_THROW(potrf_vbatched<double>(q, Uplo::Lower, batch, opts), Error);
  EXPECT_TRUE(batch.copy_matrix(0) == big);
  EXPECT_TRUE(batch.copy_matrix(1) == small);
}

// ---------------------------------------------------------------------------
// One potrf plan for a single device and the pool
// ---------------------------------------------------------------------------

/// Per type: a batch maximum and a crossover override past the element
/// size's fused bound on a K40c (complex elements are twice their
/// precision's scalar, so their bound is tighter than the precision's).
template <typename T>
struct PastFusedBound;
template <>
struct PastFusedBound<float> {
  static constexpr int max_n = 1050, crossover = 1100;
};
template <>
struct PastFusedBound<double> {
  static constexpr int max_n = 760, crossover = 800;
};
template <>
struct PastFusedBound<std::complex<float>> {
  static constexpr int max_n = 900, crossover = 1000;
};
template <>
struct PastFusedBound<std::complex<double>> {
  static constexpr int max_n = 380, crossover = 400;
};

template <typename T>
class PotrfPlan : public ::testing::Test {};
using PlanTypes =
    ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(PotrfPlan, PlanTypes);

TYPED_TEST(PotrfPlan, SingleDeviceAndPoolAgree) {
  using T = TypeParam;
  const int big = PastFusedBound<T>::max_n;
  struct Case {
    std::vector<int> sizes;
    int crossover;
  };
  const Case cases[] = {{{96, 40, 0, 71, 5, 64}, 0},
                        {{big, big * 2 / 3, 33, big / 3, 1}, PastFusedBound<T>::crossover}};
  for (const Case& c : cases) {
    SCOPED_TRACE("max n " + std::to_string(c.sizes[0]) + ", crossover " +
                 std::to_string(c.crossover));
    PotrfOptions opts;
    opts.crossover = c.crossover;

    Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
    Batch<T> single(q, c.sizes);
    Rng fill_single(71);
    single.fill_spd(fill_single);
    const PotrfResult one = potrf_vbatched<T>(q, Uplo::Lower, single, opts);

    Queue host(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
    Batch<T> pooled(host, c.sizes);
    Rng fill_pooled(71);
    pooled.fill_spd(fill_pooled);
    hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
    hetero::HeteroOptions hopts;
    hopts.potrf = opts;
    const hetero::HeteroResult many = hetero::potrf_vbatched_hetero<T>(pool, Uplo::Lower,
                                                                       pooled, hopts);

    EXPECT_EQ(one.path_taken, many.path_taken);
    // Past the element-size bound, Auto runs separated on both fronts.
    if (c.crossover > 0) {
      EXPECT_EQ(one.path_taken, PotrfPath::Separated);
    }
    for (int i = 0; i < single.count(); ++i) {
      const auto k = static_cast<std::size_t>(i);
      EXPECT_EQ(single.info()[k], 0) << "matrix " << i;
      EXPECT_EQ(single.info()[k], pooled.info()[k]) << "matrix " << i;
      const std::vector<T> a = single.copy_matrix(i);
      const std::vector<T> b = pooled.copy_matrix(i);
      ASSERT_EQ(a.size(), b.size());
      if (a.empty()) continue;  // an n = 0 matrix has no factor bits
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T))) << "matrix " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The triangle LAPACK does not reference
// ---------------------------------------------------------------------------

/// NaN in every component (both parts for complex scalars).
template <typename T>
T all_nan() {
  const real_t<T> nan = std::numeric_limits<real_t<T>>::quiet_NaN();
  if constexpr (is_complex_v<T>) {
    return T(nan, nan);
  } else {
    return nan;
  }
}

/// Writes `v` into the strict triangle of `a` opposite to `uplo`.
template <typename T>
void fill_unreferenced(MatrixView<T> a, Uplo uplo, T v) {
  for (index_t c = 0; c < a.cols(); ++c)
    for (index_t r = 0; r < a.rows(); ++r)
      if (uplo == Uplo::Lower ? r < c : r > c) a(r, c) = v;
}

struct FactorRun {
  PotrfPath path;
  Uplo uplo;
  bool pooled;  ///< the k40c DevicePool instead of a single k40c queue
};

/// One Full-mode factorization of a fixed SPD batch; `edit(i, a)` alters each
/// non-empty matrix first. Returns every matrix (n×n, packed) and the info.
template <typename T, typename Edit>
std::pair<std::vector<std::vector<T>>, std::vector<int>> factor_edited(
    const FactorRun& run, const std::vector<int>& sizes, Edit edit) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
  Batch<T> batch(q, sizes);
  Rng rng(83);
  batch.fill_spd(rng);
  for (int i = 0; i < batch.count(); ++i)
    if (sizes[static_cast<std::size_t>(i)] > 0) edit(i, batch.matrix(i));
  PotrfOptions opts;
  opts.path = run.path;
  if (run.pooled) {
    hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
    hetero::HeteroOptions hopts;
    hopts.potrf = opts;
    hetero::potrf_vbatched_hetero<T>(pool, run.uplo, batch, hopts);
  } else {
    potrf_vbatched<T>(q, run.uplo, batch, opts);
  }
  const auto info = batch.info();
  return {snapshot(batch), std::vector<int>(info.begin(), info.end())};
}

/// Every (path, uplo, front) combination, each under a SCOPED_TRACE.
template <typename F>
void for_each_run(F body) {
  for (PotrfPath path : {PotrfPath::Fused, PotrfPath::Separated})
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (bool pooled : {false, true}) {
        SCOPED_TRACE(std::string(path == PotrfPath::Fused ? "fused " : "separated ") +
                     std::string(to_string(uplo)) + (pooled ? " k40c pool" : " single k40c"));
        body(FactorRun{path, uplo, pooled});
      }
}

template <typename T>
class PotrfUnreferencedTriangle : public ::testing::Test {};
TYPED_TEST_SUITE(PotrfUnreferencedTriangle, PlanTypes);

// Sizes span several separated panels (NB 64 or 96), ragged trtri blocks and
// the degenerate extents.
const std::vector<int> kUnrefSizes{200, 150, 97, 70, 33, 1, 0};

TYPED_TEST(PotrfUnreferencedTriangle, NaNFillChangesNoBit) {
  using T = TypeParam;
  for_each_run([](const FactorRun& run) {
    const auto clean = factor_edited<T>(run, kUnrefSizes, [](int, MatrixView<T>) {});
    const auto dirty = factor_edited<T>(run, kUnrefSizes, [&](int, MatrixView<T> a) {
      fill_unreferenced(a, run.uplo, all_nan<T>());
    });
    EXPECT_EQ(clean.second, std::vector<int>(kUnrefSizes.size(), 0));
    EXPECT_EQ(clean.second, dirty.second);
    for (std::size_t i = 0; i < kUnrefSizes.size(); ++i) {
      // The factor must match bit for bit, and the NaN triangle stay as filled.
      std::vector<T> expect = clean.first[i];
      const index_t n = kUnrefSizes[i];
      fill_unreferenced(MatrixView<T>(expect.data(), n, n, std::max<index_t>(n, 1)), run.uplo,
                        all_nan<T>());
      ASSERT_EQ(expect.size(), dirty.first[i].size());
      if (expect.empty()) continue;
      EXPECT_EQ(0, std::memcmp(expect.data(), dirty.first[i].data(), expect.size() * sizeof(T)))
          << "matrix " << i << " (n=" << n << ")";
    }
  });
}

TYPED_TEST(PotrfUnreferencedTriangle, NonFiniteReferencedEntryInfoMatchesBlasPotrf) {
  using T = TypeParam;
  const real_t<T> inf = std::numeric_limits<real_t<T>>::infinity();
  // (matrix, row, col) in Lower terms, mirrored for Upper: a late diagonal,
  // entries whose row and column fall in different panels, one inside a
  // diagonal panel, and the 1×1 matrix. Matrix 4 stays finite.
  struct Poke {
    int i;
    index_t r, c;
    T v;
  };
  const Poke pokes[] = {{0, 150, 150, all_nan<T>()},
                        {1, 120, 40, T(inf)},
                        {2, 80, 70, all_nan<T>()},
                        {3, 69, 3, T(-inf)},
                        {5, 0, 0, all_nan<T>()}};
  for_each_run([&](const FactorRun& run) {
    std::vector<std::vector<T>> originals(kUnrefSizes.size());
    auto edit = [&](int i, MatrixView<T> a) {
      fill_unreferenced(a, run.uplo, all_nan<T>());
      for (const Poke& p : pokes)
        if (p.i == i) (run.uplo == Uplo::Lower ? a(p.r, p.c) : a(p.c, p.r)) = p.v;
      const index_t n = a.rows();
      auto& o = originals[static_cast<std::size_t>(i)];
      o.resize(static_cast<std::size_t>(n * n));
      for (index_t c = 0; c < n; ++c)
        for (index_t r = 0; r < n; ++r) o[static_cast<std::size_t>(r + c * n)] = a(r, c);
    };
    const auto got = factor_edited<T>(run, kUnrefSizes, edit);
    for (std::size_t i = 0; i < kUnrefSizes.size(); ++i) {
      const index_t n = kUnrefSizes[i];
      const int want =
          n == 0 ? 0 : blas::potrf<T>(run.uplo, MatrixView<T>(originals[i].data(), n, n, n));
      EXPECT_EQ(got.second[i], want) << "matrix " << i << " (n=" << n << ")";
      if (i == 4) {
        EXPECT_EQ(want, 0);
      } else if (n > 0) {
        EXPECT_GT(want, 0) << "matrix " << i;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Tuning-option overrides
// ---------------------------------------------------------------------------

TEST(PotrfOptions, ExplicitBlockingOverridesProduceSameFactors) {
  Rng size_rng(61);
  const auto sizes = uniform_sizes(size_rng, 25, 80);
  std::vector<std::vector<double>> reference;
  bool first = true;
  for (int nb : {8, 16, 24}) {
    Queue q;
    Batch<double> batch(q, sizes);
    Rng fill(63);
    batch.fill_spd(fill);
    PotrfOptions opts;
    opts.path = PotrfPath::Fused;
    opts.fused_nb = nb;
    potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
    // Different blockings change the operation order (different rounding),
    // so compare against the reference factorization numerically.
    for (int i = 0; i < batch.count(); ++i) {
      ASSERT_EQ(batch.info()[static_cast<std::size_t>(i)], 0);
    }
    auto snap = snapshot(batch);
    if (first) {
      reference = snap;
      first = false;
    } else {
      // Compare the lower factors only: like LAPACK, the content above the
      // diagonal is unspecified after a Lower factorization (the fused
      // panel update sweeps through it).
      for (std::size_t i = 0; i < snap.size(); ++i) {
        const int n = sizes[i];
        for (int c = 0; c < n; ++c)
          for (int r = c; r < n; ++r)
            EXPECT_NEAR(snap[i][static_cast<std::size_t>(r + c * n)],
                        reference[i][static_cast<std::size_t>(r + c * n)], 1e-10)
                << "matrix " << i;
      }
    }
  }
}

TEST(PotrfOptions, SeparatedNbOverrideRespected) {
  Rng size_rng(65);
  const auto sizes = uniform_sizes(size_rng, 20, 200);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> batch(q, sizes);
  PotrfOptions opts;
  opts.path = PotrfPath::Separated;
  opts.separated_nb = 32;
  potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
  // NB = 32 over max 200 -> ceil(200/32) = 7 panel phases; with the default
  // NB = 64 there would be only 4. Count the panel launches (one per
  // internal nb_inner step per phase).
  const auto panels = q.device().timeline().count_with_prefix("vbatched_potf2_panel");
  EXPECT_GE(panels, 7u);
}

TEST(PotrfOptions, SortWindowOverrideChangesLaunchShape) {
  Rng size_rng(67);
  const auto sizes = uniform_sizes(size_rng, 600, 128);
  auto run_with_window = [&](int window) {
    Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
    Batch<double> batch(q, sizes);
    PotrfOptions opts;
    opts.path = PotrfPath::Fused;
    opts.implicit_sorting = true;
    opts.sort_window = window;
    potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
    return q.device().timeline().count_with_prefix("fused_potrf_step");
  };
  // A window as wide as the whole range degenerates to one launch per step;
  // narrow windows split steps into several launches.
  EXPECT_GT(run_with_window(16), run_with_window(128));
}

TEST(PotrfOptions, StreamedSyrkChangesKernelMix) {
  Rng size_rng(69);
  const auto sizes = uniform_sizes(size_rng, 50, 400);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> batch(q, sizes);
  PotrfOptions opts;
  opts.path = PotrfPath::Separated;
  opts.streamed_syrk = true;
  potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
  EXPECT_GT(q.device().timeline().count_with_prefix("streamed_syrk"), 0u);
  EXPECT_EQ(q.device().timeline().count_with_prefix("vbatched_syrk"), 0u);
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

class NonSpdTest : public ::testing::TestWithParam<PotrfPath> {};

TEST_P(NonSpdTest, InfoIdentifiesOnlyTheBadMatrix) {
  Queue q;
  Rng rng(13);
  std::vector<int> sizes{40, 56, 48};
  Batch<double> batch(q, sizes);
  batch.fill_spd(rng);
  // Break SPD-ness of matrix 1 at a late pivot.
  batch.matrix(1)(50, 50) = -1e9;
  const auto originals = snapshot(batch);

  PotrfOptions opts;
  opts.path = GetParam();
  potrf_vbatched<double>(q, Uplo::Lower, batch, opts);

  EXPECT_EQ(batch.info()[0], 0);
  EXPECT_EQ(batch.info()[1], 51);
  EXPECT_EQ(batch.info()[2], 0);
  // Healthy matrices still factored correctly.
  ConstMatrixView<double> o0(originals[0].data(), 40, 40, 40);
  EXPECT_LT(blas::potrf_residual<double>(Uplo::Lower, o0, batch.matrix(0)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Paths, NonSpdTest,
                         ::testing::Values(PotrfPath::Fused, PotrfPath::Separated));

// ---------------------------------------------------------------------------
// Fixed-size batched + padding adapter (§IV-F)
// ---------------------------------------------------------------------------

TEST(PotrfBatchedFixed, FactorsUniformBatch) {
  Queue q;
  Rng rng(17);
  Batch<double> batch = Batch<double>::fixed(q, 20, 48);
  batch.fill_spd(rng);
  const auto originals = snapshot(batch);
  const auto r = potrf_batched_fixed<double>(q, Uplo::Lower, batch);
  EXPECT_GT(r.gflops(), 0.0);
  check_batch_factors(q, batch, originals, Uplo::Lower, 1e-12);
}

TEST(PotrfBatchedFixed, RejectsMixedSizes) {
  Queue q;
  std::vector<int> sizes{16, 17};
  Batch<double> batch(q, sizes);
  EXPECT_THROW(potrf_batched_fixed<double>(q, Uplo::Lower, batch), Error);
}

TEST(Padding, FactorsMatchDirectVbatched) {
  Rng size_rng(19);
  const auto sizes = uniform_sizes(size_rng, 15, 40);

  Queue q1, q2;
  Batch<double> direct(q1, sizes), padded(q2, sizes);
  Rng f1(21), f2(21);
  direct.fill_spd(f1);
  padded.fill_spd(f2);

  potrf_vbatched<double>(q1, Uplo::Lower, direct);
  const auto r = potrf_vbatched_via_padding<double>(q2, Uplo::Lower, padded, 40);
  EXPECT_GT(r.executed_flops, r.useful_flops);

  for (int i = 0; i < direct.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    auto a = direct.matrix(i);
    auto b = padded.matrix(i);
    for (int c = 0; c < n; ++c)
      for (int rr = c; rr < n; ++rr) EXPECT_NEAR(a(rr, c), b(rr, c), 1e-10);
  }
}

TEST(Padding, ExhaustsDeviceMemoryLikeThePaper) {
  // batch=800 at Nmax=2000 in double needs 800·2000²·8 B = 25.6 GB > 12 GB.
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Rng rng(23);
  auto sizes = uniform_sizes(rng, 800, 2000);
  Batch<double> batch(q, sizes);
  try {
    potrf_vbatched_via_padding<double>(q, Uplo::Lower, batch, 2000);
    FAIL() << "expected OutOfDeviceMemory";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::OutOfDeviceMemory);
  }
  // The direct vbatched factorization of the same batch fits comfortably.
  EXPECT_NO_THROW(potrf_vbatched<double>(q, Uplo::Lower, batch));
}

// ---------------------------------------------------------------------------
// Hybrid baseline
// ---------------------------------------------------------------------------

TEST(Hybrid, FactorsCorrectlyAndSlowly) {
  Queue q;
  Rng rng(29);
  auto sizes = uniform_sizes(rng, 12, 60);
  Batch<double> batch(q, sizes);
  batch.fill_spd(rng);
  const auto originals = snapshot(batch);

  const auto hybrid = potrf_hybrid_sequence<double>(q, cpu::CpuSpec::dual_e5_2670(),
                                                    Uplo::Lower, batch);
  check_batch_factors(q, batch, originals, Uplo::Lower, 1e-12);

  // The hybrid path must be far slower than vbatched on this workload.
  Queue q2(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> b2(q2, sizes);
  const auto direct = potrf_vbatched<double>(q2, Uplo::Lower, b2);
  EXPECT_GT(hybrid.seconds, direct.seconds * 3.0);
}

// ---------------------------------------------------------------------------
// Timing-mode / Full-mode agreement
// ---------------------------------------------------------------------------

/// Bit equality of two kernel records, field by field (memcmp on the
/// doubles, so -0.0 vs 0.0 or a last-ulp drift shows).
bool same_record(const sim::KernelRecord& a, const sim::KernelRecord& b) {
  auto bits = [](const auto& x, const auto& y) { return std::memcmp(&x, &y, sizeof(x)) == 0; };
  return a.name == b.name && bits(a.start, b.start) && bits(a.end, b.end) &&
         a.grid_blocks == b.grid_blocks && a.block_threads == b.block_threads &&
         a.shared_mem == b.shared_mem && a.resident_per_sm == b.resident_per_sm &&
         bits(a.flops, b.flops) && bits(a.bytes, b.bytes) && a.early_exits == b.early_exits &&
         a.stream == b.stream && a.fault == b.fault;
}

/// The launch contract: TimingOnly runs the cost passes and nothing else,
/// and no cost reads what a numerics pass writes, so a Full run's timeline
/// is the TimingOnly timeline, record for record and bit for bit.
template <typename T>
void expect_timing_only_matches_full(PotrfPath path, Uplo uplo, const char* type,
                                     bool streamed_syrk = false) {
  // Around both separated panel widths (64 and 96), plus a spread to 300.
  std::vector<int> sizes{0, 1, 63, 64, 65, 95, 96, 97, 128, 129, 191, 192, 193, 300};
  Rng size_rng(41);
  for (int n : uniform_sizes(size_rng, 12, 300)) sizes.push_back(n);

  Queue qf(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
  Queue qt(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<T> bf(qf, sizes), bt(qt, sizes);
  Rng fill(1);
  bf.fill_spd(fill);
  PotrfOptions opts;
  opts.path = path;
  opts.streamed_syrk = streamed_syrk;

  const auto rf = potrf_vbatched<T>(qf, uplo, bf, opts);
  const auto rt = potrf_vbatched<T>(qt, uplo, bt, opts);
  const std::string what = std::string(to_string(path)) + (streamed_syrk ? "/streamed" : "") +
                           (uplo == Uplo::Lower ? "/L/" : "/U/") + type;
  for (int info : bf.info()) ASSERT_EQ(info, 0) << what;
  EXPECT_EQ(0, std::memcmp(&rf.seconds, &rt.seconds, sizeof(double))) << what;
  const auto& full = qf.device().timeline().records();
  const auto& timing = qt.device().timeline().records();
  ASSERT_EQ(full.size(), timing.size()) << what;
  for (std::size_t r = 0; r < full.size(); ++r)
    ASSERT_TRUE(same_record(full[r], timing[r])) << what << ": record " << r << " ("
                                                 << full[r].name << ")";
}

TEST(PotrfVbatched, TimingOnlyMatchesFullModeSeconds) {
  for (PotrfPath path : {PotrfPath::Fused, PotrfPath::Separated})
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      expect_timing_only_matches_full<float>(path, uplo, "s");
      expect_timing_only_matches_full<double>(path, uplo, "d");
      expect_timing_only_matches_full<std::complex<float>>(path, uplo, "c");
      expect_timing_only_matches_full<std::complex<double>>(path, uplo, "z");
    }
  // The streamed syrk shares the vbatched syrk's cost-only launch contract.
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    expect_timing_only_matches_full<float>(PotrfPath::Separated, uplo, "s", true);
    expect_timing_only_matches_full<double>(PotrfPath::Separated, uplo, "d", true);
    expect_timing_only_matches_full<std::complex<float>>(PotrfPath::Separated, uplo, "c", true);
    expect_timing_only_matches_full<std::complex<double>>(PotrfPath::Separated, uplo, "z", true);
  }
}

// ---------------------------------------------------------------------------
// The launch contract on every front other than potrf
// ---------------------------------------------------------------------------

/// One run of the drivers: the device timeline and, in Full mode, every
/// output byte (factors, info, pivots, tau, solutions) in call order.
struct ContractRun {
  std::vector<sim::KernelRecord> records;
  std::vector<unsigned char> bytes;
};

template <typename T>
ContractRun run_contract_drivers(sim::ExecMode mode) {
  constexpr bool real = !is_complex_v<T>;
  // Ragged around the panel widths, with empty matrices; 40 matrices, so
  // every per-matrix grid is past the pool grain.
  std::vector<int> sizes{0, 1, 7, 8, 9, 31, 32, 33, 64, 65, 0, 97};
  Rng size_rng(43);
  for (int n : uniform_sizes(size_rng, 28, 120)) sizes.push_back(n);
  std::vector<int> nrhs, rows, cols;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    nrhs.push_back(static_cast<int>(k % 11));          // includes 0 rhs
    rows.push_back(sizes[k] + static_cast<int>(k % 5));  // m ≥ n for QR
    cols.push_back(static_cast<int>((sizes[k] * 7 + 3) % 90));
  }

  Queue q(sim::DeviceSpec::k40c(), mode);
  ContractRun run;
  auto keep = [&run, &q](auto& batch) {
    for (int v : batch.info()) {
      EXPECT_EQ(v, 0);
      run.bytes.insert(run.bytes.end(), reinterpret_cast<const unsigned char*>(&v),
                       reinterpret_cast<const unsigned char*>(&v + 1));
    }
    if (!q.full()) return;
    for (int i = 0; i < batch.count(); ++i) {
      const std::vector<T> m = batch.copy_matrix(i);
      const auto* p = reinterpret_cast<const unsigned char*>(m.data());
      run.bytes.insert(run.bytes.end(), p, p + m.size() * sizeof(T));
    }
  };
  auto keep_slab = [&run, &q](const auto& slab) {
    if (!q.full()) return;
    for (int i = 0; i < slab.count(); ++i) {
      const auto* p = reinterpret_cast<const unsigned char*>(slab.item(i).data());
      run.bytes.insert(run.bytes.end(), p, p + slab.item(i).size_bytes());
    }
  };
  Rng fill(5);

  Batch<T> spd(q, sizes);
  spd.fill_spd(fill);
  RectBatch<T> rhs(q, sizes, nrhs);
  rhs.fill_general(fill);
  posv_vbatched<T>(q, Uplo::Lower, spd, rhs, {});
  potrs_vbatched<T>(q, Uplo::Lower, spd, rhs);
  potri_vbatched<T>(q, Uplo::Lower, spd);
  keep(spd);
  keep(rhs);

  RectBatch<T> a(q, rows, sizes), b(q, sizes, cols), c(q, rows, cols);
  a.fill_general(fill);
  b.fill_general(fill);
  c.fill_general(fill);
  gemm_vbatched<T>(q, Trans::NoTrans, Trans::NoTrans, T(1.5f), a, b, T(0.5f), c);
  keep(c);

  if constexpr (real) {
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      Batch<T> classic(q, sizes);
      classic.fill_spd(fill);
      potrf_batched_classic<T>(q, uplo, classic);
      keep(classic);
    }

    Batch<T> lu(q, sizes);
    lu.fill_general(fill);
    PivotArrays ipiv(q, sizes);
    RectBatch<T> lu_rhs(q, sizes, nrhs);
    lu_rhs.fill_general(fill);
    getrf_vbatched<T>(q, lu, ipiv);
    getrs_vbatched<T>(q, lu, ipiv, lu_rhs);
    keep(lu);
    keep(lu_rhs);
    keep_slab(ipiv);

    RectBatch<T> qr(q, rows, sizes);
    qr.fill_general(fill);
    TauArrays<T> tau(q, sizes);
    RectBatch<T> qt_rhs(q, rows, nrhs), ls_rhs(q, rows, nrhs);
    qt_rhs.fill_general(fill);
    ls_rhs.fill_general(fill);
    geqrf_vbatched<T>(q, qr, tau);
    ormqr_vbatched<T>(q, qr, tau, qt_rhs);
    geqrs_vbatched<T>(q, qr, tau, ls_rhs);
    keep(qr);
    keep(qt_rhs);
    keep(ls_rhs);
    keep_slab(tau);
  }
  run.records = q.device().timeline().records();
  return run;
}

template <typename T>
class LaunchContract : public ::testing::Test {
 protected:
  void TearDown() override { util::set_host_threads(0); }
};

using ContractTypes = ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(LaunchContract, ContractTypes);

/// Launches report, each front's numerics pass computes: TimingOnly
/// records the Full run's timeline bit for bit, and the Full outputs do not
/// depend on how many workers ran the numerics.
TYPED_TEST(LaunchContract, TimingOnlyMatchesFull) {
  util::set_host_threads(1);
  const ContractRun serial = run_contract_drivers<TypeParam>(sim::ExecMode::Full);
  util::set_host_threads(4);
  const ContractRun pooled = run_contract_drivers<TypeParam>(sim::ExecMode::Full);
  const ContractRun timing = run_contract_drivers<TypeParam>(sim::ExecMode::TimingOnly);

  ASSERT_FALSE(serial.bytes.empty());
  ASSERT_EQ(serial.bytes.size(), pooled.bytes.size());
  EXPECT_EQ(0, std::memcmp(serial.bytes.data(), pooled.bytes.data(), serial.bytes.size()));
  for (const ContractRun* other : {&pooled, &timing}) {
    ASSERT_EQ(serial.records.size(), other->records.size());
    for (std::size_t r = 0; r < serial.records.size(); ++r)
      ASSERT_TRUE(same_record(serial.records[r], other->records[r]))
          << "record " << r << " (" << serial.records[r].name << ")";
  }
}

}  // namespace
