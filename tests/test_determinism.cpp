// Determinism of the parallel host execution engine.
//
// The engine's contract: the host worker count is a wall-clock knob only.
// Per-block costs are merged in block-index order after every functor has
// run, and each block writes only its own output region, so factors, info
// arrays and modelled times must be BIT-identical at 1, 2 and
// hardware_concurrency() worker threads — for both potrf paths and both
// size distributions, at a batch count large enough to trip the parallel
// grid path (grids >= the device's parallel grain).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;

constexpr int kBatch = 512;
constexpr int kNmax = 96;

struct RunOutput {
  std::vector<std::vector<double>> factors;
  std::vector<int> info;
  double seconds = 0.0;
  PotrfPath path = PotrfPath::Auto;
};

RunOutput run_workload(unsigned threads, PotrfPath path, SizeDist dist) {
  util::set_host_threads(threads);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
  Rng size_rng(101);
  const auto sizes = make_sizes(dist, size_rng, kBatch, kNmax);
  Batch<double> batch(q, sizes);
  Rng data_rng(202);
  batch.fill_spd(data_rng);

  PotrfOptions opts;
  opts.path = path;
  const PotrfResult r = potrf_vbatched<double>(q, Uplo::Lower, batch, opts);

  RunOutput out;
  out.seconds = r.seconds;
  out.path = r.path_taken;
  out.info.assign(batch.info().begin(), batch.info().end());
  for (int i = 0; i < batch.count(); ++i) out.factors.push_back(batch.copy_matrix(i));
  return out;
}

void expect_bit_identical(const RunOutput& a, const RunOutput& b, unsigned threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.info, b.info);
  // Exact bit comparison, not EXPECT_DOUBLE_EQ tolerance semantics.
  EXPECT_EQ(std::memcmp(&a.seconds, &b.seconds, sizeof(double)), 0)
      << "modelled seconds differ: " << a.seconds << " vs " << b.seconds;
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (std::size_t i = 0; i < a.factors.size(); ++i) {
    ASSERT_EQ(a.factors[i].size(), b.factors[i].size());
    EXPECT_EQ(std::memcmp(a.factors[i].data(), b.factors[i].data(),
                          a.factors[i].size() * sizeof(double)),
              0)
        << "factor " << i << " differs";
  }
}

class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<PotrfPath, SizeDist>> {
 protected:
  void TearDown() override { util::set_host_threads(0); }  // restore default
};

TEST_P(DeterminismTest, ThreadCountNeverChangesResults) {
  const auto [path, dist] = GetParam();
  const RunOutput base = run_workload(1, path, dist);
  // Sanity: the workload actually factorized (not all-empty / all-failed).
  int ok = 0;
  for (int v : base.info) ok += (v == 0);
  EXPECT_GT(ok, kBatch / 2);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned threads : {2u, hw}) {
    const RunOutput par = run_workload(threads, path, dist);
    expect_bit_identical(base, par, threads);
  }
}

std::string param_name(const ::testing::TestParamInfo<DeterminismTest::ParamType>& info) {
  const auto [path, dist] = info.param;
  std::string name = path == PotrfPath::Fused ? "Fused" : "Separated";
  name += dist == SizeDist::Uniform ? "Uniform" : "Gaussian";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    PathsAndDists, DeterminismTest,
    ::testing::Combine(::testing::Values(PotrfPath::Fused, PotrfPath::Separated),
                       ::testing::Values(SizeDist::Uniform, SizeDist::Gaussian)),
    param_name);

TEST(Determinism, EnvVariableSelectsDefaultThreadCount) {
  // VBATCH_NUM_THREADS is read when the pool is first built; set_host_threads
  // overrides it. Both must agree with host_threads().
  util::set_host_threads(2);
  EXPECT_EQ(util::host_threads(), 2u);
  util::set_host_threads(0);
  EXPECT_GE(util::host_threads(), 1u);
  // A malformed value falls back to the hardware default like any invalid one.
  const char* saved = std::getenv("VBATCH_NUM_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("VBATCH_NUM_THREADS", "3", 1), 0);
  util::set_host_threads(0);
  EXPECT_EQ(util::host_threads(), 3u);
  ASSERT_EQ(setenv("VBATCH_NUM_THREADS", "3x", 1), 0);
  util::set_host_threads(0);
  EXPECT_EQ(util::host_threads(), std::clamp(std::thread::hardware_concurrency(), 1u, 64u));
  if (saved != nullptr) setenv("VBATCH_NUM_THREADS", restore.c_str(), 1);
  else unsetenv("VBATCH_NUM_THREADS");
  util::set_host_threads(0);
}

}  // namespace
