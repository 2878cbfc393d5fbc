// Tests for the CPU baselines (§IV-F) and the energy models (§IV-G).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/cpu/cpu_batched.hpp"
#include "vbatch/cpu/perf_model.hpp"
#include "vbatch/energy/energy_meter.hpp"
#include "vbatch/energy/power_model.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;
using cpu::CpuSpec;
using cpu::Schedule;

// ---------------------------------------------------------------------------
// Performance model properties
// ---------------------------------------------------------------------------

TEST(CpuModel, PeaksMatchSandyBridge) {
  const auto s = CpuSpec::dual_e5_2670();
  EXPECT_NEAR(s.total_peak_gflops(Precision::Double), 332.8, 1.0);
  EXPECT_NEAR(s.total_peak_gflops(Precision::Single), 665.6, 1.0);
}

TEST(CpuModel, EfficiencyRampsWithSize) {
  const auto s = CpuSpec::dual_e5_2670();
  double prev = 0.0;
  for (int n : {8, 16, 32, 64, 128, 256, 512, 1024}) {
    const double e = s.lapack_efficiency(Precision::Double, n);
    EXPECT_GT(e, prev);
    EXPECT_LT(e, 1.0);
    prev = e;
  }
  EXPECT_LT(s.lapack_efficiency(Precision::Double, 16), 0.3);
  EXPECT_GT(s.lapack_efficiency(Precision::Double, 512), 0.7);
}

TEST(CpuModel, ParallelEfficiencyPunishesSmallMatrices) {
  const auto s = CpuSpec::dual_e5_2670();
  EXPECT_LT(s.parallel_efficiency(64), 0.05);
  EXPECT_GT(s.parallel_efficiency(2000), 0.9);
}

TEST(CpuModel, MultithreadedSlowerThanSixteenSequentialForSmall) {
  // For n=64, 16 matrices: one-core-per-matrix beats all-cores-per-matrix.
  const auto s = CpuSpec::dual_e5_2670();
  const double work = flops::potrf(64);
  const double per_core = s.core_seconds(Precision::Double, 64, work);  // 16 run in parallel
  const double mt = 16.0 * s.multithreaded_seconds(Precision::Double, 64, work);
  EXPECT_LT(per_core, mt);
}

// ---------------------------------------------------------------------------
// CPU batched baselines
// ---------------------------------------------------------------------------

struct CpuProblem {
  std::vector<int> n, lda;
  std::vector<std::vector<double>> data, orig;
  std::vector<double*> ptrs;
  std::vector<int> info;

  explicit CpuProblem(const std::vector<int>& sizes, std::uint64_t seed) : n(sizes) {
    Rng rng(seed);
    for (int s : n) {
      lda.push_back(std::max(1, s));
      data.emplace_back(static_cast<std::size_t>(std::max(1, s) * std::max(1, s)));
      if (s > 0) fill_spd(rng, data.back().data(), s, s);
      orig.push_back(data.back());
    }
    for (auto& d : data) ptrs.push_back(d.data());
    info.assign(n.size(), 0);
  }

  void check_factors() const {
    for (std::size_t i = 0; i < n.size(); ++i) {
      ASSERT_EQ(info[i], 0);
      if (n[i] == 0) continue;
      ConstMatrixView<double> o(orig[i].data(), n[i], n[i], n[i]);
      ConstMatrixView<double> f(data[i].data(), n[i], n[i], n[i]);
      EXPECT_LT(blas::potrf_residual<double>(Uplo::Lower, o, f), 1e-13);
    }
  }
};

class CpuScheduleTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(CpuScheduleTest, PerCoreFactorsCorrectly) {
  Rng rng(3);
  auto sizes = uniform_sizes(rng, 40, 64);
  CpuProblem prob(sizes, 7);
  const auto r = cpu::potrf_batched_per_core<double>(CpuSpec::dual_e5_2670(), GetParam(),
                                                     Uplo::Lower, prob.n, prob.ptrs.data(),
                                                     prob.lda, prob.info, true);
  EXPECT_GT(r.gflops(), 0.0);
  prob.check_factors();
}

INSTANTIATE_TEST_SUITE_P(Schedules, CpuScheduleTest,
                         ::testing::Values(Schedule::Static, Schedule::Dynamic));

TEST(CpuBatched, DynamicNeverSlowerThanStatic) {
  // Adversarial ordering: big matrices all land on the same static core.
  std::vector<int> sizes;
  for (int i = 0; i < 160; ++i) sizes.push_back(i % 16 == 0 ? 256 : 16);
  CpuProblem prob(sizes, 11);
  const auto spec = CpuSpec::dual_e5_2670();
  const auto st = cpu::potrf_batched_per_core<double>(spec, Schedule::Static, Uplo::Lower,
                                                      prob.n, prob.ptrs.data(), prob.lda,
                                                      prob.info, false);
  const auto dy = cpu::potrf_batched_per_core<double>(spec, Schedule::Dynamic, Uplo::Lower,
                                                      prob.n, prob.ptrs.data(), prob.lda,
                                                      prob.info, false);
  EXPECT_LT(dy.seconds, st.seconds * 0.35);  // 16 size-256 tasks on one core vs spread
}

TEST(CpuBatched, MultithreadedFactorsCorrectlyButLags) {
  Rng rng(13);
  auto sizes = uniform_sizes(rng, 30, 96);
  CpuProblem prob(sizes, 17);
  const auto spec = CpuSpec::dual_e5_2670();
  const auto mt = cpu::potrf_batched_multithreaded<double>(spec, Uplo::Lower, prob.n,
                                                           prob.ptrs.data(), prob.lda,
                                                           prob.info, true);
  prob.check_factors();
  const auto dy = cpu::potrf_batched_per_core<double>(spec, Schedule::Dynamic, Uplo::Lower,
                                                      prob.n, prob.ptrs.data(), prob.lda,
                                                      prob.info, false);
  EXPECT_GT(mt.seconds, dy.seconds);  // §IV-F: multithreaded "lags behind"
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(500, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  util::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel_for issued from inside a worker must not deadlock on the
  // shared queue: it runs inline on the calling worker.
  util::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](int outer) {
    pool.parallel_for(8, [&](int inner) {
      hits[static_cast<std::size_t>(outer * 8 + inner)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HostPoolHonorsSetHostThreads) {
  const unsigned before = util::host_threads();
  util::set_host_threads(3);
  EXPECT_EQ(util::host_threads(), 3u);
  EXPECT_EQ(util::host_pool().size(), 3u);
  util::set_host_threads(before);
}

// ---------------------------------------------------------------------------
// Energy (§IV-G)
// ---------------------------------------------------------------------------

TEST(PowerModel, IdleAndPeakBounds) {
  const auto gpu = energy::PowerModel::k40c();
  EXPECT_DOUBLE_EQ(gpu.watts(0.0), gpu.idle_watts);
  EXPECT_DOUBLE_EQ(gpu.watts(1.0), gpu.max_watts);
  EXPECT_GT(gpu.watts(0.5), gpu.idle_watts);
  EXPECT_LT(gpu.watts(0.5), gpu.max_watts);
}

TEST(PowerModel, MonotoneInUtilization) {
  const auto cpu = energy::PowerModel::dual_e5_2670();
  double prev = -1.0;
  for (double u : {0.0, 0.1, 0.3, 0.5, 0.8, 1.0}) {
    const double w = cpu.watts(u);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST(Energy, GpuRunIntegratesTimeline) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Rng rng(5);
  auto sizes = uniform_sizes(rng, 200, 128);
  Batch<double> batch(q, sizes);
  potrf_vbatched<double>(q, Uplo::Lower, batch);

  const auto e = energy::gpu_run_energy(q.spec(), energy::PowerModel::k40c(),
                                        energy::PowerModel::dual_e5_2670(),
                                        q.device().timeline(), Precision::Double);
  EXPECT_GT(e.joules, 0.0);
  EXPECT_GT(e.seconds, 0.0);
  // Average power within physical bounds (GPU active + CPU idle).
  EXPECT_GT(e.avg_watts(), energy::PowerModel::k40c().idle_watts);
  EXPECT_LT(e.avg_watts(), 235.0 + 290.0);
}

TEST(Energy, CpuRunChargesGpuIdle) {
  const auto e = energy::cpu_run_energy(energy::PowerModel::dual_e5_2670(),
                                        energy::PowerModel::k40c(), 2.0, 100.0, 333.0);
  EXPECT_DOUBLE_EQ(e.seconds, 2.0);
  EXPECT_GT(e.joules, 2.0 * (70.0 + 25.0));  // above combined idle
}

TEST(Energy, FasterRunAtSamePowerUsesLessEnergy) {
  const auto cpu = energy::PowerModel::dual_e5_2670();
  const auto gpu_idle = energy::PowerModel::k40c();
  const auto slow = energy::cpu_run_energy(cpu, gpu_idle, 4.0, 50.0, 333.0);
  const auto fast = energy::cpu_run_energy(cpu, gpu_idle, 1.0, 200.0, 333.0);
  EXPECT_LT(fast.joules, slow.joules);
}

TEST(Energy, GpuMoreEfficientThanCpuOnBatchedWorkload) {
  // The §IV-G headline: for a vbatched dpotrf workload, GPU energy-to-
  // solution beats the best CPU implementation (up to ~3×).
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Rng rng(7);
  auto sizes = uniform_sizes(rng, 800, 256);
  Batch<double> batch(q, sizes);
  potrf_vbatched<double>(q, Uplo::Lower, batch);
  const auto gpu_e = energy::gpu_run_energy(q.spec(), energy::PowerModel::k40c(),
                                            energy::PowerModel::dual_e5_2670(),
                                            q.device().timeline(), Precision::Double);

  const auto cpu_spec = CpuSpec::dual_e5_2670();
  std::vector<int> lda(sizes.begin(), sizes.end());
  std::vector<int> info(sizes.size(), 0);
  std::vector<double*> nullptrs(sizes.size(), nullptr);
  const auto cpu_r = cpu::potrf_batched_per_core<double>(cpu_spec, Schedule::Dynamic,
                                                         Uplo::Lower, sizes, nullptrs.data(),
                                                         lda, info, false);
  const auto cpu_e = energy::cpu_run_energy(energy::PowerModel::dual_e5_2670(),
                                            energy::PowerModel::k40c(), cpu_r.seconds,
                                            cpu_r.gflops(),
                                            cpu_spec.total_peak_gflops(Precision::Double));
  EXPECT_LT(gpu_e.joules, cpu_e.joules);
}

}  // namespace
