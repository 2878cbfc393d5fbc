// vbatch::hetero — the multi-device heterogeneous runtime.
//
// The load-bearing guarantee under test: the heterogeneous path produces
// BIT-IDENTICAL factors and info arrays to the single-device path, for
// every pool composition, partition policy, steal schedule and seed. The
// partitioner and scheduler are also covered as units.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/util/error.hpp"

namespace {

using namespace vbatch;
using namespace vbatch::hetero;

/// Chunk → executor that completed it (-1 = not completed).
std::vector<int> executors_of(const ScheduleResult& res) {
  std::vector<int> out;
  for (const ChunkSchedule& ch : res.chunks) out.push_back(ch.executor);
  return out;
}

template <typename T>
std::vector<std::vector<T>> snapshot(Batch<T>& batch) {
  std::vector<std::vector<T>> out;
  out.reserve(static_cast<std::size_t>(batch.count()));
  for (int i = 0; i < batch.count(); ++i) out.push_back(batch.copy_matrix(i));
  return out;
}

/// Bitwise comparison of two factor sets (memcmp, not EXPECT_NEAR — the
/// hetero path promises the same bits, not just the same residuals).
template <typename T>
void expect_bit_identical(const std::vector<std::vector<T>>& a,
                          const std::vector<std::vector<T>>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(0, std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(T)))
        << what << ": matrix " << i << " differs";
  }
}

/// A Gaussian DP batch, the paper's harder size distribution.
std::vector<int> test_sizes(int count, int nmax, std::uint64_t seed = 33) {
  Rng rng(seed);
  return gaussian_sizes(rng, count, nmax);
}

/// Factors `sizes` on a single K40c and returns {factors, info}.
struct Baseline {
  std::vector<std::vector<double>> factors;
  std::vector<int> info;
  double seconds = 0.0;
};

Baseline single_device_baseline(const std::vector<int>& sizes, const PotrfOptions& opts = {}) {
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  const auto r = potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
  Baseline b;
  b.factors = snapshot(batch);
  b.info.assign(batch.info().begin(), batch.info().end());
  b.seconds = r.seconds;
  return b;
}

// ---------------------------------------------------------------------------
// Bit-identity: the acceptance criterion
// ---------------------------------------------------------------------------

TEST(HeteroBitIdentity, EveryPoolCompositionMatchesSingleDevice) {
  const auto sizes = test_sizes(120, 300);
  const Baseline base = single_device_baseline(sizes);

  // k40c-first pools resolve options against the same reference device as
  // the baseline, so default options already pin identical blocking.
  const char* pools[] = {"k40c", "k40c,k40c", "k40c,p100", "cpu,k40c",
                         "cpu,k40c,k40c,p100", "cpu"};
  for (const char* desc : pools) {
    DevicePool pool = DevicePool::parse(desc);
    Queue q;
    Batch<double> batch(q, sizes);
    Rng fill(7);
    batch.fill_spd(fill);
    const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
    EXPECT_GT(r.seconds, 0.0) << desc;
    expect_bit_identical(base.factors, snapshot(batch), desc);
    for (int i = 0; i < batch.count(); ++i)
      EXPECT_EQ(base.info[static_cast<std::size_t>(i)], batch.info()[static_cast<std::size_t>(i)])
          << desc << ": info " << i;
  }
}

TEST(HeteroBitIdentity, P100FirstPoolMatchesWhenBlockingIsPinned) {
  // A p100-first pool resolves Auto options against the P100; pinning the
  // blocking explicitly restores bit-identity with the K40c baseline — the
  // documented contract for cross-reference-device comparisons.
  const auto sizes = test_sizes(80, 280);
  PotrfOptions pinned;
  pinned.path = PotrfPath::Fused;
  pinned.fused_nb = 16;
  const Baseline base = single_device_baseline(sizes, pinned);

  DevicePool pool = DevicePool::parse("p100,k40c,cpu");
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  HeteroOptions opts;
  opts.potrf = pinned;
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
  EXPECT_EQ(r.path_taken, PotrfPath::Fused);
  expect_bit_identical(base.factors, snapshot(batch), "p100-first");
}

TEST(HeteroBitIdentity, EveryPartitionAndStealScheduleMatches) {
  const auto sizes = test_sizes(100, 300);
  const Baseline base = single_device_baseline(sizes);

  for (Partition part : {Partition::CostModel, Partition::RoundRobin, Partition::FirstOnly}) {
    for (StealPolicy steal : {StealPolicy::MostLoaded, StealPolicy::Random}) {
      for (bool stealing : {true, false}) {
        for (std::uint64_t seed : {1ull, 2016ull, 0xDEADBEEFull}) {
          DevicePool pool = DevicePool::parse("cpu,k40c,p100");
          Queue q;
          Batch<double> batch(q, sizes);
          Rng fill(7);
          batch.fill_spd(fill);
          HeteroOptions opts;
          opts.partition = part;
          opts.steal = steal;
          opts.work_stealing = stealing;
          opts.steal_seed = seed;
          const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
          const std::string what = std::string(to_string(part)) + "/" + to_string(steal) +
                                   (stealing ? "/steal" : "/no-steal");
          EXPECT_GT(r.seconds, 0.0) << what;
          expect_bit_identical(base.factors, snapshot(batch), what.c_str());
          for (int i = 0; i < batch.count(); ++i)
            EXPECT_EQ(base.info[static_cast<std::size_t>(i)],
                      batch.info()[static_cast<std::size_t>(i)])
                << what << ": info " << i;
        }
      }
    }
  }
}

TEST(HeteroBitIdentity, BothPathsAndBothUplos) {
  const auto sizes = test_sizes(60, 200);
  for (PotrfPath path : {PotrfPath::Fused, PotrfPath::Separated}) {
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      PotrfOptions popts;
      popts.path = path;

      Queue q1;
      Batch<double> b1(q1, sizes);
      Rng f1(7);
      b1.fill_spd(f1);
      potrf_vbatched<double>(q1, uplo, b1, popts);

      DevicePool pool = DevicePool::parse("cpu,k40c,k40c");
      Queue q2;
      Batch<double> b2(q2, sizes);
      Rng f2(7);
      b2.fill_spd(f2);
      HeteroOptions hopts;
      hopts.potrf = popts;
      const auto r = potrf_vbatched_hetero<double>(pool, uplo, b2, hopts);
      EXPECT_EQ(r.path_taken, path);
      expect_bit_identical(snapshot(b1), snapshot(b2), to_string(path));
    }
  }
}

TEST(HeteroBitIdentity, ExpertInterfaceMatchesLapackLike) {
  const auto sizes = test_sizes(70, 250);
  const int max_n = *std::max_element(sizes.begin(), sizes.end());
  const Baseline base = single_device_baseline(sizes);

  DevicePool pool = DevicePool::parse("k40c,p100");
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  const auto r = potrf_vbatched_hetero_max<double>(pool, Uplo::Lower, batch, max_n);
  EXPECT_GT(r.seconds, 0.0);
  expect_bit_identical(base.factors, snapshot(batch), "expert interface");
}

// ---------------------------------------------------------------------------
// Correctness beyond bit-matching
// ---------------------------------------------------------------------------

TEST(Hetero, FactorsSatisfyResidualBound) {
  const auto sizes = test_sizes(50, 220);
  DevicePool pool = DevicePool::parse("cpu,k40c,p100");
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(11);
  batch.fill_spd(fill);
  const auto originals = snapshot(batch);

  potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  for (int i = 0; i < batch.count(); ++i) {
    ASSERT_EQ(batch.info()[static_cast<std::size_t>(i)], 0) << "matrix " << i;
    const int n = sizes[static_cast<std::size_t>(i)];
    ConstMatrixView<double> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
    EXPECT_LT(blas::potrf_residual<double>(Uplo::Lower, orig, batch.matrix(i)), 1e-12)
        << "matrix " << i;
  }
}

TEST(Hetero, NonSpdFailurePropagatesToOriginalOrder) {
  std::vector<int> sizes{64, 90, 48, 120, 33};
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(13);
  batch.fill_spd(fill);
  batch.matrix(1)(40, 40) = -1e9;  // break SPD in submission-order slot 1
  batch.matrix(3)(7, 7) = -1e9;    // and slot 3

  // Single-device reference for the exact info values.
  Queue qr;
  Batch<double> ref(qr, sizes);
  Rng fr(13);
  ref.fill_spd(fr);
  ref.matrix(1)(40, 40) = -1e9;
  ref.matrix(3)(7, 7) = -1e9;
  potrf_vbatched<double>(qr, Uplo::Lower, ref);

  DevicePool pool = DevicePool::parse("cpu,k40c");
  potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  for (int i = 0; i < batch.count(); ++i)
    EXPECT_EQ(ref.info()[static_cast<std::size_t>(i)], batch.info()[static_cast<std::size_t>(i)])
        << "info " << i;
  EXPECT_GT(batch.info()[1], 0);
  EXPECT_GT(batch.info()[3], 0);
}

TEST(Hetero, FloatAndComplexInstantiations) {
  const auto sizes = test_sizes(30, 150);
  {
    DevicePool pool = DevicePool::parse("k40c,k40c");
    Queue q;
    Batch<float> batch(q, sizes);
    Rng fill(17);
    batch.fill_spd(fill);
    const auto r = potrf_vbatched_hetero<float>(pool, Uplo::Lower, batch);
    EXPECT_GT(r.gflops(), 0.0);
    for (int i = 0; i < batch.count(); ++i) EXPECT_EQ(batch.info()[static_cast<std::size_t>(i)], 0);
  }
  {
    DevicePool pool = DevicePool::parse("cpu,k40c");
    Queue q;
    Batch<std::complex<double>> batch(q, sizes);
    Rng fill(17);
    batch.fill_spd(fill);
    const auto r = potrf_vbatched_hetero<std::complex<double>>(pool, Uplo::Lower, batch);
    EXPECT_GT(r.gflops(), 0.0);
    for (int i = 0; i < batch.count(); ++i) EXPECT_EQ(batch.info()[static_cast<std::size_t>(i)], 0);
  }
}

TEST(Hetero, TimingOnlyModeRuns) {
  Rng rng(41);
  const auto sizes = gaussian_sizes(rng, 400, 512);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> batch(q, sizes);
  DevicePool pool = DevicePool::parse("cpu,k40c,k40c");
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.flops, 0.0);
  EXPECT_EQ(static_cast<int>(r.executors.size()), 3);
}

// ---------------------------------------------------------------------------
// Scaling, scheduling and energy behaviour
// ---------------------------------------------------------------------------

TEST(HeteroScaling, TwoGpusBeatOneAndCpuHelps) {
  Rng rng(43);
  const auto sizes = gaussian_sizes(rng, 600, 400);
  auto makespan = [&](const char* desc) {
    Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
    Batch<double> batch(q, sizes);
    DevicePool pool = DevicePool::parse(desc);
    return potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch).seconds;
  };
  const double one = makespan("k40c");
  const double two = makespan("k40c,k40c");
  const double two_cpu = makespan("k40c,k40c,cpu");
  EXPECT_LT(two, one / 1.5) << "second GPU must give a substantial speedup";
  EXPECT_LT(two_cpu, two) << "adding the CPU must not slow the pool down";
}

TEST(HeteroScaling, WorkStealingRescuesFirstOnlyPartition) {
  Rng rng(47);
  const auto sizes = gaussian_sizes(rng, 500, 384);
  auto run = [&](bool stealing) {
    Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
    Batch<double> batch(q, sizes);
    DevicePool pool = DevicePool::parse("k40c,k40c,k40c");
    HeteroOptions opts;
    opts.partition = Partition::FirstOnly;  // everything lands on GPU 0 ...
    opts.work_stealing = stealing;          // ... unless peers can steal
    return potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
  };
  const auto idle_peers = run(false);
  const auto stealing = run(true);
  EXPECT_EQ(idle_peers.steals, 0);
  EXPECT_GT(stealing.steals, 0);
  EXPECT_LT(stealing.seconds, idle_peers.seconds / 1.5);
  // Without stealing, peers never run a chunk.
  EXPECT_EQ(idle_peers.executors[1].chunks, 0);
  EXPECT_EQ(idle_peers.executors[2].chunks, 0);
}

TEST(HeteroScaling, ReportAccountsEveryMatrixAndChunkOnce) {
  Rng rng(53);
  const auto sizes = gaussian_sizes(rng, 300, 300);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> batch(q, sizes);
  DevicePool pool = DevicePool::parse("cpu,k40c,p100");
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);

  int matrices = 0, chunks = 0;
  double flops = 0.0;
  for (const auto& ex : r.executors) {
    matrices += ex.matrices;
    chunks += ex.chunks;
    flops += ex.flops;
    EXPECT_GE(ex.busy_seconds, 0.0) << ex.name;
    EXPECT_LE(ex.finish_seconds, r.seconds + 1e-12) << ex.name;
  }
  EXPECT_EQ(matrices, batch.count());
  EXPECT_EQ(chunks, r.chunks);
  EXPECT_DOUBLE_EQ(flops, r.flops);
}

TEST(HeteroEnergy, PoolEnergyCoversActiveAndIdleDevices) {
  Rng rng(59);
  const auto sizes = gaussian_sizes(rng, 300, 300);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> batch(q, sizes);
  DevicePool pool = DevicePool::parse("cpu,k40c,k40c");
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);

  EXPECT_DOUBLE_EQ(r.energy.seconds, r.seconds);
  // Floor: every device burns at least idle power for the whole makespan.
  double idle_floor = 0.0;
  for (int e = 0; e < pool.size(); ++e)
    idle_floor += pool.executor(e).power().watts(0.0) * r.seconds;
  EXPECT_GT(r.energy.joules, idle_floor * 0.99);
  EXPECT_GT(r.energy.avg_watts(), 0.0);
  double active = 0.0;
  for (const auto& ex : r.executors) active += ex.joules;
  EXPECT_LE(active, r.energy.joules);
}

TEST(HeteroEnergy, ReusedPoolCallEnergyMatchesFreshPool) {
  // A long-lived pool's GPU timelines keep every earlier call. A call's
  // energy integrates only the records it appended: exactly what a walk of
  // the whole timeline from the call's start instant gives, and the same
  // energy the call has on a fresh pool (up to the rounding of absolute
  // record times, which sit later on the reused device clock).
  Rng rng(67);
  const auto sizes = gaussian_sizes(rng, 200, 256);
  auto call = [&](DevicePool& pool) {
    Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
    Batch<double> batch(q, sizes);
    return potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  };
  DevicePool fresh = DevicePool::parse("cpu,k40c,p100");
  const HeteroResult first = call(fresh);
  DevicePool reused = DevicePool::parse("cpu,k40c,p100");
  for (int k = 0; k < 3; ++k) (void)call(reused);
  std::vector<double> t0;
  for (int e = 0; e < reused.size(); ++e) t0.push_back(reused.executor(e).queue().time());
  const HeteroResult kth = call(reused);

  ASSERT_EQ(kth.executors.size(), first.executors.size());
  for (int e = 0; e < reused.size(); ++e) {
    const double joules = kth.executors[static_cast<std::size_t>(e)].joules;
    if (reused.executor(e).is_gpu()) {
      auto& gpu = static_cast<GpuExecutor&>(reused.executor(e));
      const double whole_walk =
          energy::gpu_timeline_energy(gpu.spec(), gpu.power(), gpu.queue().device().timeline(),
                                      Precision::Double, t0[static_cast<std::size_t>(e)])
              .joules;
      EXPECT_EQ(0, std::memcmp(&joules, &whole_walk, sizeof(double))) << gpu.name();
    }
    const double fresh_joules = first.executors[static_cast<std::size_t>(e)].joules;
    EXPECT_NEAR(joules, fresh_joules, 1e-12 * fresh_joules) << reused.executor(e).name();
  }
  EXPECT_NEAR(kth.energy.joules, first.energy.joules, 1e-12 * first.energy.joules);
  EXPECT_DOUBLE_EQ(kth.energy.seconds, first.energy.seconds);
}

TEST(HeteroDeterminism, SameSeedSameSchedule) {
  Rng rng(61);
  const auto sizes = gaussian_sizes(rng, 400, 350);
  auto run = [&](std::uint64_t seed) {
    Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
    Batch<double> batch(q, sizes);
    DevicePool pool = DevicePool::parse("cpu,k40c,p100");
    HeteroOptions opts;
    opts.steal = StealPolicy::Random;
    opts.steal_seed = seed;
    return potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  };
  const auto a = run(99);
  const auto b = run(99);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.steals, b.steals);
  ASSERT_EQ(a.executors.size(), b.executors.size());
  for (std::size_t e = 0; e < a.executors.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.executors[e].busy_seconds, b.executors[e].busy_seconds);
    EXPECT_EQ(a.executors[e].chunks, b.executors[e].chunks);
    EXPECT_EQ(a.executors[e].stolen, b.executors[e].stolen);
  }
}

// ---------------------------------------------------------------------------
// Partitioner and scheduler units
// ---------------------------------------------------------------------------

TEST(HeteroPartition, SortIsDescendingAndStable) {
  std::vector<int> n{50, 80, 50, 120, 80};
  const auto order = sort_indices_desc(n);
  EXPECT_EQ(order, (std::vector<int>{3, 1, 4, 0, 2}));
}

TEST(HeteroPartition, ChunksCoverBatchExactlyOnce) {
  Rng rng(67);
  auto sizes = gaussian_sizes(rng, 257, 300);
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  const auto chunks = build_chunks(sizes, 32, 12);
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(static_cast<int>(chunks.size()), 12 + 12 / 2 + 1);
  int expected_begin = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, expected_begin);
    EXPECT_GT(c.count(), 0);
    EXPECT_EQ(c.max_n, sizes[static_cast<std::size_t>(c.begin)]);
    EXPECT_GT(c.flops, 0.0);
    expected_begin = c.end;
  }
  EXPECT_EQ(expected_begin, static_cast<int>(sizes.size()));
}

TEST(HeteroPartition, SingleChunkWhenTargetIsOne) {
  std::vector<int> sizes{100, 90, 80};
  const auto chunks = build_chunks(sizes, 32, 1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].begin, 0);
  EXPECT_EQ(chunks[0].end, 3);
  EXPECT_EQ(chunks[0].max_n, 100);
}

TEST(HeteroPartition, CostModelBalancesHeterogeneousSpeeds) {
  // Executor 0 is 3x faster on every chunk; LPT should give it more chunks.
  std::vector<std::vector<double>> est{
      {1, 1, 1, 1, 1, 1, 1, 1},
      {3, 3, 3, 3, 3, 3, 3, 3},
  };
  const auto owner = assign_chunks(est, Partition::CostModel, 2);
  int fast = 0, slow = 0;
  for (int e : owner) (e == 0 ? fast : slow)++;
  EXPECT_GT(fast, slow);
  EXPECT_GT(slow, 0);  // the slow executor still contributes

  const auto rr = assign_chunks(est, Partition::RoundRobin, 2);
  EXPECT_EQ(rr, (std::vector<int>{0, 1, 0, 1, 0, 1, 0, 1}));
  const auto first = assign_chunks(est, Partition::FirstOnly, 2);
  EXPECT_EQ(first, (std::vector<int>(8, 0)));
}

TEST(HeteroScheduler, StealsFromBackOfMostLoadedVictim) {
  // Two executors, four chunks, all owned by executor 0. Executor 1 must
  // steal from the back (chunks 3, then 2) while 0 works from the front.
  ScheduleParams sp;
  sp.owner = {0, 0, 0, 0};
  sp.estimate = {{1.0, 1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 1.0}};
  std::vector<std::pair<int, int>> trace;  // (executor, chunk)
  const auto res = run_schedule(sp, [&](int e, int c, const StreamSlot&) {
    trace.emplace_back(e, c);
    return 1.0;
  });
  EXPECT_DOUBLE_EQ(res.makespan, 2.0);
  EXPECT_EQ(executors_of(res), (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(res.executors[1].stolen, 2);
  // Executor 1's first steal is the trailing chunk.
  ASSERT_GE(trace.size(), 2u);
  bool saw_back_steal = false;
  for (const auto& [e, c] : trace)
    if (e == 1 && c == 3) saw_back_steal = true;
  EXPECT_TRUE(saw_back_steal);
}

TEST(HeteroScheduler, NoStealingLeavesPeersIdle) {
  ScheduleParams sp;
  sp.owner = {0, 0, 0};
  sp.estimate = {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}};
  sp.work_stealing = false;
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(res.makespan, 3.0);
  EXPECT_EQ(res.executors[1].chunks, 0);
}

TEST(HeteroScheduler, InitialClockDelaysExecutorZero) {
  ScheduleParams sp;
  sp.owner = {0, 1};
  sp.estimate = {{1.0, 1.0}, {1.0, 1.0}};
  sp.initial_clock = {5.0, 0.0};
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  // Executor 1 (clock 0) acts first, runs its chunk, then steals executor
  // 0's chunk long before executor 0's clock (5.0) comes up.
  EXPECT_EQ(res.executors[0].chunks, 0);
  EXPECT_EQ(res.executors[1].chunks, 2);
  EXPECT_DOUBLE_EQ(res.makespan, 5.0);  // exec 0's initial clock dominates
}

// ---------------------------------------------------------------------------
// Multi-stream overlap (PR 5): stream slots, contention, death mid-flight
// ---------------------------------------------------------------------------

TEST(HeteroStreams, LowOccupancyChunksOverlap) {
  // One executor with two stream slots and low-occupancy chunks: both
  // dispatch at t=0 and run at full rate, so the makespan is one chunk
  // while the busy ledger still charges both.
  ScheduleParams sp;
  sp.owner = {0, 0};
  sp.estimate = {{1.0, 1.0}};
  sp.streams = {2};
  sp.occupancy = {{0.3, 0.3}};
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(res.makespan, 1.0);
  EXPECT_DOUBLE_EQ(res.executors[0].busy_seconds, 2.0);
  EXPECT_DOUBLE_EQ(res.executors[0].occupied_seconds, 1.0);  // the two intervals coincide
  EXPECT_EQ(res.executors[0].max_in_flight, 2);
}

TEST(HeteroStreams, FullOccupancySerializesDespiteStreams) {
  // Occupancy 1.0 leaves no free share: the second chunk's rate collapses
  // to 1/2 and the makespan degenerates to the serial schedule — streams
  // cannot conjure throughput the device does not have.
  ScheduleParams sp;
  sp.owner = {0, 0};
  sp.estimate = {{1.0, 1.0}};
  sp.streams = {2};
  sp.occupancy = {{1.0, 1.0}};
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(res.makespan, 2.0);
  EXPECT_EQ(res.executors[0].max_in_flight, 2);
}

TEST(HeteroStreams, SingleStreamParamsReproduceClassicSchedule) {
  // streams={1,1} with occupancy attached must replay the classic steal
  // schedule clock-for-clock (same trace as StealsFromBackOfMostLoadedVictim).
  ScheduleParams sp;
  sp.owner = {0, 0, 0, 0};
  sp.estimate = {{1.0, 1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 1.0}};
  sp.streams = {1, 1};
  sp.occupancy = {{0.2, 0.2, 0.2, 0.2}, {0.2, 0.2, 0.2, 0.2}};
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(res.makespan, 2.0);
  EXPECT_EQ(executors_of(res), (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(res.executors[0].max_in_flight, 1);
}

TEST(HeteroStreams, DeathAbortsAndRedispatchesEveryChunkInFlight) {
  // Executor 0 (4 streams) dispatches all four chunks at t=0 and dies after
  // committing one: the three still in flight abort (their numerics never
  // ran), log InFlightLost, and re-dispatch to the survivor.
  ScheduleParams sp;
  sp.owner = {0, 0, 0, 0};
  sp.estimate = {{1.0, 1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 1.0}};
  sp.streams = {4, 1};
  sp.occupancy = {{0.2, 0.2, 0.2, 0.2}, {1.0, 1.0, 1.0, 1.0}};
  const auto plan = fault::FaultPlan(fault::parse_fault_spec("die:exec=0,after=1"));
  sp.faults = &plan;
  std::vector<int> ran;  // chunks whose numerics actually committed
  const auto res = run_schedule(sp, [&](int, int c, const StreamSlot&) {
    ran.push_back(c);
    return 1.0;
  });
  EXPECT_EQ(res.executors_lost, 1);
  EXPECT_EQ(res.executors[0].lost, 1);
  EXPECT_EQ(res.chunks_poisoned, 0);
  EXPECT_EQ(executors_of(res), (std::vector<int>{0, 1, 1, 1}));
  EXPECT_EQ(res.executors[0].chunks, 1);
  EXPECT_EQ(res.executors[1].chunks, 3);
  EXPECT_EQ(res.executors[0].max_in_flight, 4);
  // Numerics ran exactly once per chunk — the aborted attempts never committed.
  EXPECT_EQ(static_cast<int>(ran.size()), 4);
  int in_flight_lost = 0;
  std::vector<int> lost_streams;
  for (const auto& ev : res.events)
    if (ev.kind == fault::FaultKind::InFlightLost) {
      ++in_flight_lost;
      EXPECT_EQ(ev.exec, 0);
      EXPECT_DOUBLE_EQ(ev.waste_seconds, 1.0);
      lost_streams.push_back(ev.stream);
    }
  EXPECT_EQ(in_flight_lost, 3);
  std::sort(lost_streams.begin(), lost_streams.end());
  EXPECT_EQ(lost_streams, (std::vector<int>{1, 2, 3}));  // stream 0's chunk committed
  // The wasted partial intervals stay on the busy ledger: 1 commit + 3 aborts.
  EXPECT_DOUBLE_EQ(res.executors[0].busy_seconds, 4.0);
}

TEST(HeteroStreamsBitIdentity, EveryStreamCountMatchesSingleDevice) {
  // The acceptance criterion of the overlap work: stream counts change the
  // modelled time only — factors and info stay memcmp-identical.
  const auto sizes = test_sizes(120, 300);
  const Baseline base = single_device_baseline(sizes);
  for (int k : {1, 2, 4}) {
    const std::string suffix = ":" + std::to_string(k) + "streams";
    const std::string pools[] = {"k40c" + suffix, "k40c" + suffix + ",p100" + suffix,
                                 "cpu,k40c" + suffix, "k40c" + suffix + ",k40c"};
    for (const std::string& desc : pools) {
      DevicePool pool = DevicePool::parse(desc);
      Queue q;
      Batch<double> batch(q, sizes);
      Rng fill(7);
      batch.fill_spd(fill);
      const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
      EXPECT_GT(r.seconds, 0.0) << desc;
      expect_bit_identical(base.factors, snapshot(batch), desc.c_str());
      for (int i = 0; i < batch.count(); ++i)
        EXPECT_EQ(base.info[static_cast<std::size_t>(i)],
                  batch.info()[static_cast<std::size_t>(i)])
            << desc << ": info " << i;
    }
  }
}

TEST(HeteroStreamsBitIdentity, FaultsUnderStreamsKeepTheFactors) {
  // Executor death with chunks in flight on a 4-stream pool: the survivor
  // finishes and the factors still match the fault-free single-device run.
  const auto sizes = test_sizes(100, 280);
  const Baseline base = single_device_baseline(sizes);
  DevicePool pool = DevicePool::parse("k40c:4streams,k40c");
  pool.set_faults(fault::parse_fault_spec("die:exec=0,after=1"));
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  EXPECT_EQ(r.executors_lost, 1);
  EXPECT_TRUE(r.executors[0].lost);
  EXPECT_EQ(r.chunks_poisoned, 0);
  expect_bit_identical(base.factors, snapshot(batch), "death under streams");
  for (int i = 0; i < batch.count(); ++i)
    EXPECT_EQ(base.info[static_cast<std::size_t>(i)], batch.info()[static_cast<std::size_t>(i)]);
}

TEST(HeteroStreams, ReportCarriesStreamsAndOverlap) {
  Rng rng(71);
  const auto sizes = gaussian_sizes(rng, 240, 64);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> batch(q, sizes);
  DevicePool pool = DevicePool::parse("k40c:4streams");
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  ASSERT_EQ(r.executors.size(), 1u);
  EXPECT_EQ(r.executors[0].streams, 4);
  // Small matrices on four streams must actually overlap ...
  EXPECT_GT(r.executors[0].overlap, 1.0);
  // ... but never beyond the stream count.
  EXPECT_LE(r.executors[0].overlap, 4.0 + 1e-12);
}

// ---------------------------------------------------------------------------
// DevicePool
// ---------------------------------------------------------------------------

TEST(DevicePool, ParseBuildsTheRequestedExecutors) {
  DevicePool pool = DevicePool::parse("cpu,k40c,p100,k40c");
  EXPECT_EQ(pool.size(), 4);
  EXPECT_EQ(pool.gpu_count(), 3);
  EXPECT_TRUE(pool.has_cpu());
  EXPECT_EQ(pool.executor(0).name(), "cpu");
  EXPECT_EQ(pool.executor(1).name(), "k40c#0");
  EXPECT_EQ(pool.executor(2).name(), "p100#1");
  EXPECT_EQ(pool.executor(3).name(), "k40c#2");
  EXPECT_EQ(pool.describe(), "cpu + k40c#0 + p100#1 + k40c#2");
}

TEST(DevicePool, ParseStreamSuffixConfiguresExecutors) {
  DevicePool pool = DevicePool::parse("k40c:4streams,cpu:1streams,p100");
  EXPECT_EQ(pool.executor(0).streams(), 4);
  EXPECT_EQ(pool.executor(1).streams(), 1);
  EXPECT_EQ(pool.executor(2).streams(), 1);
  // describe() round-trips the suffix, but only where it carries information.
  EXPECT_NE(pool.describe().find("k40c#0:4streams"), std::string::npos) << pool.describe();
  EXPECT_EQ(pool.describe().find("cpu:"), std::string::npos) << pool.describe();
}

TEST(DevicePool, ParseClampsStreamsToTheDeviceLimit) {
  DevicePool pool = DevicePool::parse("k40c:999streams");
  EXPECT_EQ(pool.executor(0).streams(), sim::DeviceSpec::k40c().max_concurrent_streams);
}

TEST(DevicePool, ParseRejectsBadStreamSuffix) {
  // Malformed stream suffixes get a named InvalidArgument, never a silently
  // single-stream executor: zero/negative/missing/non-numeric counts, a
  // misspelled tail, and multi-stream requests on the single-queue cpu.
  const char* bad[] = {"k40c:0streams", "k40c:-1streams", "k40c:streams", "k40c:xstreams",
                       "k40c:4stream", "k40c:4streamsx", "k40c:", "cpu:2streams"};
  for (const char* csv : bad) {
    EXPECT_THROW((void)DevicePool::parse(csv), Error) << "accepted: '" << csv << "'";
  }
  try {
    (void)DevicePool::parse("k40c:0streams");
    FAIL() << "zero stream count accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stream count"), std::string::npos) << e.what();
  }
}

TEST(DevicePool, SetStreamsValidatesAndClamps) {
  DevicePool pool = DevicePool::parse("k40c,cpu");
  EXPECT_THROW(pool.executor(0).set_streams(0), Error);
  EXPECT_THROW(pool.executor(0).set_streams(-3), Error);
  pool.executor(0).set_streams(1000);  // silently clamps to the device limit
  EXPECT_EQ(pool.executor(0).streams(), sim::DeviceSpec::k40c().max_concurrent_streams);
  pool.executor(1).set_streams(8);  // the cpu executor clamps to its one queue
  EXPECT_EQ(pool.executor(1).streams(), 1);
}

TEST(DevicePool, ParseRejectsBadInput) {
  // Every malformed shape gets a clear InvalidArgument, never a silently
  // degenerate pool: empty lists, blank lists, stray/doubled/trailing/
  // leading commas, unknown devices, repeated "cpu".
  const char* bad[] = {"",     " ",       "\t",   ",",          "k40c,",  ",k40c",
                       "k40c,,p100", "  ,  ", "cpu,cpu", "k40c,gtx480", "cpu , cpu"};
  for (const char* csv : bad) {
    EXPECT_THROW((void)DevicePool::parse(csv), Error) << "accepted: '" << csv << "'";
  }
  // The message names the problem (not just "bad input").
  try {
    (void)DevicePool::parse("k40c,,p100");
    FAIL() << "doubled comma accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("empty device segment"), std::string::npos) << e.what();
  }
}

TEST(DevicePool, HeteroRejectsEmptyBatchAndPool) {
  DevicePool pool = DevicePool::parse("k40c");
  Queue q;
  std::vector<int> sizes{0, 0};
  Batch<double> batch(q, sizes);
  // All-empty batch: the LAPACK-like interface must refuse like the
  // single-device one does.
  EXPECT_THROW(potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch), Error);
  EXPECT_THROW(potrf_vbatched_hetero_max<double>(pool, Uplo::Lower, batch, 0), Error);
}

TEST(HeteroValidation, BadChunksPerExecutorThrowsBeforeAnyDeviceWork) {
  // A rejected option must not reach the metadata sweep: the sweep resets
  // info and advances executor 0's modelled clock and timeline.
  DevicePool pool = DevicePool::parse("k40c,cpu");
  Queue q;
  Batch<double> batch(q, test_sizes(40, 160));
  std::fill(batch.info().begin(), batch.info().end(), 7);
  const Queue& q0 = pool.executor(0).queue();
  const double t0 = q0.time();
  const std::size_t records = q0.device().timeline().size();
  HeteroOptions opts;
  opts.chunks_per_executor = 0;
  try {
    (void)potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
    FAIL() << "chunks_per_executor = 0 accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArgument);
  }
  for (const int v : batch.info()) EXPECT_EQ(v, 7);
  EXPECT_EQ(q0.time(), t0);
  EXPECT_EQ(q0.device().timeline().size(), records);
}

}  // namespace
