// Tests for the device simulator: occupancy calculation, the block
// scheduler's invariants (the mechanisms behind every performance effect in
// the paper), the memory arena, streams and the timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "vbatch/core/batch.hpp"
#include "vbatch/sim/device.hpp"
#include "vbatch/sim/occupancy.hpp"
#include "vbatch/sim/profile.hpp"
#include "vbatch/sim/scheduler.hpp"
#include "vbatch/util/error.hpp"

namespace {

using namespace vbatch;
using namespace vbatch::sim;

DeviceSpec spec() { return DeviceSpec::k40c(); }

TEST(DeviceSpec, K40cPeaks) {
  const auto s = spec();
  EXPECT_NEAR(s.peak_gflops(Precision::Double), 1430.4, 1.0);
  EXPECT_NEAR(s.peak_gflops(Precision::Single), 4291.2, 2.0);
  EXPECT_GT(s.cycle_seconds(), 1e-9);
}

// ---------------------------------------------------------------------------
// Occupancy
// ---------------------------------------------------------------------------

TEST(Occupancy, ThreadLimited) {
  // 512-thread blocks, no shared memory: 2048/512 = 4 per SM.
  EXPECT_EQ(blocks_per_sm(spec(), {512, 0}), 4);
  EXPECT_EQ(blocks_per_sm(spec(), {1024, 0}), 2);
}

TEST(Occupancy, SharedMemLimited) {
  // 64-thread blocks with 24 KB smem: 48K/24K = 2 per SM (threads would allow 16).
  EXPECT_EQ(blocks_per_sm(spec(), {64, 24 * 1024}), 2);
}

TEST(Occupancy, BlockCountCapApplies) {
  // Tiny blocks: capped by max_blocks_per_sm = 16, not 2048/32 = 64.
  EXPECT_EQ(blocks_per_sm(spec(), {32, 0}), 16);
}

TEST(Occupancy, InfeasibleShapesReturnZero) {
  EXPECT_EQ(blocks_per_sm(spec(), {0, 0}), 0);
  EXPECT_EQ(blocks_per_sm(spec(), {2048, 0}), 0);          // > max threads/block
  EXPECT_EQ(blocks_per_sm(spec(), {64, 49 * 1024}), 0);    // > smem/block
}

TEST(Occupancy, WarpGranularity) {
  // 33 threads occupy 2 warps = 64 thread slots -> 2048/64 = 32, capped at 16.
  EXPECT_EQ(blocks_per_sm(spec(), {33, 0}), 16);
  // 1023 threads -> 32 warps -> 2 per SM.
  EXPECT_EQ(blocks_per_sm(spec(), {1023, 0}), 2);
}

TEST(Occupancy, FractionBetweenZeroAndOne) {
  const double f = occupancy_fraction(spec(), {256, 8 * 1024});
  EXPECT_GT(f, 0.0);
  EXPECT_LE(f, 1.0);
}

// ---------------------------------------------------------------------------
// Block cost model
// ---------------------------------------------------------------------------

BlockCost work_block(double flops, int active, int live, double bytes = 0.0) {
  BlockCost c;
  c.flops = flops;
  c.active_threads = active;
  c.live_threads = live;
  c.bytes = bytes;
  return c;
}

TEST(BlockCost, EarlyExitIsCheap) {
  BlockCost exit_cost;
  exit_cost.early_exit = true;
  exit_cost.live_threads = 256;
  const double t_exit = block_seconds(spec(), Precision::Double, 4, exit_cost);
  const double t_work = block_seconds(spec(), Precision::Double, 4,
                                      work_block(1e6, 256, 256));
  EXPECT_LT(t_exit, t_work / 50.0);
}

TEST(BlockCost, IdleThreadsDragClassicBlocks) {
  // Same useful work; classic keeps 256 threads live with only 32 active.
  const double aggressive = block_seconds(spec(), Precision::Double, 4,
                                          work_block(1e6, 32, 32));
  const double classic = block_seconds(spec(), Precision::Double, 4,
                                       work_block(1e6, 32, 256));
  EXPECT_GT(classic, aggressive * 1.2);
  EXPECT_LT(classic, aggressive * 2.0);
}

TEST(BlockCost, FewActiveThreadsLimitThroughput) {
  // 4 active threads compute 8x slower than 32 when lanes allow it.
  const double few = block_seconds(spec(), Precision::Double, 1, work_block(1e6, 4, 4));
  const double many = block_seconds(spec(), Precision::Double, 1, work_block(1e6, 32, 32));
  EXPECT_GT(few, many * 4.0);
}

TEST(BlockCost, ResidencyDividesLaneShare) {
  // With 16 resident blocks the DP lane share is 4; solo it's 64.
  const double crowded = block_seconds(spec(), Precision::Double, 16,
                                       work_block(1e6, 256, 256));
  const double solo = block_seconds(spec(), Precision::Double, 1, work_block(1e6, 256, 256));
  EXPECT_GT(crowded, solo * 4.0);
}

TEST(BlockCost, MemoryBoundBlocksFollowBandwidth) {
  // A block moving lots of bytes with little compute is bandwidth-bound.
  const auto s = spec();
  BlockCost c = work_block(1e3, 256, 256, 1e6);
  const double t = block_seconds(s, Precision::Double, 1, c);
  const double bw_share = s.mem_bandwidth_gbps * 1e9 / s.num_sms;
  EXPECT_NEAR(t, 1e6 / bw_share, t * 0.01);
}

// ---------------------------------------------------------------------------
// Kernel scheduling
// ---------------------------------------------------------------------------

LaunchConfig cfg(int blocks, int threads, std::size_t smem = 0,
                 Precision p = Precision::Double) {
  LaunchConfig c;
  c.name = "test";
  c.grid_blocks = blocks;
  c.block_threads = threads;
  c.shared_mem = smem;
  c.precision = p;
  return c;
}

TEST(Scheduler, MakespanScalesWithWaves) {
  // 60 slots (4/SM × 15): 120 equal blocks take ~2 waves, 600 take ~10.
  std::vector<BlockCost> two(120, work_block(1e6, 256, 256));
  std::vector<BlockCost> ten(600, work_block(1e6, 256, 256));
  const auto t2 = schedule_kernel(spec(), cfg(120, 512), two, false);
  const auto t10 = schedule_kernel(spec(), cfg(600, 512), ten, false);
  EXPECT_NEAR(t10.exec_seconds / t2.exec_seconds, 5.0, 0.5);
}

TEST(Scheduler, ImbalancedTailHurtsUnsortedOrder) {
  // Mixed small/large blocks: interleaved order leaves long blocks finishing
  // alone; sorted-descending order packs them first. Sorted must not lose.
  std::vector<BlockCost> interleaved;
  for (int i = 0; i < 300; ++i) {
    interleaved.push_back(work_block(i % 10 == 0 ? 5e6 : 2e5, 256, 256));
  }
  std::vector<BlockCost> sorted = interleaved;
  std::sort(sorted.begin(), sorted.end(),
            [](const BlockCost& a, const BlockCost& b) { return a.flops > b.flops; });
  const auto ti = schedule_kernel(spec(), cfg(300, 256), interleaved, false);
  const auto ts = schedule_kernel(spec(), cfg(300, 256), sorted, false);
  EXPECT_LE(ts.exec_seconds, ti.exec_seconds * 1.001);
}

TEST(Scheduler, LaunchOverheadAppliedOnce) {
  std::vector<BlockCost> one(1, work_block(1e3, 32, 32));
  const auto with = schedule_kernel(spec(), cfg(1, 32), one, true);
  const auto without = schedule_kernel(spec(), cfg(1, 32), one, false);
  EXPECT_NEAR(with.seconds - without.seconds, spec().kernel_launch_overhead_us * 1e-6, 1e-9);
}

TEST(Scheduler, InfeasibleLaunchThrows) {
  std::vector<BlockCost> blocks(1);
  EXPECT_THROW(schedule_kernel(spec(), cfg(1, 64, 64 * 1024), blocks), vbatch::Error);
}

TEST(Scheduler, CountsEarlyExitsAndTotals) {
  std::vector<BlockCost> blocks;
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      BlockCost e;
      e.early_exit = true;
      e.live_threads = 64;
      blocks.push_back(e);
    } else {
      blocks.push_back(work_block(100.0, 64, 64, 50.0));
    }
  }
  const auto t = schedule_kernel(spec(), cfg(10, 64), blocks);
  EXPECT_EQ(t.early_exits, 5);
  EXPECT_DOUBLE_EQ(t.total_flops, 500.0);
  EXPECT_DOUBLE_EQ(t.total_bytes, 250.0);
}

TEST(Scheduler, MoreSmsNeverSlower) {
  auto small = spec();
  auto big = spec();
  big.num_sms = 30;
  std::vector<BlockCost> blocks(500, work_block(1e6, 256, 256));
  const auto ts = schedule_kernel(small, cfg(500, 256), blocks, false);
  const auto tb = schedule_kernel(big, cfg(500, 256), blocks, false);
  EXPECT_LE(tb.exec_seconds, ts.exec_seconds);
}

// ---------------------------------------------------------------------------
// SlotPool, effective residency, launch-plan cache
// ---------------------------------------------------------------------------

TEST(SlotPool, AssignsToLeastLoadedSlotWithLowestIndexTies) {
  // Replicates the linear min-scan it replaced: equal loads resolve to the
  // lowest slot index, so modelled times are bit-identical to the old code.
  SlotPool pool(3);
  EXPECT_DOUBLE_EQ(pool.assign(1.0), 1.0);   // slot 0
  EXPECT_DOUBLE_EQ(pool.assign(2.0), 2.0);   // slot 1
  EXPECT_DOUBLE_EQ(pool.assign(3.0), 3.0);   // slot 2
  EXPECT_DOUBLE_EQ(pool.assign(0.5), 1.5);   // back onto slot 0
  EXPECT_DOUBLE_EQ(pool.makespan(), 3.0);
}

TEST(SlotPool, NotBeforeDelaysStart) {
  SlotPool pool(2);
  EXPECT_DOUBLE_EQ(pool.assign(1.0, 5.0), 6.0);  // waits until t=5
  EXPECT_DOUBLE_EQ(pool.assign(1.0), 1.0);       // other slot still free at 0
}

TEST(SlotPool, MatchesLinearScanOnRandomLoads) {
  // Heap-based assignment must reproduce std::min_element exactly.
  SlotPool pool(7);
  std::vector<double> scan(7, 0.0);
  std::uint64_t state = 42;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double dur = static_cast<double>(state >> 40) * 1e-6;
    auto it = std::min_element(scan.begin(), scan.end());
    *it += dur;
    EXPECT_DOUBLE_EQ(pool.assign(dur), *it);
  }
  EXPECT_DOUBLE_EQ(pool.makespan(), *std::max_element(scan.begin(), scan.end()));
}

// The launches size their pool to min(device slots, blocks). The oracle is
// the same greedy schedule on a pool of every device slot; KernelTiming and
// every launch_concurrent record must match it bit for bit (%a), on grids
// below, at and above the device's slot count.
std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string dump(const KernelTiming& t) {
  return hex(t.seconds) + " " + hex(t.exec_seconds) + " " + std::to_string(t.slots) + " " +
         std::to_string(t.resident_per_sm) + " " + hex(t.total_flops) + " " +
         hex(t.total_bytes) + " " + std::to_string(t.early_exits);
}

std::string dump(const KernelRecord& r) {
  return r.name + " " + hex(r.start) + " " + hex(r.end) + " " + std::to_string(r.grid_blocks) +
         " " + std::to_string(r.block_threads) + " " + std::to_string(r.shared_mem) + " " +
         std::to_string(r.resident_per_sm) + " " + hex(r.flops) + " " + hex(r.bytes) + " " +
         std::to_string(r.early_exits) + " " + std::to_string(r.stream);
}

/// A random block report: any mix of work, memory traffic, idle threads,
/// serial chains and early exits.
BlockCost random_cost(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  BlockCost c;
  c.early_exit = u(rng) < 0.2;
  c.flops = u(rng) < 0.1 ? 0.0 : 1e7 * u(rng);
  c.bytes = 1e6 * u(rng);
  c.live_threads = 32 + static_cast<int>(480 * u(rng));
  c.active_threads = static_cast<int>(c.live_threads * u(rng));
  c.sync_steps = static_cast<int>(64 * u(rng));
  c.serial_ops = 500 * u(rng);
  c.latency_cycles = 2000 * u(rng);
  return c;
}

LaunchConfig random_config(std::mt19937_64& rng, const DeviceSpec& spec, int grid) {
  LaunchConfig c;
  c.name = "k" + std::to_string(grid);
  c.grid_blocks = grid;
  c.block_threads = 32 * static_cast<int>(1 + rng() % 16);
  c.shared_mem = static_cast<std::size_t>(rng() % (spec.shared_mem_per_block / 2 + 1));
  c.precision = rng() % 2 ? Precision::Double : Precision::Single;
  return c;
}

/// A grid size around the device's slot count: none, a few, just below,
/// at and just above it, or several waves.
int random_grid(std::mt19937_64& rng, int slots) {
  switch (rng() % 6) {
    case 0: return static_cast<int>(rng() % 3);
    case 1: return 1 + static_cast<int>(rng() % 16);
    case 2: return std::max(1, slots - static_cast<int>(rng() % 4));
    case 3: return slots + static_cast<int>(rng() % 4);
    case 4: return static_cast<int>(rng() % static_cast<std::uint64_t>(slots + 1));
    default: return static_cast<int>(rng() % static_cast<std::uint64_t>(4 * slots + 1));
  }
}

TEST(SlotPool, GridSizedPoolSchedulesLikeTheFullPool) {
  std::mt19937_64 rng(28);
  for (const DeviceSpec& spec : {DeviceSpec::k40c(), DeviceSpec::p100()}) {
    const double dispatch = spec.block_dispatch_cycles * spec.cycle_seconds();
    for (int trial = 0; trial < 300; ++trial) {
      // schedule_kernel against a full-pool greedy schedule.
      LaunchConfig cfg = random_config(rng, spec, 0);
      const int resident = blocks_per_sm(spec, {cfg.block_threads, cfg.shared_mem});
      ASSERT_GT(resident, 0);
      const int slots = spec.num_sms * resident;
      cfg.grid_blocks = random_grid(rng, slots);
      std::vector<BlockCost> blocks;
      for (int b = 0; b < cfg.grid_blocks; ++b) blocks.push_back(random_cost(rng));

      KernelTiming want;
      want.resident_per_sm = resident;
      want.slots = slots;
      const int eff = effective_residency(cfg.grid_blocks, spec.num_sms, resident);
      SlotPool full(slots);
      for (const BlockCost& b : blocks) {
        full.assign(dispatch + block_seconds(spec, cfg.precision, eff, b));
        want.total_flops += b.flops;
        want.total_bytes += b.bytes;
        if (b.early_exit) ++want.early_exits;
      }
      want.exec_seconds = full.makespan();
      want.seconds = want.exec_seconds + spec.kernel_launch_overhead_us * 1e-6;
      ASSERT_EQ(dump(schedule_kernel(spec, cfg, blocks)), dump(want))
          << spec.name << " grid " << cfg.grid_blocks << " of " << slots << " slots";

      // launch_concurrent against the same loop on a full pool.
      const int kernels = 1 + static_cast<int>(rng() % 6);
      const int streams = 1 + static_cast<int>(rng() % 4);
      std::vector<LaunchConfig> configs;
      std::vector<std::vector<BlockCost>> costs;
      std::vector<BlockFn> fns;
      const LaunchConfig shape = random_config(rng, spec, 0);
      const int res0 = blocks_per_sm(spec, {shape.block_threads, shape.shared_mem});
      for (int k = 0; k < kernels; ++k) {
        LaunchConfig c = shape;
        c.grid_blocks = random_grid(rng, spec.num_sms * res0) / kernels;
        c.name = "stream" + std::to_string(k);
        configs.push_back(c);
        costs.emplace_back();
        for (int b = 0; b < c.grid_blocks; ++b) costs.back().push_back(random_cost(rng));
      }
      for (const auto& cs : costs) fns.push_back([&cs](int b) { return cs[static_cast<std::size_t>(b)]; });
      Device dev(spec);
      dev.launch_concurrent(configs, fns, streams);

      const int used = std::min({streams, spec.max_concurrent_streams, kernels});
      std::int64_t total = 0;
      for (const auto& c : configs) total += c.grid_blocks;
      const int eff_c = effective_residency(total, spec.num_sms, res0);
      const double enqueue = spec.stream_enqueue_overhead_us * 1e-6;
      SlotPool pool(spec.num_sms * res0);
      std::vector<double> ready(static_cast<std::size_t>(used), 0.0);
      std::vector<std::string> want_records;
      for (int k = 0; k < kernels; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        const int stream = k % used;
        const double start = std::max((k + 1) * enqueue, ready[static_cast<std::size_t>(stream)]);
        double end = start, flops = 0.0, bytes = 0.0;
        int exits = 0;
        for (const BlockCost& b : costs[ku]) {
          end = std::max(end, pool.assign(dispatch + block_seconds(spec, shape.precision, eff_c, b),
                                          start));
          flops += b.flops;
          bytes += b.bytes;
          if (b.early_exit) ++exits;
        }
        ready[static_cast<std::size_t>(stream)] = end;
        KernelRecord r;
        r.name = configs[ku].name;
        r.start = start;
        r.end = end;
        r.grid_blocks = configs[ku].grid_blocks;
        r.block_threads = shape.block_threads;
        r.shared_mem = shape.shared_mem;
        r.resident_per_sm = res0;
        r.flops = flops;
        r.bytes = bytes;
        r.early_exits = exits;
        r.stream = stream;
        want_records.push_back(dump(r));
      }
      const auto& got = dev.timeline().records();
      ASSERT_EQ(got.size(), want_records.size());
      for (std::size_t k = 0; k < got.size(); ++k)
        ASSERT_EQ(dump(got[k]), want_records[k]) << spec.name << " kernel " << k;
    }
  }
}

TEST(Scheduler, EffectiveResidencyBasics) {
  EXPECT_EQ(effective_residency(0, 15, 4), 1);
  EXPECT_EQ(effective_residency(15, 15, 4), 1);   // one wave
  EXPECT_EQ(effective_residency(30, 15, 4), 2);   // two waves
  EXPECT_EQ(effective_residency(60, 15, 4), 4);   // saturated
  EXPECT_EQ(effective_residency(100000, 15, 4), 4);
}

TEST(Scheduler, EffectiveResidencySurvives32BitGridCounts) {
  // The old code cast (grid + sms - 1) to long via int arithmetic; a grid
  // above INT_MAX must not wrap. 3e9 blocks on 15 SMs is deeply saturated.
  const std::int64_t grid = 3'000'000'000;
  EXPECT_EQ(effective_residency(grid, 15, 4), 4);
  EXPECT_EQ(effective_residency(grid, 15, 16), 16);
  // Just over one wave at huge scale: still 2, no overflow.
  EXPECT_EQ(effective_residency(static_cast<std::int64_t>(15) * 1'000'000 + 1, 15'000'000, 4),
            2);
}

TEST(LaunchPlanCache, MemoizesPlansAndCountsHits) {
  LaunchPlanCache cache;
  const BlockShape shape{256, 8 * 1024};
  const auto& p1 = cache.plan(spec(), shape, Precision::Double);
  EXPECT_EQ(p1.resident_per_sm, blocks_per_sm(spec(), shape));
  EXPECT_EQ(p1.slots, spec().num_sms * p1.resident_per_sm);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const auto& p2 = cache.plan(spec(), shape, Precision::Double);
  EXPECT_EQ(&p1, &p2);  // same cached entry
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  cache.plan(spec(), {512, 0}, Precision::Single);
  EXPECT_EQ(cache.distinct_plans(), 2u);
}

TEST(LaunchPlanCache, DeviceLaunchesPopulateCache) {
  Device dev(spec());
  auto fn = [](int) { return work_block(1e4, 64, 64); };
  dev.launch(cfg(10, 64), fn);
  dev.launch(cfg(10, 64), fn);
  dev.launch(cfg(10, 64), fn);
  EXPECT_EQ(dev.plan_cache().distinct_plans(), 1u);
  EXPECT_GE(dev.plan_cache().hits(), 2u);
}

// ---------------------------------------------------------------------------
// Device: arena, clock, timeline, streams
// ---------------------------------------------------------------------------

TEST(Device, ArenaAccountsAndFrees) {
  Device dev(spec());
  const std::size_t before = dev.mem_used();
  void* p = dev.device_malloc(1 << 20);
  EXPECT_EQ(dev.mem_used(), before + (1 << 20));
  dev.device_free(p);
  EXPECT_EQ(dev.mem_used(), before);
}

TEST(Device, ArenaOverflowThrowsOutOfMemory) {
  Device dev(spec());
  try {
    (void)dev.device_malloc(dev.mem_capacity() + 1);
    FAIL() << "expected OutOfDeviceMemory";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::OutOfDeviceMemory);
  }
}

TEST(Device, TimingOnlyAllocationsAreVirtual) {
  // An 11 GB TimingOnly payload must fit without touching host memory: the
  // slab only charges the arena, under a tag pointer.
  vbatch::Queue q(spec(), ExecMode::TimingOnly);
  const std::vector<int> ld{1 << 15}, cols{11 << 12};
  {
    const vbatch::SlabArrays<double> slab(q, ld, cols);
    EXPECT_GT(q.device().mem_used(), 10ull << 30);
  }
  EXPECT_EQ(q.device().mem_used(), 0u);
  void* p = q.device().device_reserve(11ull << 30);
  EXPECT_GT(q.device().mem_used(), 10ull << 30);
  q.device().device_free(p);
  EXPECT_EQ(q.device().mem_used(), 0u);
}

TEST(Device, FreeingUnknownPointerThrows) {
  Device dev(spec());
  int x = 0;
  EXPECT_THROW(dev.device_free(&x), Error);
}

TEST(Device, LaunchAdvancesClockAndRecords) {
  Device dev(spec());
  LaunchConfig c = cfg(10, 64);
  const double t = dev.launch(c, [](int) {
    return work_block(1e4, 64, 64);
  });
  EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(dev.time(), t);
  ASSERT_EQ(dev.timeline().size(), 1u);
  EXPECT_EQ(dev.timeline().records()[0].grid_blocks, 10);
  EXPECT_DOUBLE_EQ(dev.timeline().records()[0].flops, 1e5);
}

TEST(Device, LaunchRunsEachCostOnceInBlockOrder) {
  // 200 blocks, every third one an early exit: each cost functor runs
  // once, inline, in block order.
  Device dev(spec());
  constexpr int kBlocks = 200;
  std::vector<int> order;
  dev.launch(cfg(kBlocks, 64), [&](int b) {
    order.push_back(b);
    BlockCost c = work_block(1.0, 1, 64);
    c.early_exit = b % 3 == 0;
    return c;
  });
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kBlocks));
  for (int b = 0; b < kBlocks; ++b) EXPECT_EQ(order[static_cast<std::size_t>(b)], b);
  EXPECT_EQ(dev.timeline().records().back().early_exits, (kBlocks + 2) / 3);
}

TEST(Device, ConcurrentStreamsOverlapKernels) {
  // 8 kernels of 30 latency-bound blocks each (few active threads, so the
  // per-block rate does not depend on residency): serially each kernel pays
  // its own launch overhead and partially-filled waves; on 8 streams the
  // blocks pool across the slot machine and the tails overlap.
  Device serial_dev(spec());
  Device stream_dev(spec());
  auto fn = [](int) { return work_block(2e5, 8, 256); };

  double serial = 0.0;
  for (int k = 0; k < 8; ++k) serial += serial_dev.launch(cfg(30, 256), fn);

  std::vector<LaunchConfig> cfgs(8, cfg(30, 256));
  std::vector<BlockFn> fns(8, fn);
  const double overlapped = stream_dev.launch_concurrent(cfgs, fns, 8);
  EXPECT_LT(overlapped, serial * 0.7);
}

TEST(Device, StreamsRespectPerStreamOrdering) {
  // One stream: kernels serialize; result close to the serial sum.
  Device dev(spec());
  auto fn = [](int) { return work_block(2e6, 256, 256); };
  std::vector<LaunchConfig> cfgs(4, cfg(60, 256));
  std::vector<BlockFn> fns(4, fn);
  const double t1 = dev.launch_concurrent(cfgs, fns, 1);

  Device dev2(spec());
  const double t8 = dev2.launch_concurrent(cfgs, fns, 4);
  EXPECT_GT(t1, t8);
}

TEST(Device, StreamClampIsVisibleInTimeline) {
  // Requesting more streams than the device supports must not produce
  // phantom concurrency figures: the timeline records the post-clamp stream
  // assignment, so streams_used() reports the device limit, not the request.
  Device dev(spec());
  const int limit = dev.spec().max_concurrent_streams;
  const int kernels = limit + 16;
  auto fn = [](int) { return work_block(1e4, 8, 64); };
  std::vector<LaunchConfig> cfgs(static_cast<std::size_t>(kernels), cfg(4, 64));
  std::vector<BlockFn> fns(static_cast<std::size_t>(kernels), fn);
  dev.launch_concurrent(cfgs, fns, 4 * limit);
  EXPECT_EQ(dev.timeline().streams_used(), limit);
  for (const auto& rec : dev.timeline().records()) {
    EXPECT_GE(rec.stream, 0);
    EXPECT_LT(rec.stream, limit);
  }
  // The profile carries the same post-clamp figure.
  const auto profiles = profile_timeline(dev.timeline());
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].streams, limit);
}

TEST(Device, StreamsClampToKernelCount) {
  // More streams than kernels: only one kernel per stream is possible, so
  // the used-stream count equals the batch, and the run must behave exactly
  // like a run with num_streams == batch.
  Device dev(spec());
  auto fn = [](int) { return work_block(1e4, 8, 64); };
  std::vector<LaunchConfig> cfgs(5, cfg(4, 64));
  std::vector<BlockFn> fns(5, fn);
  const double wide = dev.launch_concurrent(cfgs, fns, 16);
  EXPECT_EQ(dev.timeline().streams_used(), 5);

  Device dev2(spec());
  const double exact = dev2.launch_concurrent(cfgs, fns, 5);
  EXPECT_DOUBLE_EQ(wide, exact);

  // Plain synchronous launches carry no stream tag.
  Device dev3(spec());
  dev3.launch(cfg(4, 64), fn);
  EXPECT_EQ(dev3.timeline().streams_used(), 0);
  EXPECT_EQ(dev3.timeline().records().back().stream, -1);
}

TEST(Timeline, BusyAndPrefixQueries) {
  Device dev(spec());
  dev.launch(cfg(5, 64), [](int) { return work_block(10.0, 8, 64); });
  dev.launch(cfg(5, 64), [](int) { return work_block(10.0, 8, 64); });
  EXPECT_EQ(dev.timeline().count_with_prefix("test"), 2u);
  EXPECT_GT(dev.timeline().busy_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(dev.timeline().total_flops(), 100.0);
}

}  // namespace
