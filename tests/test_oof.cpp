// Out-of-core streaming (docs/heterogeneous.md, "Out-of-core streaming"):
// the chunked host↔device transfer model and the double-buffered staging
// pipeline of the heterogeneous runtime.
//
// The load-bearing guarantee under test: a run whose staging arena is
// SMALLER than the batch footprint — so every chunk is copied in, computed,
// and written back through a bounded buffer — produces BIT-IDENTICAL
// factors and info to the everything-resident run, for every pool, stream
// count, arena budget, prefetch setting and seed. The transfer model, the
// arena admission, the pipeline placement and the parse grammar are also
// covered as units.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/energy/power_model.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/sim/device.hpp"
#include "vbatch/sim/profile.hpp"
#include "vbatch/util/error.hpp"

namespace {

using namespace vbatch;
using namespace vbatch::hetero;

template <typename T>
std::vector<std::vector<T>> snapshot(Batch<T>& batch) {
  std::vector<std::vector<T>> out;
  out.reserve(static_cast<std::size_t>(batch.count()));
  for (int i = 0; i < batch.count(); ++i) out.push_back(batch.copy_matrix(i));
  return out;
}

template <typename T>
void expect_bit_identical(const std::vector<std::vector<T>>& a,
                          const std::vector<std::vector<T>>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(0, std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(T)))
        << what << ": matrix " << i << " differs";
  }
}

std::vector<int> test_sizes(int count, int nmax, std::uint64_t seed = 33) {
  Rng rng(seed);
  return gaussian_sizes(rng, count, nmax);
}

/// Batch payload footprint under the default lda = n allocation.
double footprint_bytes(const std::vector<int>& sizes) {
  double bytes = 0.0;
  for (int n : sizes) bytes += static_cast<double>(n) * static_cast<double>(n) * sizeof(double);
  return bytes;
}

// ---------------------------------------------------------------------------
// Transfer model units
// ---------------------------------------------------------------------------

TEST(HeteroOofTransfer, SpecTransferSecondsAreLatencyPlusBytesOverBandwidth) {
  const sim::DeviceSpec k40c = sim::DeviceSpec::k40c();
  // 6 GB over the 6.0 GB/s host→device link: 1 s of wire time + 8 µs setup.
  EXPECT_DOUBLE_EQ(k40c.h2d_seconds(6.0e9), 8.0e-6 + 6.0e9 / (6.0 * 1e9));
  EXPECT_DOUBLE_EQ(k40c.d2h_seconds(6.6e9), 8.0e-6 + 6.6e9 / (6.6 * 1e9));
  // The write-back direction is modelled slightly faster on both cards.
  EXPECT_GT(k40c.d2h_bandwidth_gbps, k40c.h2d_bandwidth_gbps);
  const sim::DeviceSpec p100 = sim::DeviceSpec::p100();
  EXPECT_GT(p100.h2d_bandwidth_gbps, k40c.h2d_bandwidth_gbps);
  EXPECT_LT(p100.h2d_seconds(1e9), k40c.h2d_seconds(1e9));
}

TEST(HeteroOofTransfer, DeviceRecordsTransfersOnTheTimelineLane) {
  sim::Device dev(sim::DeviceSpec::k40c());
  dev.record_transfer(sim::TransferDir::H2D, 0, 1000.0, 0.5, 0.25);
  dev.record_transfer(sim::TransferDir::D2H, 0, 1000.0, 1.0, 0.5);
  dev.record_transfer(sim::TransferDir::H2D, 1, 500.0, 0.75, 0.25);
  const sim::Timeline& tl = dev.timeline();
  ASSERT_EQ(tl.transfers().size(), 3u);
  EXPECT_EQ(tl.transfers()[0].name, "h2d");
  EXPECT_EQ(tl.transfers()[1].dir, sim::TransferDir::D2H);
  EXPECT_EQ(tl.transfers()[2].chunk, 1);
  EXPECT_DOUBLE_EQ(tl.transfer_bytes(sim::TransferDir::H2D), 1500.0);
  EXPECT_DOUBLE_EQ(tl.transfer_bytes(sim::TransferDir::D2H), 1000.0);
  EXPECT_DOUBLE_EQ(tl.transfer_seconds(sim::TransferDir::H2D), 0.5);
  EXPECT_DOUBLE_EQ(tl.transfer_seconds(sim::TransferDir::D2H), 0.5);
  // The device clock covers the last copy's completion.
  EXPECT_GE(dev.time(), 1.5);
  dev.clear_timeline();
  EXPECT_TRUE(tl.transfers().empty());
}

TEST(HeteroOofTransfer, ProfileAggregatesTransferLaneAsPseudoKernels) {
  sim::Device dev(sim::DeviceSpec::k40c());
  dev.record_transfer(sim::TransferDir::H2D, 0, 6.0e9, 0.0, 1.0);
  dev.record_transfer(sim::TransferDir::H2D, 1, 6.0e9, 2.0, 1.0);
  const auto profiles = sim::profile_timeline(dev.timeline());
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].name, "h2d");
  EXPECT_EQ(profiles[0].launches, 2);
  EXPECT_DOUBLE_EQ(profiles[0].seconds, 2.0);
  // GB/s column reads as the achieved link bandwidth; flops stay zero.
  EXPECT_DOUBLE_EQ(profiles[0].gbytes_per_s(), 6.0);
  EXPECT_DOUBLE_EQ(profiles[0].flops, 0.0);
}

// ---------------------------------------------------------------------------
// Scheduler pipeline units (hand-computed virtual-time placements)
// ---------------------------------------------------------------------------

/// Three equal chunks through one streamed executor: h2d = compute = d2h =
/// 1 s each, unbounded arena.
/// A chunk's committed staging placement {h2d_start, h2d_end, d2h_start, d2h_end}.
std::array<double, 4> staging_of(const ChunkSchedule& ch) {
  return {ch.h2d_start, ch.h2d_end, ch.d2h_start, ch.d2h_end};
}

ScheduleParams streamed_params(bool prefetch) {
  ScheduleParams sp;
  sp.owner = {0, 0, 0};
  sp.estimate = {{1.0, 1.0, 1.0}};
  sp.h2d = {{1.0, 1.0, 1.0}};
  sp.d2h = {{1.0, 1.0, 1.0}};
  sp.chunk_bytes = {100.0, 100.0, 100.0};
  sp.prefetch = prefetch;
  return sp;
}

TEST(HeteroOofSchedule, SynchronousStagingSerializesTheThreeStages) {
  // No prefetch slot: each chunk's h2d → compute → d2h occupy the executor
  // end to end, so three chunks take 9 s.
  const auto res =
      run_schedule(streamed_params(false), [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(res.makespan, 9.0);
  EXPECT_DOUBLE_EQ(res.executors[0].busy_seconds, 3.0);            // compute only
  EXPECT_DOUBLE_EQ(res.executors[0].h2d_seconds, 3.0);
  EXPECT_DOUBLE_EQ(res.executors[0].d2h_seconds, 3.0);
  EXPECT_DOUBLE_EQ(res.executors[0].h2d_bytes, 300.0);
  EXPECT_DOUBLE_EQ(res.executors[0].pipeline_seconds, 9.0);        // nothing overlapped
  // Chunk 1 stages strictly after chunk 0's write-back.
  EXPECT_DOUBLE_EQ(res.chunks[0].h2d_start, 0.0);
  EXPECT_DOUBLE_EQ(res.chunks[0].d2h_end, 3.0);
  EXPECT_DOUBLE_EQ(res.chunks[1].h2d_start, 3.0);
  EXPECT_DOUBLE_EQ(res.chunks[2].d2h_end, 9.0);
}

TEST(HeteroOofSchedule, PrefetchDoubleBuffersTheNextChunk) {
  // One prefetch slot: chunk 1's h2d runs behind chunk 0's compute, so the
  // committed trajectory is h2d [0,1)+[1,2)+[3,4), compute [1,2)+[2,3)+
  // [4,5), d2h [2,3)+[3,4)+[5,6) — makespan 6 s instead of 9.
  const auto res =
      run_schedule(streamed_params(true), [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(res.makespan, 6.0);
  EXPECT_DOUBLE_EQ(res.executors[0].busy_seconds, 3.0);  // compute rate stayed 1.0 throughout
  EXPECT_DOUBLE_EQ(res.executors[0].pipeline_seconds, 6.0);
  EXPECT_EQ(res.executors[0].max_in_flight, 2);  // streams + the prefetch slot
  const std::array<double, 4> c0{0.0, 1.0, 2.0, 3.0};
  const std::array<double, 4> c1{1.0, 2.0, 3.0, 4.0};
  const std::array<double, 4> c2{3.0, 4.0, 5.0, 6.0};
  EXPECT_EQ(staging_of(res.chunks[0]), c0);
  EXPECT_EQ(staging_of(res.chunks[1]), c1);
  EXPECT_EQ(staging_of(res.chunks[2]), c2);
}

TEST(HeteroOofSchedule, ArenaBudgetDelaysAdmissionUntilBytesRelease) {
  // Budget 150 with 100-byte chunks: chunk 1's h2d cannot start until chunk
  // 0's d2h completes at t = 3 — the staging windows never overlap in the
  // arena even though the prefetch slot is free.
  ScheduleParams sp = streamed_params(true);
  sp.owner = {0, 0};
  sp.estimate = {{1.0, 1.0}};
  sp.h2d = {{1.0, 1.0}};
  sp.d2h = {{1.0, 1.0}};
  sp.chunk_bytes = {100.0, 100.0};
  sp.arena = {150.0};
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(res.chunks[0].d2h_end, 3.0);
  EXPECT_DOUBLE_EQ(res.chunks[1].h2d_start, 3.0);  // admission waited for the release
  EXPECT_DOUBLE_EQ(res.makespan, 6.0);
  // Arena invariant: at no committed instant do resident bytes exceed the
  // budget (chunk i occupies [h2d_start, d2h_end)).
  for (std::size_t i = 0; i < res.chunks.size(); ++i)
    for (std::size_t j = i + 1; j < res.chunks.size(); ++j) {
      const ChunkSchedule& ci = res.chunks[i];
      const ChunkSchedule& cj = res.chunks[j];
      const bool disjoint = ci.d2h_end <= cj.h2d_start || cj.d2h_end <= ci.h2d_start;
      EXPECT_TRUE(disjoint) << "chunks " << i << "/" << j << " co-resident over budget";
    }

  // An unbounded arena (or one that fits both) admits chunk 1 at t = 1.
  sp.arena = {200.0};
  const auto wide = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(wide.chunks[1].h2d_start, 1.0);
  EXPECT_DOUBLE_EQ(wide.makespan, 4.0);
}

TEST(HeteroOofSchedule, SingleChunkOverBudgetFailsLoudly) {
  ScheduleParams sp = streamed_params(true);
  sp.arena = {50.0};  // every chunk carries 100 bytes
  const std::function<double(int, int, const StreamSlot&)> unit =
      [](int, int, const StreamSlot&) { return 1.0; };
  EXPECT_THROW((void)run_schedule(sp, unit), vbatch::Error);
}

TEST(HeteroOofSchedule, EmptyTransferRowsReplayTheResidentScheduleExactly) {
  // Attaching the staging fields with every row empty must not perturb the
  // classic schedule by a single clock tick.
  ScheduleParams plain;
  plain.owner = {0, 0, 0, 0};
  plain.estimate = {{1.0, 1.0, 1.0, 1.0}, {1.5, 1.5, 1.5, 1.5}};
  const auto base = run_schedule(plain, [&](int, int, const StreamSlot&) { return 1.0; });

  ScheduleParams oof = plain;
  oof.h2d = {{}, {}};
  oof.d2h = {{}, {}};
  oof.arena = {0.0, 0.0};
  oof.prefetch = true;
  const auto res = run_schedule(oof, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_DOUBLE_EQ(res.makespan, base.makespan);
  ASSERT_EQ(res.chunks.size(), base.chunks.size());
  for (std::size_t c = 0; c < base.chunks.size(); ++c)
    EXPECT_EQ(res.chunks[c].executor, base.chunks[c].executor);
  for (std::size_t e = 0; e < base.executors.size(); ++e) {
    EXPECT_DOUBLE_EQ(res.executors[e].finish_seconds, base.executors[e].finish_seconds);
    EXPECT_DOUBLE_EQ(res.executors[e].busy_seconds, base.executors[e].busy_seconds);
    EXPECT_DOUBLE_EQ(res.executors[e].h2d_seconds, 0.0);
    EXPECT_DOUBLE_EQ(res.executors[e].pipeline_seconds, res.executors[e].occupied_seconds);
  }
  for (const ChunkSchedule& ch : res.chunks)
    EXPECT_EQ(staging_of(ch), (std::array<double, 4>{0.0, 0.0, 0.0, 0.0}));
}

TEST(HeteroOofSchedule, TransferBoundPipelineHidesComputeEntirely)
{
  // Transfer-bound chunks (copies dominate compute): with double buffering
  // the H2D lane never idles after the first chunk, so the makespan
  // approaches the serial wire time of one direction, not the sum of all
  // three stages.
  ScheduleParams sp;
  sp.owner = {0, 0, 0, 0};
  sp.estimate = {{0.1, 0.1, 0.1, 0.1}};
  sp.h2d = {{1.0, 1.0, 1.0, 1.0}};
  sp.d2h = {{1.0, 1.0, 1.0, 1.0}};
  sp.chunk_bytes = {100.0, 100.0, 100.0, 100.0};
  sp.prefetch = true;
  const auto fast = run_schedule(sp, [&](int, int, const StreamSlot&) { return 0.1; });
  sp.prefetch = false;
  const auto slow = run_schedule(sp, [&](int, int, const StreamSlot&) { return 0.1; });
  EXPECT_GT(slow.makespan / fast.makespan, 1.5);
  // Pipeline span < busy + transfers: the overlap the ratio measures.
  EXPECT_LT(fast.executors[0].pipeline_seconds, fast.executors[0].busy_seconds + fast.executors[0].h2d_seconds + fast.executors[0].d2h_seconds);
}

TEST(HeteroOofFault, TransientOnStreamedExecutorChargesTheStagingToo) {
  // A faulted attempt on a streaming executor wastes its copies as well as
  // its compute: the retry re-stages from the pristine host input.
  ScheduleParams sp = streamed_params(true);
  const auto plan = fault::FaultPlan(fault::parse_fault_spec("transient:exec=0,chunk=0,times=1"));
  sp.faults = &plan;
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  ASSERT_EQ(res.retries_total, 1);
  ASSERT_FALSE(res.events.empty());
  const auto& ev = res.events.front();
  EXPECT_EQ(ev.kind, fault::FaultKind::Transient);
  EXPECT_DOUBLE_EQ(ev.waste_seconds, 1.0 + 1.0 + 1.0);  // est + h2d + d2h
  // Every chunk still committed exactly once.
  for (const ChunkSchedule& ch : res.chunks) EXPECT_EQ(ch.executor, 0);
}

// ---------------------------------------------------------------------------
// Bit-identity: the acceptance criterion
// ---------------------------------------------------------------------------

TEST(HeteroOofIdentity, ArenaSmallerThanFootprintMatchesInCoreBitForBit) {
  const auto sizes = test_sizes(120, 300);
  const double footprint = footprint_bytes(sizes);

  // In-core reference on a single K40c.
  Queue qref;
  Batch<double> ref(qref, sizes);
  Rng fill_ref(7);
  ref.fill_spd(fill_ref);
  (void)potrf_vbatched<double>(qref, Uplo::Lower, ref);
  const auto base = snapshot(ref);
  const std::vector<int> base_info(ref.info().begin(), ref.info().end());

  // Bit-identity must hold for every composition × stream count × arena ×
  // prefetch × seed combination that streams out of core.
  const char* pools[] = {"k40c", "k40c:3streams", "k40c,p100", "cpu,k40c:2streams"};
  for (const char* desc : pools) {
    for (const double frac : {0.45, 0.8}) {
      for (const bool prefetch : {true, false}) {
        for (const std::uint64_t seed : {2016ull, 99ull}) {
          DevicePool pool = DevicePool::parse(desc);
          for (int e = 0; e < pool.size(); ++e)
            if (pool.executor(e).is_gpu())
              pool.executor(e).set_arena_bytes(footprint * frac);
          Queue q;
          Batch<double> batch(q, sizes);
          Rng fill(7);
          batch.fill_spd(fill);
          HeteroOptions opts;
          opts.prefetch = prefetch;
          opts.steal_seed = seed;
          // Finer chunking keeps every single chunk under the tight budgets.
          opts.chunks_per_executor = 8;
          const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
          const std::string what = std::string(desc) + " frac=" + std::to_string(frac) +
                                   " prefetch=" + std::to_string(prefetch) +
                                   " seed=" + std::to_string(seed);
          EXPECT_GT(r.h2d_bytes, 0.0) << what << ": expected out-of-core staging";
          expect_bit_identical(base, snapshot(batch), what);
          for (int i = 0; i < batch.count(); ++i)
            EXPECT_EQ(base_info[static_cast<std::size_t>(i)],
                      batch.info()[static_cast<std::size_t>(i)])
                << what << ": info " << i;
        }
      }
    }
  }
}

TEST(HeteroOofIdentity, ForcedStreamingMatchesResidentClockToClockInFactors) {
  // Staging::Streamed pushes every chunk through the pipeline even though
  // the whole batch fits — factors and info must not move.
  const auto sizes = test_sizes(80, 260, 11);
  DevicePool resident = DevicePool::parse("k40c,cpu");
  Queue q1;
  Batch<double> b1(q1, sizes);
  Rng f1(7);
  b1.fill_spd(f1);
  (void)potrf_vbatched_hetero<double>(resident, Uplo::Lower, b1);

  DevicePool streamed = DevicePool::parse("k40c,cpu");
  Queue q2;
  Batch<double> b2(q2, sizes);
  Rng f2(7);
  b2.fill_spd(f2);
  HeteroOptions opts;
  opts.staging = HeteroOptions::Staging::Streamed;
  const auto r = potrf_vbatched_hetero<double>(streamed, Uplo::Lower, b2, opts);
  EXPECT_TRUE(r.executors[0].streamed);
  EXPECT_GT(r.h2d_bytes, 0.0);
  expect_bit_identical(snapshot(b1), snapshot(b2), "forced streaming");
}

TEST(HeteroOofIdentity, HugeArenaReproducesTheResidentScheduleClockForClock) {
  // Staging::Auto with an arena far above the footprint must take the
  // classic resident path — same factors AND the same virtual-time result,
  // to the last bit of the makespan.
  const auto sizes = test_sizes(60, 220, 5);
  DevicePool plain = DevicePool::parse("k40c,cpu");
  Queue q1;
  Batch<double> b1(q1, sizes);
  Rng f1(7);
  b1.fill_spd(f1);
  const auto r1 = potrf_vbatched_hetero<double>(plain, Uplo::Lower, b1);

  DevicePool wide = DevicePool::parse("k40c:1000gb,cpu");
  Queue q2;
  Batch<double> b2(q2, sizes);
  Rng f2(7);
  b2.fill_spd(f2);
  const auto r2 = potrf_vbatched_hetero<double>(wide, Uplo::Lower, b2);
  EXPECT_DOUBLE_EQ(r2.seconds, r1.seconds);
  EXPECT_DOUBLE_EQ(r2.h2d_bytes, 0.0);
  EXPECT_FALSE(r2.executors[0].streamed);
  expect_bit_identical(snapshot(b1), snapshot(b2), "huge arena");
}

TEST(HeteroOofFault, FaultsDuringStreamingKeepTheFactors) {
  // Transient faults while chunks stream re-stage from the pristine host
  // input: recovery must stay bit-identical to the fault-free streamed run.
  const auto sizes = test_sizes(100, 280, 3);
  const double footprint = footprint_bytes(sizes);

  DevicePool clean = DevicePool::parse("k40c:2streams,k40c");
  for (int e = 0; e < clean.size(); ++e) clean.executor(e).set_arena_bytes(footprint * 0.4);
  Queue q1;
  Batch<double> b1(q1, sizes);
  Rng f1(7);
  b1.fill_spd(f1);
  const auto r1 = potrf_vbatched_hetero<double>(clean, Uplo::Lower, b1);
  EXPECT_GT(r1.h2d_bytes, 0.0);

  DevicePool faulty = DevicePool::parse("k40c:2streams,k40c");
  for (int e = 0; e < faulty.size(); ++e) faulty.executor(e).set_arena_bytes(footprint * 0.4);
  faulty.set_faults(fault::parse_fault_spec("seed=13;transient:rate=0.4"));
  Queue q2;
  Batch<double> b2(q2, sizes);
  Rng f2(7);
  b2.fill_spd(f2);
  const auto r2 = potrf_vbatched_hetero<double>(faulty, Uplo::Lower, b2);
  EXPECT_GT(r2.retries, 0);
  EXPECT_GT(r2.seconds, r1.seconds);  // wasted attempts re-stage their copies
  expect_bit_identical(snapshot(b1), snapshot(b2), "faults during streaming");
}

// ---------------------------------------------------------------------------
// Report plumbing and knobs
// ---------------------------------------------------------------------------

TEST(HeteroOofReport, StagingLedgerAndEnergyReachTheReport) {
  const auto sizes = test_sizes(90, 280, 21);
  const double footprint = footprint_bytes(sizes);

  HeteroOptions opts;
  opts.chunks_per_executor = 8;  // keep each chunk under the tight budget

  DevicePool resident = DevicePool::parse("k40c");
  Queue q1;
  Batch<double> b1(q1, sizes);
  Rng f1(7);
  b1.fill_spd(f1);
  const auto r1 = potrf_vbatched_hetero<double>(resident, Uplo::Lower, b1, opts);

  DevicePool pool = DevicePool::parse("k40c");
  pool.executor(0).set_arena_bytes(footprint * 0.5);
  Queue q2;
  Batch<double> b2(q2, sizes);
  Rng f2(7);
  b2.fill_spd(f2);
  const auto r2 = potrf_vbatched_hetero<double>(pool, Uplo::Lower, b2, opts);
  ASSERT_EQ(r2.executors.size(), 1u);
  const auto& ex = r2.executors[0];
  EXPECT_TRUE(ex.streamed);
  // Every chunk staged exactly once, both ways, over the whole footprint.
  EXPECT_DOUBLE_EQ(ex.h2d_bytes, footprint);
  EXPECT_DOUBLE_EQ(ex.d2h_bytes, footprint);
  EXPECT_DOUBLE_EQ(r2.h2d_bytes, footprint);
  EXPECT_GT(ex.h2d_seconds, 0.0);
  EXPECT_GT(ex.d2h_seconds, 0.0);
  // The pipeline span covers at least the compute and at most the serial
  // sum of the three stages.
  EXPECT_GE(ex.pipeline_seconds, ex.busy_seconds);
  EXPECT_LE(ex.pipeline_seconds,
            ex.busy_seconds + ex.h2d_seconds + ex.d2h_seconds + 1e-12);
  // Transfer energy: charged per wire second on top of the compute
  // integration, so the streamed pool burns more joules than the resident.
  EXPECT_DOUBLE_EQ(ex.transfer_joules,
                   energy::PowerModel::k40c().transfer_watts * (ex.h2d_seconds + ex.d2h_seconds));
  EXPECT_GT(r2.energy.joules, r1.energy.joules);
  // The streamed makespan pays the exposed transfer time.
  EXPECT_GT(r2.seconds, r1.seconds);
  // And the device timeline carries the copies for the profiler.
  const auto profiles =
      sim::profile_timeline(pool.executor(0).queue().device().timeline());
  const bool has_h2d = std::any_of(profiles.begin(), profiles.end(),
                                   [](const auto& p) { return p.name == "h2d"; });
  EXPECT_TRUE(has_h2d);
}

TEST(HeteroOofReport, PrefetchBeatsSynchronousStaging) {
  const auto sizes = test_sizes(110, 300, 17);
  const double footprint = footprint_bytes(sizes);
  double seconds[2] = {0.0, 0.0};
  for (const bool prefetch : {true, false}) {
    DevicePool pool = DevicePool::parse("k40c");
    // Wide enough for two chunks to co-reside, small enough to stream.
    pool.executor(0).set_arena_bytes(footprint * 0.9);
    Queue q;
    Batch<double> batch(q, sizes);
    Rng fill(7);
    batch.fill_spd(fill);
    HeteroOptions opts;
    opts.prefetch = prefetch;
    opts.chunks_per_executor = 8;
    const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
    seconds[prefetch ? 0 : 1] = r.seconds;
  }
  EXPECT_LT(seconds[0], seconds[1]);
}

TEST(HeteroOofReport, ResidentStagingPolicyRefusesOversizedBatches) {
  const auto sizes = test_sizes(100, 300, 29);
  DevicePool pool = DevicePool::parse("k40c");
  pool.executor(0).set_arena_bytes(footprint_bytes(sizes) * 0.5);
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  HeteroOptions opts;
  opts.staging = HeteroOptions::Staging::Resident;
  EXPECT_THROW((void)potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts),
               vbatch::Error);
}

TEST(HeteroOofReport, ArenaEnvKnobAppliesOnlyToUnpinnedExecutors) {
  const auto sizes = test_sizes(80, 280, 41);
  const double footprint = footprint_bytes(sizes);
  // Pick an env budget below the footprint so unpinned executors stream.
  const double env_gb = footprint * 0.4 / (1024.0 * 1024.0 * 1024.0);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", env_gb);
  ASSERT_EQ(0, setenv("VBATCH_ARENA_GB", buf, 1));
  DevicePool pool = DevicePool::parse("k40c,k40c:1000gb");
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  unsetenv("VBATCH_ARENA_GB");
  ASSERT_EQ(r.executors.size(), 2u);
  EXPECT_TRUE(r.executors[0].streamed);    // env default applied
  EXPECT_FALSE(r.executors[1].streamed);   // parse-pinned budget wins

  ASSERT_EQ(0, setenv("VBATCH_ARENA_GB", "not-a-number", 1));
  EXPECT_THROW(
      {
        DevicePool bad = DevicePool::parse("k40c");
        Queue qb;
        Batch<double> bb(qb, sizes);
        Rng fb(7);
        bb.fill_spd(fb);
        (void)potrf_vbatched_hetero<double>(bad, Uplo::Lower, bb);
      },
      vbatch::Error);
  unsetenv("VBATCH_ARENA_GB");
}

TEST(HeteroEnvKnobs, ArenaKnobSetAfterBuildDoesNotChangeThePool) {
  const auto sizes = test_sizes(80, 280, 41);
  DevicePool pool = DevicePool::parse("k40c");
  // A budget the batch would have to stream through, set too late to count.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f",
                footprint_bytes(sizes) * 0.4 / (1024.0 * 1024.0 * 1024.0));
  ASSERT_EQ(0, setenv("VBATCH_ARENA_GB", buf, 1));
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  const DevicePool later = DevicePool::parse("k40c");
  unsetenv("VBATCH_ARENA_GB");
  EXPECT_FALSE(r.executors[0].streamed);
  EXPECT_DOUBLE_EQ(r.h2d_bytes, 0.0);
  EXPECT_DOUBLE_EQ(pool.executor(0).arena_bytes(),
                   static_cast<double>(sim::DeviceSpec::k40c().global_mem_bytes));
  EXPECT_LT(later.executor(0).arena_bytes(), footprint_bytes(sizes));
  EXPECT_FALSE(later.executor(0).arena_explicit());  // a default, not a pin
}

// ---------------------------------------------------------------------------
// DevicePool ':Ngb' grammar
// ---------------------------------------------------------------------------

TEST(DevicePoolArena, ParseArenaSuffixConfiguresTheBudget) {
  DevicePool pool = DevicePool::parse("k40c:2gb,p100");
  EXPECT_DOUBLE_EQ(pool.executor(0).arena_bytes(), 2.0 * 1024 * 1024 * 1024);
  EXPECT_TRUE(pool.executor(0).arena_explicit());
  // The unsuffixed P100 keeps its spec default (16 GB card).
  EXPECT_FALSE(pool.executor(1).arena_explicit());
  EXPECT_DOUBLE_EQ(pool.executor(1).arena_bytes(),
                   static_cast<double>(sim::DeviceSpec::p100().global_mem_bytes));
  // Default K40c budget is its 12 GB card.
  DevicePool plain = DevicePool::parse("k40c");
  EXPECT_DOUBLE_EQ(plain.executor(0).arena_bytes(),
                   static_cast<double>(sim::DeviceSpec::k40c().global_mem_bytes));
}

TEST(DevicePoolArena, SuffixesComposeInEitherOrder) {
  DevicePool a = DevicePool::parse("k40c:4streams:1.5gb");
  EXPECT_EQ(a.executor(0).streams(), 4);
  EXPECT_DOUBLE_EQ(a.executor(0).arena_bytes(), 1.5 * 1024 * 1024 * 1024);
  DevicePool b = DevicePool::parse("k40c:1.5gb:4streams");
  EXPECT_EQ(b.executor(0).streams(), 4);
  EXPECT_DOUBLE_EQ(b.executor(0).arena_bytes(), 1.5 * 1024 * 1024 * 1024);
}

TEST(DevicePoolArena, DescribeRoundTripsTheArenaSuffix) {
  DevicePool pool = DevicePool::parse("k40c:4streams:2gb,p100,cpu");
  EXPECT_EQ(pool.describe(), "k40c#0:4streams:2gb + p100#1 + cpu");
  DevicePool reparsed = DevicePool::parse("k40c:4streams:2gb,p100,cpu");
  EXPECT_EQ(reparsed.describe(), pool.describe());
}

TEST(DevicePoolArena, ParseRejectsBadArenaSuffixes) {
  // Mirror of the ':Nstreams' hardening matrix: every malformed arena
  // suffix fails loudly with a named error, never a degenerate pool.
  const char* bad[] = {
      "k40c:gb",         // missing value
      "k40c:0gb",        // zero budget
      "k40c:-1gb",       // negative budget
      "k40c:xgb",        // non-numeric
      "k40c:1.2.3gb",    // trailing junk inside the number
      "k40c:0x1p1gb",    // hex
      "k40c:+1gb",       // leading '+'
      "k40c:infgb",      // non-finite
      "k40c:2gb:3gb",    // duplicate arena suffix
      "k40c:2streams:3streams",  // duplicate stream suffix (regression guard)
      "k40c:",           // dangling colon
      "k40c:2mb",        // unknown unit
      "cpu:1gb",         // the CPU has no arena
  };
  for (const char* desc : bad)
    EXPECT_THROW((void)DevicePool::parse(desc), vbatch::Error) << desc;
}

TEST(DevicePoolArena, SettersValidate) {
  DevicePool pool = DevicePool::parse("k40c,cpu");
  EXPECT_THROW(pool.executor(0).set_arena_gb(0.0), vbatch::Error);
  EXPECT_THROW(pool.executor(0).set_arena_gb(-2.0), vbatch::Error);
  EXPECT_THROW(pool.executor(1).set_arena_gb(1.0), vbatch::Error);  // cpu
  pool.executor(0).set_arena_gb(0.5);
  EXPECT_DOUBLE_EQ(pool.executor(0).arena_bytes(), 0.5 * 1024 * 1024 * 1024);
  EXPECT_TRUE(pool.executor(0).arena_explicit());
}

}  // namespace
