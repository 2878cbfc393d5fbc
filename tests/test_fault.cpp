// vbatch::fault — deterministic fault injection and the self-healing
// heterogeneous runtime.
//
// The load-bearing guarantee under test: for every (pool, seed, fault spec)
// with at least one surviving executor, the recovered run produces factors
// and info BIT-IDENTICAL to the fault-free single-device run — numerics
// only ever execute on the one successful attempt of each chunk. On top of
// that: the spec grammar rejects malformed input, the injection oracle is a
// pure function (same spec ⇒ same fault sequence ⇒ same recovery schedule),
// degradation goes all the way down to CPU-only, total loss poisons info
// with kInfoChunkLost instead of throwing, and the wasted intervals are
// visible in the device timelines and the profiler.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/fault/fault_plan.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
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

struct Baseline {
  std::vector<std::vector<double>> factors;
  std::vector<int> info;
};

Baseline single_device_baseline(const std::vector<int>& sizes) {
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  (void)potrf_vbatched<double>(q, Uplo::Lower, batch);
  Baseline b;
  b.factors = snapshot(batch);
  b.info.assign(batch.info().begin(), batch.info().end());
  return b;
}

struct FaultedRun {
  std::vector<std::vector<double>> factors;
  std::vector<int> info;
  HeteroResult result;
};

FaultedRun hetero_faulted(const std::vector<int>& sizes, const std::string& pool_desc,
                          const std::string& fault_spec) {
  DevicePool pool = DevicePool::parse(pool_desc);
  if (!fault_spec.empty()) pool.set_faults(fault::parse_fault_spec(fault_spec));
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  FaultedRun r;
  r.result = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  r.factors = snapshot(batch);
  r.info.assign(batch.info().begin(), batch.info().end());
  return r;
}

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesTheFullGrammar) {
  const auto spec = fault::parse_fault_spec(
      "seed=7;transient:rate=0.25;transient:exec=1,chunk=3,times=2;"
      "hang:exec=0,chunk=-1;die:exec=2,after=4");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.transient_rate, 0.25);
  ASSERT_EQ(spec.transients.size(), 1u);
  EXPECT_EQ(spec.transients[0].exec, 1);
  EXPECT_EQ(spec.transients[0].chunk, 3);
  EXPECT_EQ(spec.transients[0].times, 2);
  ASSERT_EQ(spec.hangs.size(), 1u);
  EXPECT_EQ(spec.hangs[0].exec, 0);
  EXPECT_EQ(spec.hangs[0].chunk, -1);
  ASSERT_EQ(spec.deaths.size(), 1u);
  EXPECT_EQ(spec.deaths[0].exec, 2);
  EXPECT_EQ(spec.deaths[0].after, 4);
  EXPECT_FALSE(spec.empty());
}

TEST(FaultSpec, DefaultsAndEmpty) {
  EXPECT_TRUE(fault::parse_fault_spec("").empty());
  // A targeted transient defaults to times=1, any exec, any chunk.
  const auto spec = fault::parse_fault_spec("transient:times=1");
  ASSERT_EQ(spec.transients.size(), 1u);
  EXPECT_EQ(spec.transients[0].exec, -1);
  EXPECT_EQ(spec.transients[0].chunk, -1);
  EXPECT_EQ(spec.transients[0].times, 1);
}

TEST(FaultSpec, DescribeRoundTrips) {
  for (const char* spec : {"seed=9;transient:rate=0.1;die:exec=1,after=0",
                           "seed=9223372036854775808;transient:rate=0.123456789"}) {
    const std::string canonical = fault::parse_fault_spec(spec).describe();
    EXPECT_EQ(canonical, spec);
    EXPECT_EQ(fault::parse_fault_spec(canonical).describe(), canonical);
  }
  EXPECT_EQ(fault::parse_fault_spec("seed=9223372036854775808").seed, 0x8000000000000000ull);
}

TEST(FaultSpec, RejectsMalformedInput) {
  const char* bad[] = {
      "transient:rate=1.5",          // rate out of [0, 1]
      "transient:rate=-0.1",         //
      "transient:rate=abc",          // not a number
      "transient:rate=0.2,exec=1",   // rate and targeting are exclusive
      "transient:exec=0,times=0",    // times must be >= 1
      "transient:bogus=1",           // unknown key
      "hang:after=2",                // unknown key for hang
      "die:after=2",                 // die needs an executor
      "die:exec=1,chunk=0",          // unknown key for die
      "explode:exec=1",              // unknown fault head
      "seed=abc",                    // not a number
      "seed=-1",                     // seeds are unsigned
      "seed=1e3",                    // integer fields read as integers
      "hang:exec=+1",                // no leading '+'
      "seed=",                       //
      ";",                           // stray separator
      "transient:rate=0.2;;seed=1",  // empty clause
      "transient:",                  // empty rule body
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)fault::parse_fault_spec(spec), Error) << "accepted: " << spec;
  }
}

// ---------------------------------------------------------------------------
// The injection oracle is a pure function
// ---------------------------------------------------------------------------

TEST(FaultPlan, OutcomeIsPureAndSeedDependent) {
  const fault::FaultPlan a(fault::parse_fault_spec("seed=5;transient:rate=0.3"));
  const fault::FaultPlan b(fault::parse_fault_spec("seed=5;transient:rate=0.3"));
  const fault::FaultPlan c(fault::parse_fault_spec("seed=6;transient:rate=0.3"));
  int fired = 0, differs = 0;
  for (int e = 0; e < 4; ++e)
    for (int ch = 0; ch < 16; ++ch)
      for (int at = 1; at <= 3; ++at) {
        EXPECT_EQ(a.attempt_outcome(e, ch, at), b.attempt_outcome(e, ch, at));
        if (a.attempt_outcome(e, ch, at) != fault::FaultKind::None) ++fired;
        if (a.attempt_outcome(e, ch, at) != c.attempt_outcome(e, ch, at)) ++differs;
      }
  EXPECT_GT(fired, 0);    // rate 0.3 over 192 attempts must fire
  EXPECT_GT(differs, 0);  // and a different seed must reshuffle
}

TEST(FaultPlan, TargetedRulesAndPrecedence) {
  const fault::FaultPlan plan(fault::parse_fault_spec(
      "transient:exec=0,chunk=2,times=2;hang:exec=0,chunk=2;die:exec=1,after=3"));
  // Hang wins over the matching transient on the same (exec, chunk).
  EXPECT_EQ(plan.attempt_outcome(0, 2, 1), fault::FaultKind::Hang);
  EXPECT_EQ(plan.attempt_outcome(0, 3, 1), fault::FaultKind::None);
  EXPECT_EQ(plan.attempt_outcome(1, 2, 1), fault::FaultKind::None);
  EXPECT_EQ(plan.dies_after(1), 3);
  EXPECT_EQ(plan.dies_after(0), -1);
}

TEST(FaultPlan, TransientTimesBoundsTheAttempts) {
  const fault::FaultPlan plan(fault::parse_fault_spec("transient:exec=1,chunk=0,times=2"));
  EXPECT_EQ(plan.attempt_outcome(1, 0, 1), fault::FaultKind::Transient);
  EXPECT_EQ(plan.attempt_outcome(1, 0, 2), fault::FaultKind::Transient);
  EXPECT_EQ(plan.attempt_outcome(1, 0, 3), fault::FaultKind::None);
}

// ---------------------------------------------------------------------------
// Scheduler recovery loop (unit level)
// ---------------------------------------------------------------------------

ScheduleParams two_exec_params(int chunks) {
  ScheduleParams sp;
  for (int c = 0; c < chunks; ++c) sp.owner.push_back(c % 2);
  sp.estimate.assign(2, std::vector<double>(static_cast<std::size_t>(chunks), 1.0));
  return sp;
}

TEST(FaultScheduler, TransientRetriesThenSucceeds) {
  ScheduleParams sp;
  sp.owner = {0};
  sp.estimate = {{1.0}};
  const fault::FaultPlan plan(fault::parse_fault_spec("transient:exec=0,chunk=0,times=2"));
  sp.faults = &plan;
  int executions = 0;
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) {
    ++executions;
    return 1.0;
  });
  EXPECT_EQ(executions, 1);  // numerics ran exactly once
  EXPECT_EQ(res.chunks[0].attempts, 3);
  EXPECT_EQ(res.retries_total, 2);
  EXPECT_EQ(res.chunks[0].executor, 0);
  EXPECT_EQ(res.chunks_poisoned, 0);
  // Two wasted attempts + the success, plus backoff 50us + 100us.
  const double backoff = sp.retry.backoff_seconds * (1.0 + sp.retry.backoff_multiplier);
  EXPECT_DOUBLE_EQ(res.executors[0].busy_seconds, 3.0);
  EXPECT_DOUBLE_EQ(res.backoff_seconds, backoff);
  EXPECT_DOUBLE_EQ(res.makespan, 3.0 + backoff);
  ASSERT_EQ(res.events.size(), 2u);
  EXPECT_EQ(res.events[0].kind, fault::FaultKind::Transient);
  EXPECT_EQ(res.events[1].attempt, 2);
}

TEST(FaultScheduler, ExhaustedRetriesRedispatchToPeer) {
  auto sp = two_exec_params(2);
  // Executor 0 can never run chunk 0; after max_attempts it must hand the
  // chunk to executor 1, which runs it cleanly. Stealing is off so the
  // hand-over goes through retry exhaustion, not an opportunistic steal.
  sp.work_stealing = false;
  const fault::FaultPlan plan(fault::parse_fault_spec("transient:exec=0,chunk=0,times=99"));
  sp.faults = &plan;
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_EQ(res.chunks[0].executor, 1);
  EXPECT_EQ(res.executors[0].retries, sp.retry.max_attempts);
  EXPECT_EQ(res.chunks_poisoned, 0);
  EXPECT_EQ(res.executors_lost, 0);
}

TEST(FaultScheduler, NoSurvivorPoisonsTheChunk) {
  ScheduleParams sp;
  sp.owner = {0, 0};
  sp.estimate = {{1.0, 1.0}};
  const fault::FaultPlan plan(fault::parse_fault_spec("transient:exec=0,chunk=1,times=99"));
  sp.faults = &plan;
  int executions = 0;
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) {
    ++executions;
    return 1.0;
  });
  EXPECT_EQ(executions, 1);  // chunk 0 only; chunk 1 never commits
  EXPECT_EQ(res.chunks[0].executor, 0);
  EXPECT_EQ(res.chunks[1].executor, -1);  // not completed = poisoned
  EXPECT_EQ(res.chunks_poisoned, 1);
  EXPECT_EQ(res.events.back().kind, fault::FaultKind::ChunkLost);
  EXPECT_EQ(res.events.back().chunk, 1);
}

TEST(FaultScheduler, DeathOrphansTheDequeOntoSurvivors) {
  auto sp = two_exec_params(6);
  const fault::FaultPlan plan(fault::parse_fault_spec("die:exec=0,after=1"));
  sp.faults = &plan;
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_EQ(res.executors_lost, 1);
  EXPECT_EQ(res.executors[0].lost, 1);
  EXPECT_EQ(res.executors[0].chunks, 1);  // completed exactly `after` chunks
  EXPECT_EQ(res.executors[1].chunks, 5);  // survivor absorbed the orphans
  EXPECT_EQ(res.chunks_poisoned, 0);
  bool logged_loss = false;
  for (const auto& ev : res.events)
    if (ev.kind == fault::FaultKind::ExecutorLoss && ev.exec == 0) logged_loss = true;
  EXPECT_TRUE(logged_loss);
}

TEST(FaultScheduler, HangConvertsIntoExecutorLoss) {
  auto sp = two_exec_params(4);
  const fault::FaultPlan plan(fault::parse_fault_spec("hang:exec=0,chunk=-1"));
  sp.faults = &plan;
  const auto res = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_EQ(res.hangs, 1);  // the watchdog fires once, then the exec is gone
  EXPECT_EQ(res.executors_lost, 1);
  EXPECT_EQ(res.executors[0].lost, 1);
  EXPECT_EQ(res.executors[0].chunks, 0);
  EXPECT_EQ(res.executors[1].chunks, 4);
  EXPECT_DOUBLE_EQ(res.executors[0].busy_seconds, sp.retry.watchdog_seconds);
  EXPECT_EQ(res.chunks_poisoned, 0);
}

TEST(FaultScheduler, AttachedButSilentPlanChangesNothing) {
  auto sp = two_exec_params(8);
  const auto clean = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  // A plan whose rules target executors that never act must not perturb the
  // schedule — the fault-free overhead contract behind bench/fig_fault_overhead.
  const fault::FaultPlan plan(fault::parse_fault_spec("die:exec=99,after=0;hang:exec=99,chunk=0"));
  sp.faults = &plan;
  const auto silent = run_schedule(sp, [&](int, int, const StreamSlot&) { return 1.0; });
  EXPECT_EQ(silent.makespan, clean.makespan);
  for (std::size_t e = 0; e < clean.executors.size(); ++e)
    EXPECT_EQ(silent.executors[e].chunks, clean.executors[e].chunks);
  ASSERT_EQ(silent.chunks.size(), clean.chunks.size());
  for (std::size_t c = 0; c < clean.chunks.size(); ++c)
    EXPECT_EQ(silent.chunks[c].executor, clean.chunks[c].executor);
  EXPECT_EQ(silent.retries_total, 0);
  EXPECT_TRUE(silent.events.empty());
}

// ---------------------------------------------------------------------------
// End-to-end: bit-identity under every fault class
// ---------------------------------------------------------------------------

TEST(FaultRecovery, BitIdenticalUnderEveryFaultClass) {
  const auto sizes = test_sizes(96, 260);
  const Baseline base = single_device_baseline(sizes);
  const char* specs[] = {
      "seed=5;transient:rate=0.25",                             // probabilistic storms
      "transient:exec=-1,chunk=-1,times=1",                     // every first attempt fails
      "die:exec=1,after=0",                                     // a GPU dead on arrival
      "hang:exec=2,chunk=-1",                                   // a GPU hangs, watchdog kills it
      "seed=9;transient:rate=0.15;die:exec=2,after=1;hang:exec=1,chunk=3",  // combined
  };
  for (const char* spec : specs) {
    const auto r = hetero_faulted(sizes, "cpu,k40c,p100", spec);
    const std::string what = std::string("spec '") + spec + "'";
    expect_bit_identical(base.factors, r.factors, what);
    for (std::size_t i = 0; i < base.info.size(); ++i)
      EXPECT_EQ(base.info[i], r.info[i]) << what << ": info " << i;
    EXPECT_EQ(r.result.chunks_poisoned, 0) << what;
    EXPECT_GT(static_cast<int>(r.result.fault_events.size()), 0) << what;
  }
}

TEST(FaultRecovery, RetriesAreVisibleInTheResult) {
  const auto sizes = test_sizes(64, 200);
  const auto r = hetero_faulted(sizes, "k40c,p100", "transient:exec=-1,chunk=-1,times=1");
  // Every chunk's first attempt fails, wherever it lands — and a chunk
  // that migrates (steal or re-dispatch) fails once per new executor too,
  // so the pool-wide count is at least one retry per chunk.
  EXPECT_GE(r.result.retries, r.result.chunks);
  EXPECT_GT(r.result.backoff_seconds, 0.0);
  int per_exec = 0;
  for (const auto& ex : r.result.executors) per_exec += ex.retries;
  EXPECT_EQ(per_exec, r.result.retries);
}

TEST(FaultRecovery, DegradesToCpuOnlyWhenEveryGpuDies) {
  const auto sizes = test_sizes(72, 220);
  const Baseline base = single_device_baseline(sizes);
  // Pool order: exec 0 = cpu, 1 = k40c#0, 2 = p100#1. Both GPUs die before
  // completing anything; the CPU must finish the whole batch, bit-identical.
  const auto r = hetero_faulted(sizes, "cpu,k40c,p100", "die:exec=1,after=0;die:exec=2,after=0");
  expect_bit_identical(base.factors, r.factors, "cpu-only degradation");
  for (std::size_t i = 0; i < base.info.size(); ++i) EXPECT_EQ(base.info[i], r.info[i]);
  EXPECT_EQ(r.result.executors_lost, 2);
  EXPECT_EQ(r.result.chunks_poisoned, 0);
  ASSERT_EQ(r.result.executors.size(), 3u);
  EXPECT_FALSE(r.result.executors[0].lost);
  EXPECT_TRUE(r.result.executors[1].lost);
  EXPECT_TRUE(r.result.executors[2].lost);
  int cpu_matrices = r.result.executors[0].matrices;
  EXPECT_EQ(cpu_matrices, static_cast<int>(sizes.size()));
}

TEST(FaultRecovery, TotalLossPoisonsInfoInsteadOfThrowing) {
  const auto sizes = test_sizes(48, 180);
  const Baseline base = single_device_baseline(sizes);
  // Single executor dies after 2 of its 4 chunks: the rest of the batch is
  // unrecoverable and must be reported through info, not an exception.
  FaultedRun r;
  ASSERT_NO_THROW(r = hetero_faulted(sizes, "k40c", "die:exec=0,after=2"));
  EXPECT_EQ(r.result.executors_lost, 1);
  EXPECT_GT(r.result.chunks_poisoned, 0);
  int poisoned = 0;
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    if (r.info[i] == kInfoChunkLost) {
      ++poisoned;
    } else {
      // Every problem a surviving attempt completed is still bit-identical.
      EXPECT_EQ(base.info[i], r.info[i]) << "info " << i;
      EXPECT_EQ(0, std::memcmp(base.factors[i].data(), r.factors[i].data(),
                               base.factors[i].size() * sizeof(double)))
          << "matrix " << i;
    }
  }
  EXPECT_GT(poisoned, 0);
}

TEST(FaultRecovery, NonSpdMatrixInsideRetriedChunkKeepsItsInfo) {
  // Satellite regression: a non-SPD matrix whose chunk is retried must
  // report the same pivot failure as the single-device run — the failed
  // attempt never touches the data, so the retry sees pristine input.
  const auto sizes = test_sizes(60, 200);
  int victim = -1;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    if (sizes[i] >= 4) {
      victim = static_cast<int>(i);
      break;
    }
  ASSERT_GE(victim, 0);

  auto fill_with_victim = [&](Batch<double>& batch) {
    Rng fill(7);
    batch.fill_spd(fill);
    batch.matrix(victim)(2, 2) = -100.0;  // breaks positivity at step 3
  };

  Queue q0;
  Batch<double> b0(q0, sizes);
  fill_with_victim(b0);
  (void)potrf_vbatched<double>(q0, Uplo::Lower, b0);
  ASSERT_EQ(b0.info()[static_cast<std::size_t>(victim)], 3);

  DevicePool pool = DevicePool::parse("cpu,k40c,p100");
  pool.set_faults(fault::parse_fault_spec("transient:exec=-1,chunk=-1,times=1"));
  Queue q1;
  Batch<double> b1(q1, sizes);
  fill_with_victim(b1);
  const auto hr = potrf_vbatched_hetero<double>(pool, Uplo::Lower, b1);
  EXPECT_GT(hr.retries, 0);
  for (std::size_t i = 0; i < sizes.size(); ++i)
    EXPECT_EQ(b0.info()[i], b1.info()[i]) << "info " << i;
  expect_bit_identical(snapshot(b0), snapshot(b1), "non-SPD retry");
}

// ---------------------------------------------------------------------------
// Determinism and observability
// ---------------------------------------------------------------------------

TEST(FaultRecovery, SameSeedAndSpecReplayIdentically) {
  const auto sizes = test_sizes(80, 240);
  const char* spec = "seed=11;transient:rate=0.2;die:exec=2,after=2";
  const auto a = hetero_faulted(sizes, "cpu,k40c,p100", spec);
  const auto b = hetero_faulted(sizes, "cpu,k40c,p100", spec);
  EXPECT_EQ(a.result.seconds, b.result.seconds);  // bitwise: modelled time replays
  EXPECT_EQ(a.result.retries, b.result.retries);
  EXPECT_EQ(a.result.backoff_seconds, b.result.backoff_seconds);
  EXPECT_EQ(a.result.steals, b.result.steals);
  ASSERT_EQ(a.result.fault_events.size(), b.result.fault_events.size());
  for (std::size_t i = 0; i < a.result.fault_events.size(); ++i) {
    const auto& ea = a.result.fault_events[i];
    const auto& eb = b.result.fault_events[i];
    EXPECT_EQ(ea.kind, eb.kind) << "event " << i;
    EXPECT_EQ(ea.exec, eb.exec) << "event " << i;
    EXPECT_EQ(ea.chunk, eb.chunk) << "event " << i;
    EXPECT_EQ(ea.attempt, eb.attempt) << "event " << i;
    EXPECT_EQ(ea.start, eb.start) << "event " << i;
  }
  expect_bit_identical(a.factors, b.factors, "replay");
}

TEST(FaultRecovery, WastedIntervalsReachTimelineAndProfiler) {
  const auto sizes = test_sizes(64, 220);
  DevicePool pool = DevicePool::parse("k40c,p100");
  pool.set_faults(fault::parse_fault_spec("transient:exec=-1,chunk=-1,times=1"));
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  const auto hr = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  EXPECT_GT(hr.retries, 0);
  std::size_t fault_records = 0;
  double fault_seconds = 0.0;
  int profiled_faults = 0;
  for (int e = 0; e < pool.size(); ++e) {
    const auto& tl = pool.executor(e).queue().device().timeline();
    fault_records += tl.fault_count();
    fault_seconds += tl.fault_seconds();
    for (const auto& p : sim::profile_timeline(tl)) profiled_faults += p.faults;
  }
  EXPECT_GT(fault_records, 0u);
  EXPECT_GT(fault_seconds, 0.0);
  EXPECT_EQ(static_cast<std::size_t>(profiled_faults), fault_records);
}

TEST(FaultRecovery, EnvironmentKnobInjectsWhenPoolHasNoSpec) {
  const auto sizes = test_sizes(40, 160);
  ASSERT_EQ(::setenv("VBATCH_INJECT_FAULTS", "transient:exec=-1,chunk=-1,times=1", 1), 0);
  const auto injected = hetero_faulted(sizes, "k40c,p100", "");
  EXPECT_GT(injected.result.retries, 0);
  // An explicit (never-firing) pool spec takes precedence over the knob.
  const auto pinned = hetero_faulted(sizes, "k40c,p100", "die:exec=99,after=999");
  EXPECT_EQ(pinned.result.retries, 0);
  ASSERT_EQ(::unsetenv("VBATCH_INJECT_FAULTS"), 0);
  const auto clean = hetero_faulted(sizes, "k40c,p100", "");
  EXPECT_EQ(clean.result.retries, 0);
  expect_bit_identical(clean.factors, injected.factors, "env knob");
}

TEST(HeteroEnvKnobs, FaultKnobSetAfterBuildDoesNotChangeThePool) {
  const auto sizes = test_sizes(40, 160);
  DevicePool pool = DevicePool::parse("k40c,p100");
  ASSERT_EQ(::setenv("VBATCH_INJECT_FAULTS", "transient:exec=-1,chunk=-1,times=1", 1), 0);
  Queue q;
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  const auto r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  const DevicePool later = DevicePool::parse("k40c,p100");
  ASSERT_EQ(::unsetenv("VBATCH_INJECT_FAULTS"), 0);
  EXPECT_EQ(r.retries, 0);  // the knob is read when the pool is built, not per call
  EXPECT_TRUE(pool.faults().empty());
  EXPECT_FALSE(later.faults().empty());
}

TEST(HeteroEnvKnobs, MalformedKnobsThrowFromParse) {
  ASSERT_EQ(::setenv("VBATCH_INJECT_FAULTS", "explode:exec=1", 1), 0);
  EXPECT_THROW((void)DevicePool::parse("k40c"), Error);
  EXPECT_THROW((void)DevicePool::parse("cpu"), Error);
  ASSERT_EQ(::unsetenv("VBATCH_INJECT_FAULTS"), 0);
  ASSERT_EQ(::setenv("VBATCH_ARENA_GB", "abc", 1), 0);
  EXPECT_THROW((void)DevicePool::parse("k40c"), Error);
  EXPECT_NO_THROW((void)DevicePool::parse("cpu"));  // only GPU executors have an arena
  ASSERT_EQ(::unsetenv("VBATCH_ARENA_GB"), 0);
}

}  // namespace
