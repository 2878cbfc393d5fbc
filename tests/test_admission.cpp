// Overload-protection tests (docs/service.md, "Overload & admission"):
// VBATCH_ADMISSION spec parsing, token-bucket rate limiting, queue
// watermarks, deadline feasibility (arrival + dispatch fixed point),
// capacity feedback after executor loss, live admission on the wall clock
// (concurrent submitters against the watermark, wall-calibrated capacity
// and deadlines), ticket resolution for shed wall-clock requests, and the
// overload replay determinism sweep (burst + executor death, bit-identical shed sets and
// surviving factors).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "vbatch/service/admission.hpp"
#include "vbatch/service/service.hpp"
#include "vbatch/service/trace.hpp"
#include "vbatch/util/error.hpp"

using namespace vbatch;
using namespace vbatch::service;

namespace {

Request make_request(std::uint64_t id, const std::string& tenant, std::vector<int> sizes) {
  Request r;
  r.id = id;
  r.tenant = tenant;
  r.sizes = std::move(sizes);
  return r;
}

void expect_spec_error(const std::string& spec, const std::string& needle) {
  try {
    (void)parse_admission_spec(spec);
    FAIL() << "expected InvalidArgument for: " << spec;
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArgument) << spec;
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

/// A controller whose capacity model is seeded with one nominal executor of
/// `peak` Gflop/s (efficiency 1.0 → capacity estimate == peak, so the
/// feasibility math in the tests is exact).
AdmissionController make_controller(AdmissionConfig cfg, double peak = 2.0) {
  cfg.enabled = true;
  cfg.initial_efficiency = 1.0;
  return AdmissionController(std::move(cfg), {peak});
}

}  // namespace

// ---------------------------------------------------------------------------
// VBATCH_ADMISSION spec grammar
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionSpec, ParsesFullSpec) {
  const AdmissionConfig cfg = parse_admission_spec(
      "max-queue=8; max-gb=0.5 ;tenant-rate=2.5;burst=0.1;shed-horizon=0.2;deadlines=off");
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.max_queue, 8);
  EXPECT_DOUBLE_EQ(cfg.max_queue_bytes, 0.5 * 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(cfg.tenant_rate_gflops, 2.5);
  EXPECT_DOUBLE_EQ(cfg.burst_seconds, 0.1);
  EXPECT_DOUBLE_EQ(cfg.shed_horizon_seconds, 0.2);
  EXPECT_FALSE(cfg.respect_deadlines);
}

TEST(ServiceAdmissionSpec, SingleKeyEnables) {
  const AdmissionConfig cfg = parse_admission_spec("max-queue=3");
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.max_queue, 3);
  EXPECT_DOUBLE_EQ(cfg.tenant_rate_gflops, 0.0);  // other policies stay off
  EXPECT_TRUE(cfg.respect_deadlines);
}

TEST(ServiceAdmissionSpec, MalformedSpecsNameTheToken) {
  expect_spec_error("", "empty spec");
  expect_spec_error("   ;  ", "empty spec");
  expect_spec_error("max-queue", "key=value");
  expect_spec_error("=5", "key=value");
  expect_spec_error("max-queue=0", "positive integer");
  expect_spec_error("max-queue=1.5", "integer");
  expect_spec_error("max-queue=1e1", "integer");
  expect_spec_error("max-queue=abc", "integer");
  expect_spec_error("tenant-rate= 5", "finite number");
  expect_spec_error("max-gb=-1", "positive");
  expect_spec_error("tenant-rate=0", "positive");
  expect_spec_error("burst=-0.1", "positive");
  expect_spec_error("shed-horizon=-1", "non-negative");
  expect_spec_error("deadlines=maybe", "on|off");
  expect_spec_error("bogus=1", "unknown key 'bogus'");
  expect_spec_error("max-queue=1;max-queue=2", "duplicate key");
}

// ---------------------------------------------------------------------------
// Token buckets
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionBucket, OversizedRequestRunsIntoDebtThenSheds) {
  // Rate 1e-6 Gflop/s → 1e3 flops/s, bucket = 50 flops. A {16} potrf costs
  // ~1.5 kflop (≫ the bucket), so the oversized rule admits it once (full
  // bucket → debt) and sheds the immediate follow-up.
  AdmissionConfig cfg;
  cfg.tenant_rate_gflops = 1e-6;
  AdmissionController ac = make_controller(cfg);
  const Request r = make_request(1, "a", {16});
  EXPECT_EQ(ac.admit(r, 0.0, {}), AdmissionDecision::Admit);
  EXPECT_EQ(ac.admit(make_request(2, "a", {16}), 0.0, {}),
            AdmissionDecision::RejectedTenantRate);
  // Refill is a pure function of elapsed virtual time: after the debt
  // (~1.5 kflop) drains at 1 kflop/s, the tenant is admitted again.
  EXPECT_EQ(ac.admit(make_request(3, "a", {16}), 0.5, {}),
            AdmissionDecision::RejectedTenantRate);
  EXPECT_EQ(ac.admit(make_request(4, "a", {16}), 10.0, {}), AdmissionDecision::Admit);
}

TEST(ServiceAdmissionBucket, WeightScalesRefill) {
  AdmissionConfig cfg;
  cfg.tenant_rate_gflops = 1e-6;
  AdmissionController ac = make_controller(cfg);
  ac.set_weight("heavy", 10000.0);  // 1e7 flops/s → bucket 5e5 flops
  ac.set_weight("light", 1.0);
  // Both heavy requests fit in the scaled bucket; light's second one sheds.
  EXPECT_EQ(ac.admit(make_request(1, "heavy", {16}), 0.0, {}), AdmissionDecision::Admit);
  EXPECT_EQ(ac.admit(make_request(2, "heavy", {16}), 0.0, {}), AdmissionDecision::Admit);
  EXPECT_EQ(ac.admit(make_request(3, "light", {16}), 0.0, {}), AdmissionDecision::Admit);
  EXPECT_EQ(ac.admit(make_request(4, "light", {16}), 0.0, {}),
            AdmissionDecision::RejectedTenantRate);
}

TEST(ServiceAdmissionBucket, AbsoluteOverrideIgnoresWeight) {
  AdmissionConfig cfg;
  cfg.tenant_rate_gflops = 1e-6;
  cfg.tenant_rates = {{"vip", 100.0}};  // 1e11 flops/s regardless of weight
  AdmissionController ac = make_controller(cfg);
  ac.set_weight("vip", 1e-6);  // the weight would starve vip if it applied
  for (std::uint64_t i = 1; i <= 8; ++i)
    EXPECT_EQ(ac.admit(make_request(i, "vip", {32}), 0.0, {}), AdmissionDecision::Admit);
}

TEST(ServiceAdmissionBucket, ZeroRateIsUnlimited) {
  AdmissionController ac = make_controller(AdmissionConfig{});
  for (std::uint64_t i = 1; i <= 100; ++i)
    EXPECT_EQ(ac.admit(make_request(i, "a", {64}), 0.0, {}), AdmissionDecision::Admit);
}

// ---------------------------------------------------------------------------
// Queue watermarks
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionWatermark, DepthWatermarkSheds) {
  AdmissionConfig cfg;
  cfg.max_queue = 2;
  AdmissionController ac = make_controller(cfg);
  QueueSnapshot q;
  q.depth = 1;
  EXPECT_EQ(ac.admit(make_request(1, "a", {16}), 0.0, q), AdmissionDecision::Admit);
  q.depth = 2;
  EXPECT_EQ(ac.admit(make_request(2, "a", {16}), 0.0, q),
            AdmissionDecision::RejectedQueueFull);
}

TEST(ServiceAdmissionWatermark, BytesWatermarkSheds) {
  const Request r = make_request(1, "a", {16});
  AdmissionConfig cfg;
  cfg.max_queue_bytes = 3.0 * r.bytes();
  AdmissionController ac = make_controller(cfg);
  QueueSnapshot q;
  q.bytes = 2.0 * r.bytes();
  EXPECT_EQ(ac.admit(r, 0.0, q), AdmissionDecision::Admit);
  q.bytes = 2.5 * r.bytes();
  EXPECT_EQ(ac.admit(r, 0.0, q), AdmissionDecision::RejectedQueueFull);
}

TEST(ServiceAdmissionWatermark, WatermarkRejectionNeverDrainsTokens) {
  // A queue-full rejection must not charge the tenant's bucket: once the
  // queue clears, the same request is admitted on its untouched tokens.
  AdmissionConfig cfg;
  cfg.max_queue = 1;
  cfg.tenant_rate_gflops = 1e-6;  // bucket fits exactly one oversized admit
  AdmissionController ac = make_controller(cfg);
  QueueSnapshot full;
  full.depth = 1;
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(ac.admit(make_request(1, "a", {16}), 0.0, full),
              AdmissionDecision::RejectedQueueFull);
  EXPECT_EQ(ac.admit(make_request(1, "a", {16}), 0.0, {}), AdmissionDecision::Admit);
}

// ---------------------------------------------------------------------------
// Deadline feasibility
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionDeadline, InfeasibleDeadlineShedsOnArrival) {
  // Capacity 1 Gflop/s; a {200} potrf costs ~2.7 Mflop → ~2.7 ms service
  // time. A 1 ms deadline is unmeetable, a 10 ms one is fine.
  AdmissionController ac = make_controller(AdmissionConfig{}, 1.0);
  Request r = make_request(1, "a", {200});
  r.deadline = 1e-3;
  EXPECT_EQ(ac.admit(r, 0.0, {}), AdmissionDecision::RejectedDeadline);
  r.deadline = 1e-2;
  EXPECT_EQ(ac.admit(r, 0.0, {}), AdmissionDecision::Admit);
}

TEST(ServiceAdmissionDeadline, BacklogAndBusyPoolCountAgainstTheDeadline) {
  AdmissionController ac = make_controller(AdmissionConfig{}, 1.0);
  Request r = make_request(1, "a", {50});  // ~42 kflop → ~42 us alone
  r.deadline = 1e-3;
  EXPECT_EQ(ac.admit(r, 0.0, {}), AdmissionDecision::Admit);
  QueueSnapshot q;
  q.busy_until = 5e-3;  // pool busy past the deadline before it even starts
  EXPECT_EQ(ac.admit(r, 0.0, q), AdmissionDecision::RejectedDeadline);
  q.busy_until = 0.0;
  q.flops = 5e6;  // 5 ms of queued backlog ahead of it
  EXPECT_EQ(ac.admit(r, 0.0, q), AdmissionDecision::RejectedDeadline);
}

TEST(ServiceAdmissionDeadline, RespectDeadlinesOffLeavesSloAsReporting) {
  AdmissionConfig cfg;
  cfg.respect_deadlines = false;
  AdmissionController ac = make_controller(cfg, 1.0);
  Request r = make_request(1, "a", {200});
  r.deadline = 1e-6;  // hopeless, but shedding is disabled
  EXPECT_EQ(ac.admit(r, 0.0, {}), AdmissionDecision::Admit);
  auto filtered = ac.filter_deadlines({r}, 0.0);
  EXPECT_EQ(filtered.kept.size(), 1u);
  EXPECT_TRUE(filtered.dropped.empty());
}

TEST(ServiceAdmissionDeadline, DispatchFilterDropsExpiredKeepsRestInOrder) {
  // At 1 Gflop/s the merged {200}+{50} launch takes ~2.7 ms: the 0.1 ms
  // deadline can no longer be met at dispatch, the 5 ms one survives —
  // and after the drop the shrunken launch re-estimates under the fixed
  // point, confirming the survivor.
  AdmissionController ac = make_controller(AdmissionConfig{}, 1.0);
  Request tight = make_request(1, "a", {200});
  tight.deadline = 1e-4;
  Request loose = make_request(2, "b", {50});
  loose.deadline = 5e-3;
  Request nodl = make_request(3, "c", {50});
  auto filtered = ac.filter_deadlines({tight, loose, nodl}, 0.0);
  ASSERT_EQ(filtered.kept.size(), 2u);
  EXPECT_EQ(filtered.kept[0].id, 2u);  // survivor order preserved
  EXPECT_EQ(filtered.kept[1].id, 3u);
  ASSERT_EQ(filtered.dropped.size(), 1u);
  EXPECT_EQ(filtered.dropped[0].id, 1u);
}

// ---------------------------------------------------------------------------
// Capacity feedback + shed plan
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionCapacity, EwmaCalibratesTowardObservedThroughput) {
  AdmissionController ac = make_controller(AdmissionConfig{}, 10.0);
  EXPECT_DOUBLE_EQ(ac.capacity_gflops(), 10.0);
  for (int i = 0; i < 50; ++i) ac.observe_launch(2e9, 1.0, {});  // 2 Gflop/s observed
  EXPECT_NEAR(ac.capacity_gflops(), 2.0, 0.05);
  EXPECT_FALSE(ac.take_capacity_drop());  // calibration alone is not a drop
}

TEST(ServiceAdmissionCapacity, ExecutorLossCutsCapacityOnceAndTightensRates) {
  AdmissionConfig cfg;
  cfg.tenant_rate_gflops = 1e-6;
  cfg.initial_efficiency = 1.0;
  cfg.enabled = true;
  AdmissionController ac(cfg, {10.0, 10.0});
  EXPECT_DOUBLE_EQ(ac.capacity_gflops(), 20.0);

  ac.observe_launch(0.0, 0.0, {0, 1});  // executor 1 reported dead
  EXPECT_EQ(ac.executors_lost(), 1);
  EXPECT_DOUBLE_EQ(ac.capacity_gflops(), 10.0);  // multiplicative 50% cut
  EXPECT_TRUE(ac.take_capacity_drop());
  EXPECT_FALSE(ac.take_capacity_drop());  // reading clears the flag

  // The same executor staying dead in later launches is not a new drop.
  ac.observe_launch(0.0, 0.0, {0, 1});
  EXPECT_EQ(ac.executors_lost(), 1);
  EXPECT_FALSE(ac.take_capacity_drop());

  // Post-drop, every tenant's refill is tightened by capacity/initial
  // (here 0.5x): the debt of one oversized {16} admit (~1.5 kflop) repays
  // in ~1.5 s at the full 1 kflop/s rate but needs ~3 s at the degraded
  // 0.5 kflop/s — so at t=2 s only the healthy pool re-admits the tenant.
  AdmissionController fresh(cfg, {10.0, 10.0});
  EXPECT_EQ(fresh.admit(make_request(1, "a", {16}), 0.0, {}), AdmissionDecision::Admit);
  EXPECT_EQ(fresh.admit(make_request(2, "a", {16}), 2.0, {}), AdmissionDecision::Admit);
  AdmissionController degraded(cfg, {10.0, 10.0});
  degraded.observe_launch(0.0, 0.0, {0, 1});
  (void)degraded.take_capacity_drop();
  EXPECT_EQ(degraded.admit(make_request(1, "a", {16}), 0.0, {}), AdmissionDecision::Admit);
  EXPECT_EQ(degraded.admit(make_request(2, "a", {16}), 2.0, {}),
            AdmissionDecision::RejectedTenantRate)
      << "refill at half rate must not recover within what full rate repaid";
}

TEST(ServiceAdmissionCapacity, ShedPlanTakesLowestWeightNewestFirst) {
  AdmissionConfig cfg;
  cfg.shed_horizon_seconds = 1.0;
  AdmissionController ac = make_controller(cfg, 1e-9);  // ~1 flop/s capacity floor
  ac.set_weight("gold", 4.0);
  ac.set_weight("bronze", 1.0);
  // Backlog of 4 × 1e6 flops against a ~1e6-flop budget: three victims, in
  // (lowest weight, newest first) order, then gold's newest.
  const std::vector<PendingItem> pending = {
      {1, "gold", 1e6}, {2, "bronze", 1e6}, {3, "gold", 1e6}, {4, "bronze", 1e6}};
  const std::vector<std::uint64_t> victims = ac.shed_plan(pending);
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(victims[0], 4u);  // bronze, newest
  EXPECT_EQ(victims[1], 2u);  // bronze, older
  EXPECT_EQ(victims[2], 3u);  // gold, newest
}

TEST(ServiceAdmissionCapacity, ShedPlanEmptyWhenBacklogFits) {
  AdmissionConfig cfg;
  cfg.shed_horizon_seconds = 10.0;
  AdmissionController ac = make_controller(cfg, 10.0);  // 1e11-flop budget
  EXPECT_TRUE(ac.shed_plan({{1, "a", 1e6}, {2, "b", 1e6}}).empty());
  // Horizon 0 disables retroactive shedding entirely.
  AdmissionConfig off;
  off.shed_horizon_seconds = 0.0;
  AdmissionController none = make_controller(off, 1e-9);
  EXPECT_TRUE(none.shed_plan({{1, "a", 1e18}}).empty());
}

// ---------------------------------------------------------------------------
// Bounded backlog: the max_queue watermark bounds what submit() may queue
// ---------------------------------------------------------------------------

TEST(ServiceQueueBound, TrySubmitReturnsQueueFullWithoutEnqueueing) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 60.0;  // held until drain()
  cfg.admission.enabled = true;
  cfg.admission.max_queue = 2;
  {
    Service svc(pool, cfg);
    const JobTicket first = svc.submit(make_request(1, "a", {16}));
    const JobTicket second = svc.submit(make_request(2, "a", {16}));
    const JobTicket third = svc.submit(make_request(3, "a", {16}));
    EXPECT_TRUE(third.done());  // shed on the submit itself
    EXPECT_EQ(svc.wait(third).status, RequestStatus::RejectedQueueFull);
    EXPECT_FALSE(first.done());
    EXPECT_FALSE(second.done());
    const ServiceReport report = svc.drain();
    EXPECT_EQ(report.peak_queue_depth, 2);  // the shed request was not queued
    ASSERT_EQ(report.batch_log.size(), 1u);
    EXPECT_EQ(report.batch_log[0].requests, 2);
    EXPECT_EQ(svc.wait(first).status, RequestStatus::Ok);
    EXPECT_EQ(svc.wait(second).status, RequestStatus::Ok);
  }
  // Once the backlog has launched there is space again: on the virtual
  // clock, a request arriving after the first launch completes is admitted.
  cfg.coalesce.latency_budget = 1e-3;
  Trace trace;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Request r = make_request(id, "a", {16});
    r.submit_time = id == 4 ? 1.0 : 0.0;
    trace.requests.push_back(r);
  }
  const ServiceReport replay = replay_trace(pool, trace, cfg);
  std::map<std::uint64_t, RequestStatus> status;
  for (const RequestOutcome& o : replay.outcomes) status[o.id] = o.status;
  EXPECT_EQ(status.at(1), RequestStatus::Ok);
  EXPECT_EQ(status.at(2), RequestStatus::Ok);
  EXPECT_EQ(status.at(3), RequestStatus::RejectedQueueFull);
  EXPECT_EQ(status.at(4), RequestStatus::Ok);
}

TEST(ServiceQueueBound, UnboundedByDefault) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  // Admission off (the default), and admission on with no watermark set:
  // neither bounds the backlog.
  for (const bool admission : {false, true}) {
    ServiceConfig cfg;
    cfg.coalesce.latency_budget = 60.0;  // held until drain()
    cfg.admission.enabled = admission;
    Service svc(pool, cfg);
    std::vector<JobTicket> tickets;
    for (std::uint64_t id = 1; id <= 64; ++id)
      tickets.push_back(svc.submit(make_request(id, "a", {8})));
    for (const JobTicket& t : tickets) EXPECT_FALSE(t.done()) << "admission " << admission;
    const ServiceReport report = svc.drain();
    EXPECT_EQ(report.peak_queue_depth, 64) << "admission " << admission;
    EXPECT_EQ(report.accepted, 64) << "admission " << admission;
    EXPECT_EQ(report.shed, 0) << "admission " << admission;
  }
}

// ---------------------------------------------------------------------------
// Wall-clock Service: shed tickets resolve instead of hanging (satellite)
// ---------------------------------------------------------------------------

TEST(ServiceLiveAdmission, ShedTicketResolvesWithRejectionStatus) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 2e-3;
  cfg.admission.enabled = true;
  // ~1e-3 flops/s refill: the first (oversized) request is admitted into
  // debt, the immediate second one is deterministically shed — wall-clock
  // refill cannot repay a ~kflop debt within the test's lifetime.
  cfg.admission.tenant_rate_gflops = 1e-12;
  Service svc(pool, cfg);
  const JobTicket served = svc.submit(make_request(0, "a", {16}));
  const JobTicket shed = svc.submit(make_request(0, "a", {16}));
  const RequestOutcome ok = svc.wait(served);
  EXPECT_EQ(ok.status, RequestStatus::Ok);
  const RequestOutcome rejected = svc.wait(shed);  // must not hang
  EXPECT_EQ(rejected.status, RequestStatus::RejectedTenantRate);
  EXPECT_TRUE(shed.done());
  EXPECT_EQ(rejected.complete_time, rejected.submit_time);  // never dispatched
  const ServiceReport report = svc.drain();
  EXPECT_EQ(report.requests, 2);
  EXPECT_EQ(report.accepted, 1);
  EXPECT_EQ(report.shed, 1);
  EXPECT_TRUE(report.admission_enabled);
}

TEST(ServiceLiveAdmission, BoundedIngressShedsWhenDispatcherStalls) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 60.0;  // dispatcher never flushes on its own
  cfg.admission.enabled = true;
  cfg.admission.max_queue = 2;
  Service svc(pool, cfg);
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 8; ++i) tickets.push_back(svc.submit(make_request(0, "a", {16})));
  // Depth counts ingress + coalescer, so the split between the two (a race
  // with the dispatcher) cannot change the verdict: exactly the first two
  // submits fit under the depth-2 watermark. drain() resolves the accepted
  // tickets; the shed ones resolved at submit time.
  const ServiceReport report = svc.drain();
  int ok = 0;
  int shed = 0;
  for (const JobTicket& t : tickets) {
    const RequestOutcome o = svc.wait(t);
    if (o.status == RequestStatus::Ok) ++ok;
    if (o.status == RequestStatus::RejectedQueueFull) ++shed;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(report.shed, shed);
  EXPECT_EQ(report.accepted, ok);
}

TEST(ServiceLiveAdmission, ConcurrentSubmittersFillWatermarkExactly) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 60.0;  // dispatcher never flushes on its own
  cfg.admission.enabled = true;
  constexpr int kWatermark = 5;
  cfg.admission.max_queue = kWatermark;
  Service svc(pool, cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<JobTicket>> tickets(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&svc, &tickets, t] {
      for (int i = 0; i < kPerThread; ++i)
        tickets[static_cast<std::size_t>(t)].push_back(svc.submit(make_request(0, "a", {16})));
    });
  for (std::thread& s : submitters) s.join();
  // Admission and the coalescer count one backlog under one lock, so no
  // interleaving of submitters can admit past the watermark or shed below it.
  const ServiceReport report = svc.drain();
  int ok = 0;
  int shed = 0;
  for (const auto& per_thread : tickets)
    for (const JobTicket& t : per_thread) {
      const RequestStatus s = svc.wait(t).status;
      if (s == RequestStatus::Ok) ++ok;
      if (s == RequestStatus::RejectedQueueFull) ++shed;
    }
  EXPECT_EQ(ok, kWatermark);
  EXPECT_EQ(shed, kThreads * kPerThread - kWatermark);
  EXPECT_EQ(report.accepted, kWatermark);
  EXPECT_EQ(report.peak_queue_depth, kWatermark);
}

// ---------------------------------------------------------------------------
// Live admission on the wall clock: capacity calibrates on measured launch
// seconds, so deadlines are judged on the clock they run on
// ---------------------------------------------------------------------------

namespace {

/// One uniform launch's worth of work: every calibration launch is alike, so
/// the capacity EWMA settles on their common wall throughput.
Request calibration_request() { return make_request(0, "a", {128, 128, 128, 128}); }

/// Admission on with no limit set: everything is admitted and every launch
/// calibrates the capacity estimate. A zero budget launches each submit alone.
ServiceConfig calibrating_config() {
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 0.0;
  cfg.mode = sim::ExecMode::Full;
  cfg.admission.enabled = true;
  return cfg;
}

/// A pool whose one-time host set-up is already paid, so it does not land in
/// the first measured launch. Its modelled throughput is several times the
/// host's wall throughput, so the two clocks' capacity estimates differ.
hetero::DevicePool warm_pool() {
  hetero::DevicePool pool = hetero::DevicePool::parse("cpu,k40c,p100");
  Trace warm;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Request r = calibration_request();
    r.id = id;
    warm.requests.push_back(r);
  }
  (void)replay_trace(pool, warm, calibrating_config());
  return pool;
}

/// Closed loop: `launches` submits, each waited for before the next.
std::vector<RequestOutcome> closed_loop(Service& svc, int launches) {
  std::vector<RequestOutcome> out;
  for (int i = 0; i < launches; ++i) out.push_back(svc.wait(svc.submit(calibration_request())));
  return out;
}

}  // namespace

TEST(ServiceLiveAdmission, CapacityCalibratesOnWallLaunchSeconds) {
  hetero::DevicePool pool = warm_pool();
  const ServiceConfig cfg = calibrating_config();
  Service svc(pool, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  (void)closed_loop(svc, 40);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const ServiceReport report = svc.drain();
  ASSERT_EQ(report.batches, 40);
  std::map<int, double> complete;
  for (const RequestOutcome& o : report.outcomes) complete[o.batch_id] = o.complete_time;
  // The capacity estimate replayed: an EWMA (alpha 0.3) seeded at the pool's
  // nominal peak times the initial efficiency, fed each launch's flops over
  // its wall seconds in launch order.
  double capacity = 0.0;
  for (int e = 0; e < pool.size(); ++e)
    capacity += pool.executor(e).peak_gflops(Precision::Double);
  capacity *= cfg.admission.initial_efficiency;
  double wall = 0.0;
  for (const BatchRecord& b : report.batch_log) {
    const double seconds = complete.at(b.id) - b.dispatch_time;
    wall += seconds;
    if (seconds > 0.0 && b.flops > 0.0)
      capacity = 0.7 * capacity + 0.3 * (b.flops / seconds * 1e-9);
  }
  // Launches are timed on the wall clock: back to back with a zero budget,
  // they fill most of the closed loop's elapsed time.
  EXPECT_LT(wall, elapsed);
  EXPECT_GT(wall, 0.25 * elapsed);
  EXPECT_NEAR(report.capacity_gflops, capacity, 1e-9 * capacity);
}

TEST(ServiceLiveAdmission, DeadlineBelowWallServiceTimeRejectedAtSubmit) {
  hetero::DevicePool pool = warm_pool();
  Service svc(pool, calibrating_config());
  // One request per launch. The capacity EWMA averages the launches' wall
  // throughputs (its seed's weight is 0.7^40 by now), so the fastest one
  // bounds it from above.
  double fastest = 0.0;
  for (const RequestOutcome& o : closed_loop(svc, 40)) {
    ASSERT_GT(o.complete_time, o.dispatch_time);
    fastest = std::max(fastest, o.flops / (o.complete_time - o.dispatch_time));
  }
  // Half the request's service time at that throughput: infeasible on the
  // wall-calibrated estimate, feasible at the pool's modelled throughput.
  Request r = calibration_request();
  r.deadline = 0.5 * r.flops() / fastest;
  const JobTicket ticket = svc.submit(r);
  EXPECT_TRUE(ticket.done());  // admission ran inside submit
  const RequestOutcome o = svc.wait(ticket);
  EXPECT_EQ(o.status, RequestStatus::RejectedDeadline);
  EXPECT_EQ(o.batch_id, -1);
  EXPECT_EQ(o.complete_time, o.submit_time);
  // The two clocks stay apart: every launch's modelled throughput is more
  // than twice the fastest wall throughput.
  const ServiceReport report = svc.drain();
  ASSERT_EQ(report.batches, 40);
  for (const BatchRecord& b : report.batch_log) EXPECT_GT(b.flops / b.seconds, 2.0 * fastest);
}

// ---------------------------------------------------------------------------
// VBATCH_ADMISSION environment knob
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionEnv, EnvSpecEnablesReplayAdmission) {
  TraceGenConfig gen;
  gen.count = 24;
  gen.rate = 300000.0;
  const Trace trace = make_trace(gen);
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ASSERT_EQ(setenv("VBATCH_ADMISSION", "max-queue=4", 1), 0);
  const ServiceReport report = replay_trace(pool, trace, ServiceConfig{});
  unsetenv("VBATCH_ADMISSION");
  EXPECT_TRUE(report.admission_enabled);
  EXPECT_GT(report.shed, 0);
  EXPECT_EQ(report.accepted + report.shed + report.expired, 24);

  // An explicit config wins over the env var.
  ASSERT_EQ(setenv("VBATCH_ADMISSION", "max-queue=1", 1), 0);
  ServiceConfig explicit_cfg;
  explicit_cfg.admission.enabled = true;
  explicit_cfg.admission.max_queue = 1000;
  hetero::DevicePool pool2 = hetero::DevicePool::parse("k40c");
  const ServiceReport wide = replay_trace(pool2, trace, explicit_cfg);
  unsetenv("VBATCH_ADMISSION");
  EXPECT_EQ(wide.shed, 0) << "explicit max-queue=1000 must override env max-queue=1";
}

TEST(ServiceAdmissionEnv, MalformedEnvSpecThrows) {
  Trace trace;
  trace.requests = {make_request(1, "a", {16})};
  trace.tenants = {{"a", 1.0}};
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ASSERT_EQ(setenv("VBATCH_ADMISSION", "bogus=1", 1), 0);
  EXPECT_THROW((void)replay_trace(pool, trace, ServiceConfig{}), Error);
  unsetenv("VBATCH_ADMISSION");
}

// ---------------------------------------------------------------------------
// Overload replay determinism (the acceptance-criteria sweep)
// ---------------------------------------------------------------------------

namespace {

ServiceConfig overload_config() {
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 1e-3;
  cfg.mode = sim::ExecMode::Full;
  cfg.keep_payloads = true;
  // Pin the separated path: per-matrix math independent of launch-mates, so
  // factors can be compared bit-for-bit against a solo reference.
  cfg.hetero.potrf.path = PotrfPath::Separated;
  cfg.hetero.potrf.separated_nb = 16;
  cfg.admission.enabled = true;
  cfg.admission.max_queue = 12;
  cfg.admission.tenant_rate_gflops = 0.5;
  return cfg;
}

Trace burst_trace(int tenants) {
  TraceGenConfig gen;
  gen.count = 48;
  gen.tenants = tenants;
  gen.rate = 150000.0;
  gen.nmax = 40;
  gen.burst = 4.0;         // middle third arrives 4x faster
  gen.deadline_frac = 0.4;
  gen.deadline_seconds = 2e-3;
  return make_trace(gen);
}

std::set<std::uint64_t> shed_ids(const ServiceReport& r) {
  std::set<std::uint64_t> ids;
  for (const RequestOutcome& o : r.outcomes)
    if (is_rejected(o.status)) ids.insert(o.id);
  return ids;
}

}  // namespace

TEST(ServiceOverloadReplay, BurstAndExecutorDeathReplayBitIdentically) {
  // 2x-overload burst + one executor dying mid-trace, swept across pools,
  // stream counts and tenant counts: the shed set and every surviving
  // factor byte must reproduce exactly.
  const char* pools[] = {"cpu,k40c", "k40c:2streams,p100"};
  for (const char* desc : pools) {
    for (int tenants : {1, 3}) {
      SCOPED_TRACE(std::string(desc) + " x " + std::to_string(tenants) + " tenants");
      const Trace trace = burst_trace(tenants);
      const ServiceConfig cfg = overload_config();
      hetero::DevicePool p1 = hetero::DevicePool::parse(desc);
      hetero::DevicePool p2 = hetero::DevicePool::parse(desc);
      p1.set_faults(fault::parse_fault_spec("die:exec=1,after=2"));
      p2.set_faults(fault::parse_fault_spec("die:exec=1,after=2"));
      const ServiceReport a = replay_trace(p1, trace, cfg);
      const ServiceReport b = replay_trace(p2, trace, cfg);

      EXPECT_GT(a.shed + a.expired, 0) << "the burst must trigger shedding";
      EXPECT_EQ(shed_ids(a), shed_ids(b));
      ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
      for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        const RequestOutcome& x = a.outcomes[i];
        const RequestOutcome& y = b.outcomes[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.status, y.status);
        EXPECT_EQ(std::memcmp(&x.complete_time, &y.complete_time, sizeof(double)), 0);
        ASSERT_EQ(x.factors.size(), y.factors.size());
        for (std::size_t j = 0; j < x.factors.size(); ++j)
          EXPECT_EQ(x.factors[j], y.factors[j]);
      }
      EXPECT_EQ(a.shed, b.shed);
      EXPECT_EQ(a.expired, b.expired);
      EXPECT_EQ(std::memcmp(&a.goodput_flops, &b.goodput_flops, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&a.capacity_gflops, &b.capacity_gflops, sizeof(double)), 0);
    }
  }
}

TEST(ServiceOverloadReplay, AcceptedFactorsMatchUncontendedRun) {
  // Admission changes WHICH requests run, never WHAT an accepted request
  // computes: each accepted factor must be bit-identical to serving that
  // request alone on a quiet pool.
  const Trace trace = burst_trace(2);
  const ServiceConfig cfg = overload_config();
  hetero::DevicePool pool = hetero::DevicePool::parse("cpu,k40c");
  const ServiceReport report = replay_trace(pool, trace, cfg);
  ASSERT_GT(report.accepted, 0);

  ServiceConfig solo_cfg = overload_config();
  solo_cfg.admission = AdmissionConfig{};  // uncontended: no admission at all
  int checked = 0;
  for (const RequestOutcome& o : report.outcomes) {
    if (o.status != RequestStatus::Ok || o.factors.empty()) continue;
    const Request* req = nullptr;
    for (const Request& r : trace.requests)
      if (r.id == o.id) req = &r;
    ASSERT_NE(req, nullptr);
    Trace solo;
    Request alone = *req;
    alone.submit_time = 0.0;
    alone.deadline = 0.0;
    solo.requests = {alone};
    solo.tenants = {{req->tenant, 1.0}};
    hetero::DevicePool quiet = hetero::DevicePool::parse("k40c");
    const ServiceReport ref = replay_trace(quiet, solo, solo_cfg);
    ASSERT_EQ(ref.outcomes.size(), 1u);
    ASSERT_EQ(ref.outcomes[0].factors.size(), o.factors.size());
    for (std::size_t j = 0; j < o.factors.size(); ++j)
      EXPECT_EQ(ref.outcomes[0].factors[j], o.factors[j]) << "request " << o.id;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(ServiceOverloadReplay, ExecutorDeathTightensAdmissionInsteadOfQueueing) {
  // The graceful-degradation contract: with an executor dying mid-burst the
  // capacity estimate drops below the healthy-pool seed and the service
  // sheds load; the accepted requests still complete.
  const Trace trace = burst_trace(2);
  const ServiceConfig cfg = overload_config();
  hetero::DevicePool pool = hetero::DevicePool::parse("cpu,k40c");
  const double seed_capacity =
      pool.peak_gflops(Precision::Double) * cfg.admission.initial_efficiency;
  pool.set_faults(fault::parse_fault_spec("die:exec=1,after=2"));
  const ServiceReport report = replay_trace(pool, trace, cfg);
  EXPECT_TRUE(report.admission_enabled);
  EXPECT_LT(report.capacity_gflops, seed_capacity);
  EXPECT_GT(report.shed + report.expired, 0);
  EXPECT_EQ(report.accepted + report.shed + report.expired, trace.count());
  for (const RequestOutcome& o : report.outcomes) {
    if (!is_rejected(o.status)) {
      EXPECT_NE(o.status, RequestStatus::Pending);
    }
  }
}

TEST(ServiceOverloadReplay, DisabledAdmissionReproducesAdmitEverything) {
  // enabled=false must be byte-for-byte the PR 8 service: nothing shed,
  // reports identical to a config that never mentions admission.
  const Trace trace = burst_trace(2);
  ServiceConfig off;
  off.coalesce.latency_budget = 1e-3;
  hetero::DevicePool p1 = hetero::DevicePool::parse("k40c");
  hetero::DevicePool p2 = hetero::DevicePool::parse("k40c");
  const ServiceReport plain = replay_trace(p1, trace, off);
  ServiceConfig with_knobs = off;
  with_knobs.admission.max_queue = 1;  // set but NOT enabled
  with_knobs.admission.tenant_rate_gflops = 1e-9;
  const ServiceReport knobs = replay_trace(p2, trace, with_knobs);
  EXPECT_FALSE(plain.admission_enabled);
  EXPECT_FALSE(knobs.admission_enabled);
  EXPECT_EQ(plain.shed, 0);
  EXPECT_EQ(knobs.shed, 0);
  EXPECT_EQ(plain.batches, knobs.batches);
  EXPECT_EQ(std::memcmp(&plain.makespan, &knobs.makespan, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&plain.flops, &knobs.flops, sizeof(double)), 0);
}

// ---------------------------------------------------------------------------
// Trace grammar: the deadline field
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionTrace, DeadlineFieldRoundTripsAndValidates) {
  const Trace t = parse_trace(
      "tenant a weight=1\n"
      "req id=1 t=0 tenant=a op=potrf prec=d n=16 deadline=0.004\n"
      "req id=2 t=0.001 tenant=a op=potrf prec=d n=16\n");
  ASSERT_EQ(t.count(), 2);
  EXPECT_DOUBLE_EQ(t.requests[0].deadline, 0.004);
  EXPECT_DOUBLE_EQ(t.requests[1].deadline, 0.0);
  const std::string text = format_trace(t);
  EXPECT_NE(text.find("deadline=0.004"), std::string::npos);
  const Trace back = parse_trace(text);
  EXPECT_DOUBLE_EQ(back.requests[0].deadline, 0.004);

  EXPECT_THROW((void)parse_trace("req id=1 t=0 tenant=a op=potrf prec=d n=16 deadline=0\n"),
               Error);
  EXPECT_THROW(
      (void)parse_trace("req id=1 t=0 tenant=a op=potrf prec=d n=16 deadline=-1\n"), Error);
}

TEST(ServiceAdmissionTrace, GeneratorBurstAndDeadlineKnobs) {
  TraceGenConfig gen;
  gen.count = 90;
  gen.tenants = 2;
  gen.rate = 1000.0;
  gen.deadline_frac = 0.5;
  gen.deadline_seconds = 3e-3;
  gen.burst = 10.0;
  const Trace t = make_trace(gen);
  ASSERT_EQ(t.count(), 90);
  int with_deadline = 0;
  for (const Request& r : t.requests) {
    if (r.deadline > 0.0) {
      ++with_deadline;
      EXPECT_DOUBLE_EQ(r.deadline, 3e-3);
    }
  }
  EXPECT_GT(with_deadline, 20);
  EXPECT_LT(with_deadline, 70);

  // The burst compresses the middle third's inter-arrival gaps.
  auto span = [&](int from, int to) {
    return t.requests[static_cast<std::size_t>(to)].submit_time -
           t.requests[static_cast<std::size_t>(from)].submit_time;
  };
  EXPECT_LT(span(30, 59), 0.5 * span(0, 29));

  // With the knobs off the RNG stream is untouched: same arrivals/sizes as
  // the pre-overload generator.
  TraceGenConfig plain;
  plain.count = 90;
  plain.tenants = 2;
  plain.rate = 1000.0;
  TraceGenConfig zeroed = plain;
  zeroed.burst = 1.0;  // explicit 1x burst = no burst
  const Trace a = make_trace(plain);
  const Trace b = make_trace(zeroed);
  ASSERT_EQ(a.count(), b.count());
  for (int i = 0; i < a.count(); ++i) {
    EXPECT_EQ(std::memcmp(&a.requests[static_cast<std::size_t>(i)].submit_time,
                          &b.requests[static_cast<std::size_t>(i)].submit_time,
                          sizeof(double)),
              0);
    EXPECT_EQ(a.requests[static_cast<std::size_t>(i)].sizes,
              b.requests[static_cast<std::size_t>(i)].sizes);
  }

  EXPECT_THROW((void)make_trace([] {
                 TraceGenConfig bad;
                 bad.burst = -1.0;
                 return bad;
               }()),
               Error);
  EXPECT_THROW((void)make_trace([] {
                 TraceGenConfig bad;
                 bad.deadline_frac = 1.5;
                 return bad;
               }()),
               Error);
}
