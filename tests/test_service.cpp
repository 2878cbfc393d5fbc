// vbatch::service tests: trace-parser hardening, DRR fairness, coalescer
// edge cases, deterministic virtual-time replay (memcmp sweeps across pools,
// stream counts and tenant counts), per-request fault poisoning, posv
// correctness, and the wall-clock Service front door.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "vbatch/service/coalescer.hpp"
#include "vbatch/service/fairness.hpp"
#include "vbatch/service/service.hpp"
#include "vbatch/service/trace.hpp"
#include "vbatch/util/error.hpp"

using namespace vbatch;
using namespace vbatch::service;

namespace {

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_trace(text);
    FAIL() << "expected InvalidArgument for: " << text;
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArgument) << text;
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

Request make_request(std::uint64_t id, const std::string& tenant, std::vector<int> sizes,
                     Op op = Op::Potrf, Precision prec = Precision::Double) {
  Request r;
  r.id = id;
  r.tenant = tenant;
  r.op = op;
  r.prec = prec;
  r.sizes = std::move(sizes);
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace parser (satellite: hardening matrix in the DevicePool::parse style)
// ---------------------------------------------------------------------------

TEST(ServiceTrace, ParsesTenantsRequestsAndComments) {
  const Trace t = parse_trace(
      "# demo trace\n"
      "tenant bursty weight=2.5\n"
      "tenant quiet\n"
      "req id=2 t=0.002 tenant=quiet op=posv prec=s n=24 nrhs=4 seed=7\n"
      "req id=1 t=0.001 tenant=bursty op=potrf prec=d n=32,48,64\n"
      "\n");
  ASSERT_EQ(t.count(), 2);
  ASSERT_EQ(t.tenants.size(), 2u);
  EXPECT_EQ(t.tenants[0].first, "bursty");
  EXPECT_DOUBLE_EQ(t.tenants[0].second, 2.5);
  EXPECT_DOUBLE_EQ(t.tenants[1].second, 1.0);
  // Requests are replay-ordered by (t, id).
  EXPECT_EQ(t.requests[0].id, 1u);
  EXPECT_EQ(t.requests[0].op, Op::Potrf);
  EXPECT_EQ(t.requests[0].sizes, (std::vector<int>{32, 48, 64}));
  EXPECT_EQ(t.requests[1].id, 2u);
  EXPECT_EQ(t.requests[1].op, Op::Posv);
  EXPECT_EQ(t.requests[1].prec, Precision::Single);
  EXPECT_EQ(t.requests[1].nrhs, 4);
  EXPECT_EQ(t.requests[1].seed, 7u);
}

TEST(ServiceTrace, FormatRoundTrips) {
  TraceGenConfig cfg;
  cfg.count = 40;
  cfg.tenants = 3;
  cfg.mix_ops = true;
  cfg.mix_precisions = true;
  cfg.deadline_frac = 0.5;
  cfg.deadline_seconds = 0.0123456789;
  Trace a = make_trace(cfg);
  a.tenants[1].second = 1.0 / 3.0;
  a.requests[0].seed = 0x8000000000000000ull;
  const Trace b = parse_trace(format_trace(a));
  ASSERT_EQ(a.count(), b.count());
  // Every double round-trips bit for bit, not just to the printed digits.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].first, b.tenants[t].first);
    EXPECT_EQ(bits(a.tenants[t].second), bits(b.tenants[t].second));
  }
  for (int i = 0; i < a.count(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(bits(a.requests[i].submit_time), bits(b.requests[i].submit_time));
    EXPECT_EQ(bits(a.requests[i].deadline), bits(b.requests[i].deadline));
    EXPECT_EQ(a.requests[i].seed, b.requests[i].seed);
    EXPECT_EQ(a.requests[i].tenant, b.requests[i].tenant);
    EXPECT_EQ(a.requests[i].op, b.requests[i].op);
    EXPECT_EQ(a.requests[i].prec, b.requests[i].prec);
    EXPECT_EQ(a.requests[i].sizes, b.requests[i].sizes);
    EXPECT_EQ(a.requests[i].nrhs, b.requests[i].nrhs);
  }
}

TEST(ServiceTrace, RejectsMalformedInput) {
  const char* ok = "req id=1 t=0 tenant=a op=potrf prec=d n=8\n";
  expect_parse_error("frobnicate id=1\n", "unknown directive");
  expect_parse_error("tenant\n", "needs a name");
  expect_parse_error("tenant bad/slash\n", "bad tenant id");
  expect_parse_error("tenant a\ntenant a\n", "duplicate tenant");
  expect_parse_error("tenant a weight=0\n", "weight must be positive");
  expect_parse_error("tenant a weight=-2\n", "weight must be positive");
  expect_parse_error("tenant a weight=fat\n", "finite number");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=8 junk\n", "key=value");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=8 color=red\n",
                     "unknown field");
  expect_parse_error("req id=1 id=2 t=0 tenant=a op=potrf prec=d n=8\n",
                     "duplicate field");
  expect_parse_error("req t=0 tenant=a op=potrf prec=d n=8\n", "missing required field");
  expect_parse_error("req id=x t=0 tenant=a op=potrf prec=d n=8\n",
                     "non-negative integer");
  expect_parse_error(std::string(ok) + "req id=1 t=0 tenant=a op=potrf prec=d n=8\n",
                     "duplicate request id");
  expect_parse_error("req id=1 t=-0.5 tenant=a op=potrf prec=d n=8\n", "non-negative");
  expect_parse_error("req id=1 t=0 tenant=b@d op=potrf prec=d n=8\n", "bad tenant id");
  expect_parse_error("req id=1 t=0 tenant=a op=getrf prec=d n=8\n", "unknown op");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=q n=8\n", "unknown precision");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=\n", "at least one");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=0\n", "must be positive");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=-5\n", "must be positive");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=12-3\n", "matrix size");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=8,,8\n", "matrix size");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=+8\n", "matrix size");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=999999\n",
                     "implausibly large");
  expect_parse_error("req id=1 t=0 tenant=a op=posv prec=d n=8 nrhs=0\n",
                     "positive integer");
  expect_parse_error("req id=1 t=0 tenant=a op=posv prec=d n=8 nrhs=1.5\n", "integer");
  expect_parse_error("req id=1 t=0 tenant=a op=posv prec=d n=8 nrhs=2.0\n", "integer");
  expect_parse_error("req id=1 t=+0x1p-3 tenant=a op=potrf prec=d n=8\n", "finite number");
  expect_parse_error("req id=1 t=0x1p-3 tenant=a op=potrf prec=d n=8\n", "finite number");
  expect_parse_error("req id=1 t=inf tenant=a op=potrf prec=d n=8\n", "finite number");
  expect_parse_error("req id=18446744073709551616 t=0 tenant=a op=potrf prec=d n=8\n",
                     "non-negative integer");
  expect_parse_error("req id=1 t=0 tenant=a op=potrf prec=d n=8 seed=-3\n",
                     "non-negative integer");
}

TEST(ServiceTrace, ErrorsNameTheLine) {
  expect_parse_error("tenant a\n\n# fine\nreq id=1 t=0 tenant=a op=nope prec=d n=8\n",
                     "trace:4:");
}

TEST(ServiceTrace, LateTenantDeclarationUpdatesWeight) {
  const Trace t = parse_trace(
      "req id=1 t=0 tenant=a op=potrf prec=d n=8\n"
      "tenant a weight=3\n");
  ASSERT_EQ(t.tenants.size(), 1u);
  EXPECT_DOUBLE_EQ(t.tenants[0].second, 3.0);
}

TEST(ServiceTrace, LoadTraceRejectsMissingFile) {
  EXPECT_THROW((void)load_trace("/nonexistent/trace.txt"), Error);
}

// ---------------------------------------------------------------------------
// DRR fairness
// ---------------------------------------------------------------------------

TEST(ServiceFairness, ZeroOrNegativeWeightThrows) {
  DrrScheduler drr;
  EXPECT_THROW(drr.set_weight("a", 0.0), Error);
  EXPECT_THROW(drr.set_weight("a", -1.0), Error);
  Coalescer co;
  EXPECT_THROW(co.set_weight("a", 0.0), Error);
}

TEST(ServiceFairness, SingleTenantDrainsFifo) {
  DrrScheduler drr;
  for (std::uint64_t i = 1; i <= 5; ++i) drr.push("solo", DrrItem{i, 100.0, 64.0, 1});
  const auto ids = drr.admit(DrrCaps{});
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(drr.empty());
}

TEST(ServiceFairness, WeightsShapeAdmissionUnderCaps) {
  // Equal-cost items, weights 2:1, room for 6 of 12 → heavy gets ~2x.
  DrrScheduler drr;
  drr.set_weight("heavy", 2.0);
  drr.set_weight("light", 1.0);
  for (std::uint64_t i = 0; i < 6; ++i) {
    drr.push("heavy", DrrItem{100 + i, 100.0, 64.0, 1});
    drr.push("light", DrrItem{200 + i, 100.0, 64.0, 1});
  }
  const auto ids = drr.admit(DrrCaps{6, 0.0});
  ASSERT_EQ(ids.size(), 6u);
  const auto heavy = std::count_if(ids.begin(), ids.end(),
                                   [](std::uint64_t id) { return id < 200; });
  EXPECT_EQ(heavy, 4);
  EXPECT_EQ(drr.pending(), 6);
}

TEST(ServiceFairness, CostlyHeadCarriesDeficitAcrossRounds) {
  // The auto quantum is the largest head cost per weight (100 here), so
  // a's 250-cost second item waits while its deficit builds up over three
  // rounds (100 → 200 → 300); b drains in the meantime.
  DrrScheduler drr;
  drr.push("a", DrrItem{10, 100.0, 64.0, 1});
  drr.push("a", DrrItem{11, 250.0, 64.0, 1});
  drr.push("b", DrrItem{20, 100.0, 64.0, 1});
  drr.push("b", DrrItem{21, 100.0, 64.0, 1});
  const auto ids = drr.admit(DrrCaps{});
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{10, 20, 21, 11}));
  EXPECT_TRUE(drr.empty());
}

TEST(ServiceFairness, OversizedFirstCandidateAdmittedAlone) {
  DrrScheduler drr;
  drr.push("a", DrrItem{1, 100.0, 1e9, 10});
  drr.push("a", DrrItem{2, 100.0, 64.0, 1});
  const auto ids = drr.admit(DrrCaps{4, 0.0});
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(drr.pending(), 1);
}

TEST(ServiceFairness, CursorPersistsAcrossFlushes) {
  DrrScheduler drr;
  for (std::uint64_t i = 0; i < 4; ++i) {
    drr.push("a", DrrItem{10 + i, 100.0, 64.0, 1});
    drr.push("b", DrrItem{20 + i, 100.0, 64.0, 1});
  }
  const auto first = drr.admit(DrrCaps{2, 0.0});
  const auto second = drr.admit(DrrCaps{2, 0.0});
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  // Four equal-weight admissions alternate a/b overall: 2 each.
  std::vector<std::uint64_t> all(first);
  all.insert(all.end(), second.begin(), second.end());
  EXPECT_EQ(std::count_if(all.begin(), all.end(),
                          [](std::uint64_t id) { return id < 20; }),
            2);
}

// ---------------------------------------------------------------------------
// Coalescer edge cases (satellite)
// ---------------------------------------------------------------------------

TEST(ServiceCoalescer, SingleRequestFlushesAloneOnBudget) {
  Coalescer co(CoalescerConfig{1e-3, 0, 0.0});
  co.add(make_request(1, "a", {32}), 0.0);
  EXPECT_FALSE(co.pop_ready(0.5e-3).has_value());  // budget not yet expired
  auto flush = co.pop_ready(1e-3);
  ASSERT_TRUE(flush.has_value());
  EXPECT_EQ(flush->reason, FlushReason::Budget);
  ASSERT_EQ(flush->admitted.size(), 1u);
  EXPECT_EQ(flush->admitted[0].id, 1u);
  EXPECT_TRUE(co.empty());
}

TEST(ServiceCoalescer, CountCapFlushPrecedesBudgetExpiry) {
  Coalescer co(CoalescerConfig{1.0, 4, 0.0});
  co.add(make_request(1, "a", {16, 16}), 0.0);
  EXPECT_FALSE(co.pop_ready(0.0).has_value());  // 2 < cap, budget far away
  co.add(make_request(2, "a", {16, 16}), 1e-4);
  EXPECT_EQ(co.next_ready(), 1e-4);  // the cap crossing, not t=1.0
  auto flush = co.pop_ready(1e-4);
  ASSERT_TRUE(flush.has_value());
  EXPECT_EQ(flush->reason, FlushReason::CountCap);
  EXPECT_EQ(flush->admitted.size(), 2u);
}

TEST(ServiceCoalescer, BytesCapFlushes) {
  Coalescer co(CoalescerConfig{1.0, 0, 3000.0});
  co.add(make_request(1, "a", {16}), 0.0);  // 16*16*8 = 2048 bytes
  EXPECT_FALSE(co.pop_ready(0.0).has_value());
  co.add(make_request(2, "a", {16}), 0.0);  // 4096 >= 3000 → cap
  auto flush = co.pop_ready(0.0);
  ASSERT_TRUE(flush.has_value());
  EXPECT_EQ(flush->reason, FlushReason::BytesCap);
  // The cap admits only what fits: one 2048-byte request, the other waits.
  EXPECT_EQ(flush->admitted.size(), 1u);
  EXPECT_EQ(co.depth(), 1);
}

TEST(ServiceCoalescer, IncompatiblePrecisionOrOpNeverMerges) {
  Coalescer co(CoalescerConfig{0.0, 0, 0.0});
  co.add(make_request(1, "a", {16}, Op::Potrf, Precision::Double), 0.0);
  co.add(make_request(2, "a", {16}, Op::Potrf, Precision::Single), 0.0);
  co.add(make_request(3, "a", {16}, Op::Posv, Precision::Double), 0.0);
  std::vector<Coalescer::Flush> flushes;
  while (auto f = co.pop_ready(0.0)) flushes.push_back(std::move(*f));
  ASSERT_EQ(flushes.size(), 3u);
  for (const auto& f : flushes) {
    ASSERT_EQ(f.admitted.size(), 1u);
    EXPECT_EQ(f.admitted[0].op, f.key.op);
    EXPECT_EQ(f.admitted[0].prec, f.key.prec);
  }
}

TEST(ServiceCoalescer, CompatibleRequestsMergeWithinBudget) {
  Coalescer co(CoalescerConfig{1e-3, 0, 0.0});
  co.add(make_request(1, "a", {16}), 0.0);
  co.add(make_request(2, "b", {24}), 0.5e-3);
  auto flush = co.pop_ready(1e-3);
  ASSERT_TRUE(flush.has_value());
  EXPECT_EQ(flush->admitted.size(), 2u);
  EXPECT_TRUE(co.empty());
}

TEST(ServiceCoalescer, ForceDrainFlushesEverything) {
  Coalescer co(CoalescerConfig{10.0, 0, 0.0});
  co.add(make_request(1, "a", {16}), 0.0);
  EXPECT_FALSE(co.pop_ready(0.0).has_value());
  auto flush = co.pop_ready(0.0, /*force=*/true);
  ASSERT_TRUE(flush.has_value());
  EXPECT_EQ(flush->reason, FlushReason::Drain);
  EXPECT_TRUE(co.empty());
  EXPECT_TRUE(std::isinf(co.next_ready()));
}

TEST(ServiceCoalescer, EmptyRequestRejected) {
  Coalescer co;
  EXPECT_THROW(co.add(make_request(1, "a", {}), 0.0), Error);
}

// ---------------------------------------------------------------------------
// Request intake: submit() queues straight into the engine's backlog, drain()
// empties it in arrival order and closes intake, and an idle dispatcher wakes
// on submit
// ---------------------------------------------------------------------------

TEST(ServiceRequestQueue, PushDrainClose) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 60.0;  // held until drain()
  Service svc(pool, cfg);
  const JobTicket first = svc.submit(make_request(1, "a", {8}));
  const JobTicket second = svc.submit(make_request(2, "a", {8}));
  EXPECT_FALSE(first.done());
  EXPECT_FALSE(second.done());
  const ServiceReport report = svc.drain();
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].id, 1u);
  EXPECT_EQ(report.outcomes[1].id, 2u);
  EXPECT_EQ(report.batches, 1);  // both pending requests left in one launch
  EXPECT_EQ(report.peak_queue_depth, 2);
  EXPECT_TRUE(first.done());
  EXPECT_TRUE(second.done());
  EXPECT_THROW((void)svc.submit(make_request(3, "a", {8})), Error);
}

TEST(ServiceRequestQueue, WaitDrainWakesOnPush) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 0.0;  // due the instant it arrives
  Service svc(pool, cfg);
  // With nothing pending the dispatcher sleeps without a timeout, so only
  // the submit's notification can start this launch before drain().
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  const JobTicket ticket = svc.submit(make_request(7, "a", {8}));
  while (!ticket.done() && std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ticket.done());  // must wake well before 5 s
  EXPECT_EQ(svc.wait(ticket).id, 7u);
  EXPECT_EQ(svc.wait(ticket).status, RequestStatus::Ok);
  (void)svc.drain();
}

// ---------------------------------------------------------------------------
// Virtual-time replay
// ---------------------------------------------------------------------------

namespace {

ServiceConfig replay_config(double budget = 1e-3) {
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = budget;
  return cfg;
}

/// Field-by-field bit comparison of two reports (doubles compared as bits:
/// the replay promises bit-for-bit determinism, not approximate equality).
void expect_reports_identical(const ServiceReport& a, const ServiceReport& b) {
  auto bits = [](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  ASSERT_EQ(a.requests, b.requests);
  ASSERT_EQ(a.batches, b.batches);
  EXPECT_EQ(bits(a.makespan), bits(b.makespan));
  EXPECT_EQ(bits(a.flops), bits(b.flops));
  EXPECT_EQ(bits(a.joules), bits(b.joules));
  EXPECT_EQ(bits(a.mean_queue_depth), bits(b.mean_queue_depth));
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(bits(a.p50_latency), bits(b.p50_latency));
  EXPECT_EQ(bits(a.p99_latency), bits(b.p99_latency));
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.slo_total, b.slo_total);
  EXPECT_EQ(a.slo_met, b.slo_met);
  EXPECT_EQ(bits(a.goodput_flops), bits(b.goodput_flops));
  EXPECT_EQ(bits(a.capacity_gflops), bits(b.capacity_gflops));
  ASSERT_EQ(a.batch_log.size(), b.batch_log.size());
  for (std::size_t i = 0; i < a.batch_log.size(); ++i) {
    EXPECT_EQ(a.batch_log[i].reason, b.batch_log[i].reason);
    EXPECT_EQ(a.batch_log[i].requests, b.batch_log[i].requests);
    EXPECT_EQ(bits(a.batch_log[i].dispatch_time), bits(b.batch_log[i].dispatch_time));
    EXPECT_EQ(bits(a.batch_log[i].seconds), bits(b.batch_log[i].seconds));
    EXPECT_EQ(bits(a.batch_log[i].joules), bits(b.batch_log[i].joules));
  }
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const RequestOutcome& x = a.outcomes[i];
    const RequestOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.info, y.info);
    EXPECT_EQ(x.batch_id, y.batch_id);
    EXPECT_EQ(bits(x.dispatch_time), bits(y.dispatch_time));
    EXPECT_EQ(bits(x.complete_time), bits(y.complete_time));
    EXPECT_EQ(bits(x.joules), bits(y.joules));
    ASSERT_EQ(x.factors.size(), y.factors.size());
    for (std::size_t j = 0; j < x.factors.size(); ++j) {
      ASSERT_EQ(x.factors[j].size(), y.factors[j].size());
      EXPECT_EQ(std::memcmp(x.factors[j].data(), y.factors[j].data(),
                            x.factors[j].size()),
                0);
    }
  }
}

}  // namespace

TEST(ServiceReplay, ServesEveryRequestAndCoalesces) {
  TraceGenConfig gen;
  gen.count = 60;
  gen.tenants = 3;
  gen.rate = 200000.0;  // dense arrivals → deep merging
  const Trace trace = make_trace(gen);
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  const ServiceReport report = replay_trace(pool, trace, replay_config());
  EXPECT_EQ(report.requests, 60);
  EXPECT_EQ(static_cast<int>(report.outcomes.size()), 60);
  EXPECT_GT(report.batches, 0);
  EXPECT_GT(report.coalescing_ratio, 1.5);
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_GT(report.p99_latency, 0.0);
  EXPECT_GE(report.p99_latency, report.p50_latency);
  EXPECT_GT(report.mean_queue_depth, 0.0);
  for (const RequestOutcome& o : report.outcomes) {
    EXPECT_EQ(o.status, RequestStatus::Ok);
    EXPECT_GE(o.dispatch_time, o.submit_time);
    EXPECT_GT(o.complete_time, o.dispatch_time);
  }
  // Every id served exactly once.
  std::vector<std::uint64_t> ids;
  for (const RequestOutcome& o : report.outcomes) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(ServiceReplay, BatchCapBoundsLaunches) {
  TraceGenConfig gen;
  gen.count = 30;
  gen.rate = 1e6;
  gen.max_matrices = 2;
  const Trace trace = make_trace(gen);
  ServiceConfig cfg = replay_config();
  cfg.coalesce.max_batch = 8;
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  const ServiceReport report = replay_trace(pool, trace, cfg);
  EXPECT_EQ(report.requests, 30);
  for (const BatchRecord& b : report.batch_log) EXPECT_LE(b.matrices, 8 + 2);
}

TEST(ServiceReplay, DeterminismSweepAcrossPoolsStreamsAndTenants) {
  // The acceptance-criteria sweep: every (pool × streams × tenant-count)
  // config replays bit-identically — report fields AND factor payloads.
  const char* pools[] = {"k40c", "cpu,k40c", "k40c:2streams,p100"};
  for (const char* desc : pools) {
    for (int tenants : {1, 3}) {
      TraceGenConfig gen;
      gen.count = 24;
      gen.tenants = tenants;
      gen.rate = 300000.0;
      gen.nmax = 40;
      const Trace trace = make_trace(gen);
      ServiceConfig cfg = replay_config();
      cfg.mode = sim::ExecMode::Full;
      cfg.keep_payloads = true;
      hetero::DevicePool p1 = hetero::DevicePool::parse(desc);
      hetero::DevicePool p2 = hetero::DevicePool::parse(desc);
      const ServiceReport a = replay_trace(p1, trace, cfg);
      const ServiceReport b = replay_trace(p2, trace, cfg);
      SCOPED_TRACE(std::string(desc) + " x " + std::to_string(tenants) + " tenants");
      expect_reports_identical(a, b);
    }
  }
}

TEST(ServiceReplay, FactorsInvariantAcrossStreamCounts) {
  // Stream counts change the schedule and the modelled times, never the
  // merged-batch composition — so the factor bytes must match exactly.
  TraceGenConfig gen;
  gen.count = 16;
  gen.rate = 300000.0;
  gen.nmax = 40;
  const Trace trace = make_trace(gen);
  ServiceConfig cfg = replay_config();
  cfg.mode = sim::ExecMode::Full;
  cfg.keep_payloads = true;
  hetero::DevicePool p1 = hetero::DevicePool::parse("k40c:1streams");
  hetero::DevicePool p4 = hetero::DevicePool::parse("k40c:4streams");
  const ServiceReport a = replay_trace(p1, trace, cfg);
  const ServiceReport b = replay_trace(p4, trace, cfg);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i].factors.size(), b.outcomes[i].factors.size());
    for (std::size_t j = 0; j < a.outcomes[i].factors.size(); ++j)
      EXPECT_EQ(a.outcomes[i].factors[j], b.outcomes[i].factors[j]);
  }
}

TEST(ServiceReplay, PayloadIndependentOfCoalescing) {
  // A request's factors are a pure function of the request: serving it
  // alone and serving it merged with strangers must produce the same bits.
  // Pinning the separated path with a fixed nb keeps the per-matrix math
  // independent of the merged batch's global maximum.
  Request lone = make_request(42, "a", {24, 32});
  Trace solo;
  solo.requests = {lone};
  solo.tenants = {{"a", 1.0}};
  Trace merged = solo;
  Request other = make_request(7, "b", {48});
  merged.requests.push_back(other);
  merged.tenants.emplace_back("b", 1.0);

  ServiceConfig cfg = replay_config();
  cfg.mode = sim::ExecMode::Full;
  cfg.keep_payloads = true;
  cfg.hetero.potrf.path = PotrfPath::Separated;
  cfg.hetero.potrf.separated_nb = 16;

  hetero::DevicePool p1 = hetero::DevicePool::parse("k40c");
  hetero::DevicePool p2 = hetero::DevicePool::parse("k40c");
  const ServiceReport a = replay_trace(p1, solo, cfg);
  const ServiceReport b = replay_trace(p2, merged, cfg);
  const auto find42 = [](const ServiceReport& r) {
    for (const RequestOutcome& o : r.outcomes)
      if (o.id == 42) return o;
    return RequestOutcome{};
  };
  const RequestOutcome oa = find42(a);
  const RequestOutcome ob = find42(b);
  ASSERT_EQ(oa.factors.size(), 2u);
  ASSERT_EQ(ob.factors.size(), 2u);
  EXPECT_EQ(ob.merged_with, 3);
  for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(oa.factors[j], ob.factors[j]);
}

TEST(ServiceReplay, MixedPrecisionSplitsIntoGroups) {
  Trace trace;
  trace.requests = {make_request(1, "a", {16}, Op::Potrf, Precision::Double),
                    make_request(2, "a", {16}, Op::Potrf, Precision::Single)};
  trace.tenants = {{"a", 1.0}};
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  const ServiceReport report = replay_trace(pool, trace, replay_config());
  EXPECT_EQ(report.batches, 2);
  EXPECT_DOUBLE_EQ(report.coalescing_ratio, 1.0);
}

TEST(ServiceReplay, FaultPoisonsOnlyAffectedRequests) {
  // One merged launch, one executor that dies after its first chunk: the
  // chunks no one can finish poison their requests, the rest stay Ok.
  Trace trace;
  for (std::uint64_t i = 1; i <= 8; ++i)
    trace.requests.push_back(make_request(i, "a", {32, 32}));
  trace.tenants = {{"a", 1.0}};
  ServiceConfig cfg = replay_config();
  cfg.mode = sim::ExecMode::Full;
  cfg.keep_payloads = true;
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  pool.set_faults(fault::parse_fault_spec("die:exec=0,after=1"));
  const ServiceReport report = replay_trace(pool, trace, cfg);
  EXPECT_EQ(report.requests, 8);
  EXPECT_GT(report.poisoned, 0);
  EXPECT_LT(report.poisoned, 8);
  for (const RequestOutcome& o : report.outcomes) {
    const bool has_poison =
        std::find(o.info.begin(), o.info.end(), kInfoChunkLost) != o.info.end();
    EXPECT_EQ(o.status == RequestStatus::Poisoned, has_poison);
    if (o.status == RequestStatus::Ok) {
      for (const auto& f : o.factors) EXPECT_FALSE(f.empty());
    }
  }
}

TEST(ServiceReplay, PosvSolvesAgainstRegeneratedSystem) {
  // End-to-end correctness of the demuxed solution: regenerate A and b from
  // the request's payload seeds and check ||A x - b|| is tiny.
  const int n = 16;
  Request r = make_request(5, "a", {n}, Op::Posv);
  r.nrhs = 2;
  Trace trace;
  trace.requests = {r};
  trace.tenants = {{"a", 1.0}};
  ServiceConfig cfg = replay_config();
  cfg.mode = sim::ExecMode::Full;
  cfg.keep_payloads = true;
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  const ServiceReport report = replay_trace(pool, trace, cfg);
  ASSERT_EQ(report.outcomes.size(), 1u);
  const RequestOutcome& o = report.outcomes[0];
  EXPECT_EQ(o.status, RequestStatus::Ok);
  ASSERT_EQ(o.solutions.size(), 1u);
  ASSERT_EQ(o.solutions[0].size(), sizeof(double) * n * r.nrhs);

  std::vector<double> a(static_cast<std::size_t>(n) * n);
  Rng ra(r.payload_seed());
  fill_spd(ra, a.data(), n, n);
  std::vector<double> b(static_cast<std::size_t>(n) * r.nrhs);
  Rng rb(r.payload_seed() ^ 0xD1B54A32D192ED03ull);
  fill_general(rb, b.data(), n, r.nrhs, n);
  std::vector<double> x(static_cast<std::size_t>(n) * r.nrhs);
  std::memcpy(x.data(), o.solutions[0].data(), o.solutions[0].size());

  double max_resid = 0.0;
  for (int col = 0; col < r.nrhs; ++col)
    for (int row = 0; row < n; ++row) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) acc += a[row + k * n] * x[k + col * n];
      max_resid = std::max(max_resid, std::abs(acc - b[row + col * n]));
    }
  EXPECT_LT(max_resid, 1e-10);
}

TEST(ServiceReplay, TenantWeightZeroRejected) {
  Trace trace;
  trace.requests = {make_request(1, "a", {16})};
  trace.tenants = {{"a", 1.0}};
  ServiceConfig cfg = replay_config();
  cfg.tenant_weights = {{"a", 0.0}};
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  EXPECT_THROW((void)replay_trace(pool, trace, cfg), Error);
}

TEST(ServiceReplay, EmptyTraceYieldsEmptyReport) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  const ServiceReport report = replay_trace(pool, Trace{}, replay_config());
  EXPECT_EQ(report.requests, 0);
  EXPECT_EQ(report.batches, 0);
  EXPECT_DOUBLE_EQ(report.makespan, 0.0);
}

TEST(ServiceReplay, ReportPrintsTables) {
  TraceGenConfig gen;
  gen.count = 12;
  const Trace trace = make_trace(gen);
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  const ServiceReport report = replay_trace(pool, trace, replay_config());
  std::ostringstream os;
  report.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("tenant"), std::string::npos);
  EXPECT_NE(text.find("coalescing"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  EXPECT_FALSE(report.describe().empty());
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

TEST(ServiceReport, NearestRankPercentiles) {
  TenantStats t;
  for (int i = 1; i <= 100; ++i) t.latencies.push_back(i * 1e-3);
  EXPECT_DOUBLE_EQ(t.percentile(50.0), 50e-3);
  EXPECT_DOUBLE_EQ(t.percentile(99.0), 99e-3);
  EXPECT_DOUBLE_EQ(t.percentile(100.0), 100e-3);
  EXPECT_DOUBLE_EQ(t.percentile(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(t.mean_latency(), 50.5e-3);
  EXPECT_DOUBLE_EQ(t.max_latency(), 100e-3);
  TenantStats empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
}

// ---------------------------------------------------------------------------
// Wall-clock Service
// ---------------------------------------------------------------------------

TEST(ServiceLive, ServesConcurrentSubmitters) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 2e-3;  // wall seconds
  Service svc(pool, cfg);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::vector<std::thread> clients;
  std::vector<std::vector<JobTicket>> tickets(kThreads);
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&svc, &tickets, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Request r = make_request(0, "tenant" + std::to_string(t), {16, 24});
        tickets[static_cast<std::size_t>(t)].push_back(svc.submit(std::move(r)));
      }
    });
  for (auto& c : clients) c.join();

  for (auto& per_thread : tickets)
    for (const JobTicket& ticket : per_thread) {
      const RequestOutcome o = svc.wait(ticket);
      EXPECT_EQ(o.status, RequestStatus::Ok);
      EXPECT_EQ(o.id, ticket.id());
      EXPECT_GE(o.complete_time, o.submit_time);
    }
  const ServiceReport report = svc.drain();
  EXPECT_EQ(report.requests, kThreads * kPerThread);
  EXPECT_GE(report.coalescing_ratio, 1.0);
  EXPECT_EQ(static_cast<int>(report.tenants.size()), kThreads);
}

TEST(ServiceLive, DrainFlushesPendingAndRejectsLateSubmits) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 60.0;  // never expires on its own
  Service svc(pool, cfg);
  const JobTicket ticket = svc.submit(make_request(0, "a", {16}));
  const ServiceReport report = svc.drain();  // must force the flush
  EXPECT_EQ(report.requests, 1);
  EXPECT_TRUE(ticket.done());
  EXPECT_EQ(svc.wait(ticket).status, RequestStatus::Ok);
  EXPECT_THROW((void)svc.submit(make_request(0, "a", {16})), Error);
  EXPECT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.batch_log.size(), 1u);
  // Later calls return the same aggregates; the logs went to the first caller.
  const ServiceReport again = svc.drain();
  EXPECT_EQ(again.requests, 1);
  EXPECT_EQ(again.batches, report.batches);
  EXPECT_TRUE(again.outcomes.empty());
  EXPECT_TRUE(again.batch_log.empty());
}

TEST(ServiceLive, DuplicateExplicitIdRejected) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  Service svc(pool, ServiceConfig{});
  (void)svc.submit(make_request(99, "a", {16}));
  EXPECT_THROW((void)svc.submit(make_request(99, "a", {16})), Error);
  (void)svc.drain();
}

// ---------------------------------------------------------------------------
// Ticket lifetime: the live Service lets go of every resolved request
// ---------------------------------------------------------------------------

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

}  // namespace

TEST(ServiceTickets, HeldTicketKeepsItsOutcomeAfterResolution) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 1e-3;
  cfg.mode = sim::ExecMode::Full;
  Service svc(pool, cfg);
  const JobTicket held = svc.submit(make_request(7, "a", {12, 20}));
  const JobTicket copy = held;
  // The dispatcher resolves the request while nobody waits on it.
  while (!held.done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(copy.done());
  const RequestOutcome first = svc.wait(held);
  const RequestOutcome again = svc.wait(copy);
  EXPECT_EQ(first.id, 7u);
  EXPECT_EQ(first.status, RequestStatus::Ok);
  EXPECT_EQ(first.info, (std::vector<int>{0, 0}));
  EXPECT_EQ(again.info, first.info);
  EXPECT_EQ(bits_of(again.complete_time), bits_of(first.complete_time));
  const ServiceReport report = svc.drain();
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].info, first.info);
  EXPECT_EQ(bits_of(report.outcomes[0].complete_time), bits_of(first.complete_time));
  EXPECT_EQ(report.outcomes[0].batch_id, first.batch_id);
  EXPECT_EQ(svc.wait(held).status, RequestStatus::Ok);  // still readable after drain
}

TEST(ServiceTickets, ShedInsideSubmitReturnsADoneTicket) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 60.0;  // held until drain()
  cfg.admission.enabled = true;
  cfg.admission.max_queue = 1;
  Service svc(pool, cfg);
  const JobTicket queued = svc.submit(make_request(1, "a", {16}));
  const JobTicket shed = svc.submit(make_request(2, "a", {16}));
  EXPECT_TRUE(shed.done());  // resolved before submit() returned the ticket
  EXPECT_FALSE(queued.done());
  const RequestOutcome rejected = svc.wait(shed);
  EXPECT_EQ(rejected.id, 2u);
  EXPECT_EQ(rejected.status, RequestStatus::RejectedQueueFull);
  (void)svc.submit(make_request(3, "a", {16}));  // shed, ticket dropped at once
  const ServiceReport report = svc.drain();
  EXPECT_EQ(report.requests, 3);
  EXPECT_EQ(report.accepted, 1);
  EXPECT_EQ(report.shed, 2);
  EXPECT_EQ(svc.wait(queued).status, RequestStatus::Ok);
  EXPECT_EQ(svc.wait(shed).status, RequestStatus::RejectedQueueFull);
}

TEST(ServiceTickets, DuplicateIdRejectedAfterItResolved) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 2e-4;
  Service svc(pool, cfg);
  const JobTicket first = svc.submit(make_request(5, "a", {4}));
  EXPECT_EQ(svc.wait(first).status, RequestStatus::Ok);
  EXPECT_THROW((void)svc.submit(make_request(5, "a", {4})), Error);

  // Thousands of other requests with dropped tickets, ids out of order so
  // runs of ids start apart and merge: the evens 100..7998 rising, then the
  // odds 7999..101 falling, then 99 below the merged run. Every 500th ticket
  // is kept and waited on.
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 100; id < 8000; id += 2) ids.push_back(id);
  for (std::uint64_t id = 7999; id > 100; id -= 2) ids.push_back(id);
  ids.push_back(99);
  std::vector<JobTicket> kept;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobTicket t = svc.submit(make_request(ids[i], "a", {2}));
    if (i % 500 == 0) kept.push_back(t);
  }
  for (const JobTicket& t : kept) EXPECT_EQ(svc.wait(t).status, RequestStatus::Ok);
  for (const std::uint64_t dup : {std::uint64_t{5}, std::uint64_t{99}, std::uint64_t{100},
                                  std::uint64_t{101}, std::uint64_t{4000}, std::uint64_t{4001},
                                  std::uint64_t{7998}, std::uint64_t{7999}})
    EXPECT_THROW((void)svc.submit(make_request(dup, "a", {2})), Error) << "id " << dup;
  for (const JobTicket& t : kept)
    EXPECT_THROW((void)svc.submit(make_request(t.id(), "a", {2})), Error) << "id " << t.id();
  // Ids in the gaps are free; id 0 takes the next id above every id seen.
  EXPECT_NO_THROW((void)svc.submit(make_request(6, "a", {2})));
  EXPECT_NO_THROW((void)svc.submit(make_request(98, "a", {2})));
  EXPECT_NO_THROW((void)svc.submit(make_request(8000, "a", {2})));
  EXPECT_EQ(svc.submit(make_request(0, "a", {2})).id(), 8001u);
  const ServiceReport report = svc.drain();
  EXPECT_EQ(report.requests, static_cast<int>(ids.size()) + 5);
  std::vector<std::uint64_t> served;
  for (const RequestOutcome& o : report.outcomes) served.push_back(o.id);
  std::sort(served.begin(), served.end());
  EXPECT_EQ(std::adjacent_find(served.begin(), served.end()), served.end());
}

TEST(ServiceTickets, DroppedTicketOutcomesAppearInTheReport) {
  TraceGenConfig g;
  g.count = 240;
  g.tenants = 3;
  g.nmax = 24;
  g.max_matrices = 3;
  g.mix_ops = true;
  g.mix_precisions = true;
  g.seed = 11;
  const Trace trace = make_trace(g);
  ServiceConfig cfg;
  cfg.coalesce.latency_budget = 1e-3;
  cfg.mode = sim::ExecMode::Full;
  hetero::DevicePool pool = hetero::DevicePool::parse("cpu,k40c,p100");
  ServiceReport report;
  RequestOutcome waited;
  {
    Service svc(pool, cfg);
    JobTicket kept;
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
      const JobTicket t = svc.submit(trace.requests[i]);
      if (i == trace.requests.size() / 2) kept = t;  // every other ticket is dropped
    }
    waited = svc.wait(kept);
    report = svc.drain();
  }
  ASSERT_EQ(report.outcomes.size(), trace.requests.size());
  std::map<std::uint64_t, const RequestOutcome*> by_id;
  for (const RequestOutcome& o : report.outcomes) {
    EXPECT_TRUE(by_id.emplace(o.id, &o).second) << "id " << o.id << " reported twice";
    EXPECT_EQ(o.status, RequestStatus::Ok) << "id " << o.id;
  }
  for (const Request& r : trace.requests) {
    const auto it = by_id.find(r.id);
    ASSERT_NE(it, by_id.end()) << "id " << r.id << " missing";
    EXPECT_EQ(it->second->info, std::vector<int>(r.sizes.size(), 0)) << "id " << r.id;
  }
  const RequestOutcome& logged = *by_id.at(waited.id);
  EXPECT_EQ(logged.info, waited.info);
  EXPECT_EQ(logged.batch_id, waited.batch_id);
  EXPECT_EQ(bits_of(logged.complete_time), bits_of(waited.complete_time));

  // The pool that served the live stream holds one call per executor, so a
  // replay of the same trace on it reads what a fresh pool's replay reads:
  // every modelled time, count and status bit for bit. Energy integrates
  // absolute record instants, which sit later on the reused device clocks,
  // so it may differ in the last bits.
  const ServiceReport a = replay_trace(pool, trace, replay_config());
  hetero::DevicePool fresh = hetero::DevicePool::parse("cpu,k40c,p100");
  const ServiceReport b = replay_trace(fresh, trace, replay_config());
  ASSERT_EQ(a.requests, b.requests);
  ASSERT_EQ(a.batch_log.size(), b.batch_log.size());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  for (const auto& [x, y] :
       {std::pair{a.makespan, b.makespan}, {a.flops, b.flops}, {a.p50_latency, b.p50_latency},
        {a.p99_latency, b.p99_latency}, {a.goodput_flops, b.goodput_flops},
        {a.mean_queue_depth, b.mean_queue_depth}, {a.capacity_gflops, b.capacity_gflops}})
    EXPECT_EQ(bits_of(x), bits_of(y));
  EXPECT_NEAR(a.joules, b.joules, 1e-12 * b.joules);
  for (std::size_t i = 0; i < a.batch_log.size(); ++i) {
    const BatchRecord &x = a.batch_log[i], &y = b.batch_log[i];
    EXPECT_EQ(x.requests, y.requests) << "batch " << i;
    EXPECT_EQ(x.reason, y.reason) << "batch " << i;
    EXPECT_EQ(bits_of(x.dispatch_time), bits_of(y.dispatch_time)) << "batch " << i;
    EXPECT_EQ(bits_of(x.seconds), bits_of(y.seconds)) << "batch " << i;
    EXPECT_NEAR(x.joules, y.joules, 1e-12 * y.joules) << "batch " << i;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const RequestOutcome &x = a.outcomes[i], &y = b.outcomes[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.status, y.status) << "id " << x.id;
    EXPECT_EQ(x.batch_id, y.batch_id) << "id " << x.id;
    EXPECT_EQ(bits_of(x.complete_time), bits_of(y.complete_time)) << "id " << x.id;
  }
}
