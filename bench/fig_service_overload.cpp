// fig_service_overload — what admission control buys under overload
// (docs/service.md, "Overload & admission").
//
// A serving system past saturation has exactly two choices: queue
// everything (latency grows without bound, deadlines blow, yet the pool
// still runs at capacity — throughput looks fine while goodput collapses)
// or shed load (accepted requests keep their latency, on-time useful work
// stays near capacity). This bench replays the same request set three ways
// on the same pool:
//
//   * uncontended    — arrivals at ~0.4x service rate: the latency floor.
//   * overload       — the same requests compressed to 2x service rate,
//                      admission disabled: the queue-everything collapse.
//   * admission      — same 2x overload with token buckets, a queue
//                      watermark and deadline shedding enabled.
//   * admission+death— the admission run with one executor dying
//                      mid-trace: capacity feedback tightens admission
//                      instead of letting p99 grow.
//
// The arrival rates and deadlines are calibrated from the pool's own
// modelled service time, so the bench is machine-independent and
// deterministic. Output: a summary on stdout plus one JSON line per mode
// appended to BENCH_overload.json (override with --out).
//
// Gates (exit 1 on failure):
//   * accepted p99 under admission <= 3x the uncontended p99;
//   * goodput under admission >= 1.3x the no-admission goodput;
//   * every accepted request's factor bytes identical to the uncontended
//     run — admission changes WHICH requests run, never WHAT they compute;
//   * the executor-death run sheds load (shed+expired > 0) and still keeps
//     accepted p99 <= 3x uncontended.
#include <cstdio>
#include <string>
#include <vector>

#include "gate_common.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/service/service.hpp"

namespace {

using namespace vbatch;
namespace svc = vbatch::service;

struct Options {
  // Large enough that modelled service time dominates the coalescing
  // budget — overload must be compute-bound, or "2x overload" would still
  // fit inside the 1 ms merge window and nothing would queue.
  int count = 320;
  int nmax = 128;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_overload.json";
};

constexpr const char* kPool = "cpu,k40c";

/// The fixed request set: ids, tenants, sizes. Arrival times and deadlines
/// are stamped per mode — the payloads (seeded by id) never change, so
/// factor bytes are comparable across every mode.
std::vector<svc::Request> make_requests(const Options& o) {
  Rng rng(o.seed);
  const auto sizes = make_sizes(SizeDist::Uniform, rng, o.count * 3, o.nmax);
  std::vector<svc::Request> reqs;
  for (int i = 0; i < o.count; ++i) {
    svc::Request r;
    r.id = static_cast<std::uint64_t>(i + 1);
    r.tenant = (i % 2 == 0) ? "astro" : "jacobi";
    r.sizes = {sizes[static_cast<std::size_t>(3 * i)],
               sizes[static_cast<std::size_t>(3 * i + 1)],
               sizes[static_cast<std::size_t>(3 * i + 2)]};
    reqs.push_back(std::move(r));
  }
  return reqs;
}

svc::Trace stamp(const std::vector<svc::Request>& reqs, double gap, double deadline) {
  svc::Trace trace;
  trace.tenants = {{"astro", 2.0}, {"jacobi", 1.0}};
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    svc::Request r = reqs[i];
    r.submit_time = static_cast<double>(i) * gap;
    r.deadline = deadline;
    trace.requests.push_back(std::move(r));
  }
  return trace;
}

svc::ServiceConfig base_config(bool full) {
  svc::ServiceConfig cfg;
  // A short merge window and a capped launch depth: at saturation the
  // coalescer would otherwise merge arbitrarily deep, making the saturated
  // pool several times faster than the uncontended one — and "2x the
  // saturated rate" impossible to distinguish from a burst the queue
  // absorbs. Capped, the service rate is the same loaded or not, so 2x
  // overload genuinely outruns the pool.
  cfg.coalesce.latency_budget = 2e-4;
  cfg.coalesce.max_batch = 16;
  if (full) {
    cfg.mode = sim::ExecMode::Full;
    cfg.keep_payloads = true;
  }
  // Pin the kernel configuration so payload bits cannot vary with the
  // merged-batch composition (the factor-identity gate needs this).
  cfg.hetero.potrf.path = PotrfPath::Separated;
  cfg.hetero.potrf.separated_nb = 16;
  return cfg;
}

svc::ServiceReport replay(const svc::Trace& trace, const svc::ServiceConfig& cfg,
                          const char* faults = nullptr) {
  hetero::DevicePool pool = hetero::DevicePool::parse(kPool);
  if (faults != nullptr) pool.set_faults(fault::parse_fault_spec(faults));
  return svc::replay_trace(pool, trace, cfg);
}

/// Every accepted (served) request in `run` must carry the same factor
/// bytes as the uncontended reference run of the same request set.
bool accepted_factors_match(const svc::ServiceReport& run, const svc::ServiceReport& ref) {
  return gate::same_outcomes(run, ref, [](const svc::RequestOutcome& out) {
    return out.status == svc::RequestStatus::Ok;
  });
}

gate::JsonLine json_line(const Options& o, const char* mode, const svc::ServiceReport& r) {
  return {{"bench", "service_overload"}, {"mode", mode}, {"count", o.count},
          {"nmax", o.nmax}, {"precision", "d"}, {"pool", kPool},
          {"makespan_seconds", r.makespan}, {"p99_latency", r.p99_latency},
          {"accepted", r.accepted}, {"shed", r.shed}, {"expired", r.expired},
          {"slo_attainment", r.slo_attainment()}, {"goodput_gflops", r.goodput_gflops()},
          {"capacity_gflops", r.capacity_gflops}};
}

void print_row(const char* mode, const svc::ServiceReport& r) {
  std::printf("  %-18s %10.4f %9d %6d %8d %7.1f%% %10.3f %12.4f\n", mode,
              r.p99_latency * 1e3, r.accepted, r.shed, r.expired, r.slo_attainment() * 100.0,
              r.goodput_gflops(), r.makespan * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  gate::Flags(argv[0])
      .num("--count", o.count, 8)
      .num("--nmax", o.nmax, 1)
      .num("--seed", o.seed, 0)
      .text("--out", o.out)
      .parse(argc, argv);
  const std::vector<svc::Request> reqs = make_requests(o);

  // Calibrate arrival rates from the pool's own modelled service time: a
  // back-to-back replay (everything at t=0, timing only) gives the
  // saturated makespan S, so "2x overload" = the same work arriving in S/2.
  double service_seconds = 0.0;
  {
    const svc::Trace all_at_once = stamp(reqs, 0.0, 0.0);
    const svc::ServiceReport cal = replay(all_at_once, base_config(false));
    service_seconds = cal.makespan;
  }
  const double n = static_cast<double>(o.count);
  const double gap_uncontended = 2.5 * service_seconds / n;  // ~0.4x load
  const double gap_overload = 0.5 * service_seconds / n;     // 2x load

  // The latency floor: every request served, no deadlines, light load.
  const svc::Trace quiet = stamp(reqs, gap_uncontended, 0.0);
  const svc::ServiceReport uncontended = replay(quiet, base_config(true));

  // Deadlines for the overload runs: comfortably above the uncontended p99
  // (no uncontended request would miss it) but far below what an unbounded
  // queue reaches under 2x overload. The 3x p99 gate then has margin over
  // the deadline itself, absorbing capacity-estimate error at dispatch.
  const double deadline = 2.5 * uncontended.p99_latency;
  const svc::Trace storm = stamp(reqs, gap_overload, deadline);

  const svc::ServiceReport collapse = replay(storm, base_config(true));

  svc::ServiceConfig admit_cfg = base_config(true);
  admit_cfg.admission.enabled = true;
  // The depth watermark is the memory backstop, not the scheduler: size it
  // above one merge window's worth of overload arrivals so the token
  // buckets and deadline feasibility do the fine-grained shedding.
  admit_cfg.admission.max_queue = o.count / 4;
  // Per-tenant buckets sized so the tenants together refill at roughly the
  // measured pool throughput (weights 2 + 1 → 3 weight units): the overload
  // excess is what gets shed. The burst window holds ~4 average requests
  // for a weight-1 tenant, so short spikes ride through.
  double total_flops = 0.0;
  for (const svc::Request& r : reqs) total_flops += r.flops();
  const double measured_gflops = total_flops / service_seconds * 1e-9;
  const double avg_cost = total_flops / n;
  admit_cfg.admission.tenant_rate_gflops = measured_gflops / 3.0;
  admit_cfg.admission.burst_seconds =
      4.0 * avg_cost / (admit_cfg.admission.tenant_rate_gflops * 1e9);

  const svc::ServiceReport admission = replay(storm, admit_cfg);
  // after=1 counts completed chunks within one merged launch; with small
  // launches the GPU finishes one chunk and then dies, so the loss engages
  // on the very first launch instead of never reaching a larger threshold.
  const svc::ServiceReport death = replay(storm, admit_cfg, "die:exec=1,after=1");

  std::printf("%d two-matrix dpotrf requests on %s, 2x overload, deadline %.3f ms:\n",
              o.count, kPool, deadline * 1e3);
  std::printf("  %-18s %10s %9s %6s %8s %8s %10s %12s\n", "mode", "p99 ms", "accepted",
              "shed", "expired", "slo", "goodput", "makespan ms");
  print_row("uncontended", uncontended);
  print_row("overload", collapse);
  print_row("admission", admission);
  print_row("admission+death", death);

  gate::append_json_lines(o.out, {json_line(o, "uncontended", uncontended),
                                  json_line(o, "overload_no_admission", collapse),
                                  json_line(o, "overload_admission", admission),
                                  json_line(o, "overload_admission_death", death)});

  bool ok = true;
  if (admission.p99_latency > 3.0 * uncontended.p99_latency) {
    std::fprintf(stderr,
                 "FAILED: accepted p99 %.4f ms under admission > 3x uncontended %.4f ms\n",
                 admission.p99_latency * 1e3, uncontended.p99_latency * 1e3);
    ok = false;
  }
  if (admission.goodput_gflops() < 1.3 * collapse.goodput_gflops()) {
    std::fprintf(stderr,
                 "FAILED: admission goodput %.3f Gflop/s < 1.3x the queue-everything "
                 "baseline %.3f Gflop/s\n",
                 admission.goodput_gflops(), collapse.goodput_gflops());
    ok = false;
  }
  if (admission.shed + admission.expired == 0) {
    std::fprintf(stderr, "FAILED: 2x overload shed nothing — admission never engaged\n");
    ok = false;
  }
  if (!accepted_factors_match(admission, uncontended)) {
    std::fprintf(stderr, "FAILED: an accepted request's factors differ from the "
                         "uncontended run — admission must only choose, never compute\n");
    ok = false;
  }
  if (!accepted_factors_match(death, uncontended)) {
    std::fprintf(stderr, "FAILED: an accepted request's factors differ under executor "
                         "death\n");
    ok = false;
  }
  if (death.shed + death.expired == 0) {
    std::fprintf(stderr, "FAILED: executor death shed nothing — capacity feedback never "
                         "tightened admission\n");
    ok = false;
  }
  if (death.capacity_gflops >= admission.capacity_gflops) {
    std::fprintf(stderr,
                 "FAILED: capacity estimate %.3f Gflop/s after executor death is not "
                 "below the healthy run's %.3f Gflop/s — the fault never fired\n",
                 death.capacity_gflops, admission.capacity_gflops);
    ok = false;
  }
  if (death.p99_latency > 3.0 * uncontended.p99_latency) {
    std::fprintf(stderr,
                 "FAILED: accepted p99 %.4f ms after executor death > 3x uncontended "
                 "%.4f ms — degradation was not graceful\n",
                 death.p99_latency * 1e3, uncontended.p99_latency * 1e3);
    ok = false;
  }
  std::printf("\n%s\n", ok ? "overload gates passed" : "overload gates FAILED");
  return ok ? 0 : 1;
}
