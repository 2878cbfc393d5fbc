// fig_service_coalesce — what the service front-end buys: request
// coalescing vs one launch per request (docs/service.md).
//
// A burst of single-matrix requests is the worst case for naive serving:
// each matrix alone occupies a sliver of the device, and every launch pays
// the full dispatch overhead. The coalescer turns the same burst into a
// handful of variable-size batched launches. This bench replays one burst
// trace twice on the same pool — max_batch=1 (the one-launch-per-request
// baseline) and coalescing under a latency budget — and reports the
// modelled makespan ratio.
//
// Output: a summary on stdout plus one JSON line per mode appended to
// BENCH_service.json (override with --out). The run FAILS (exit 1) if
// coalescing is not at least 1.5x faster in modelled makespan, or if any
// request's factor bytes differ across the two modes — coalescing must
// change the clock and nothing else. (The Cholesky path is pinned to
// Separated with a fixed blocking so the kernel configuration cannot vary
// with the merged-batch composition; see docs/service.md, "Demux".)
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
  int count = 96;
  int nmax = 32;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_service.json";
};

/// One burst: `count` single-matrix dpotrf requests from two tenants, all
/// arriving at t=0 — the shape a naive server turns into `count` launches.
svc::Trace make_burst(const Options& o) {
  Rng rng(o.seed);
  const auto sizes = make_sizes(SizeDist::Uniform, rng, o.count, o.nmax);
  svc::Trace trace;
  trace.tenants = {{"astro", 2.0}, {"jacobi", 1.0}};
  for (int i = 0; i < o.count; ++i) {
    svc::Request r;
    r.id = static_cast<std::uint64_t>(i + 1);
    r.tenant = (i % 2 == 0) ? "astro" : "jacobi";
    r.sizes = {sizes[static_cast<std::size_t>(i)]};
    trace.requests.push_back(std::move(r));
  }
  return trace;
}

svc::ServiceReport run_mode(const svc::Trace& trace, bool coalesce) {
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  svc::ServiceConfig cfg;
  cfg.mode = sim::ExecMode::Full;  // the bit-identity gate needs real numerics
  cfg.keep_payloads = true;
  // Pin the kernel configuration: under PotrfPath::Auto the path and nb come
  // from the merged batch's max size, so payload bits could legitimately vary
  // with batch composition. Pinned, they cannot.
  cfg.hetero.potrf.path = PotrfPath::Separated;
  cfg.hetero.potrf.separated_nb = 16;
  if (coalesce) {
    cfg.coalesce.latency_budget = 1e-3;
  } else {
    cfg.coalesce.latency_budget = 0.0;  // flush immediately...
    cfg.coalesce.max_batch = 1;         // ...one matrix (= one request) per launch
  }
  return svc::replay_trace(pool, trace, cfg);
}

gate::JsonLine json_line(const Options& o, const char* mode, const svc::ServiceReport& r,
                         double speedup) {
  return {{"bench", "service_coalesce"}, {"mode", mode}, {"count", o.count},
          {"nmax", o.nmax}, {"precision", "d"}, {"makespan_seconds", r.makespan},
          {"batches", r.batches}, {"coalescing_ratio", r.coalescing_ratio},
          {"gflops", r.gflops()}, {"p99_latency", r.p99_latency},
          {"speedup_vs_per_request", speedup}};
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  gate::Flags(argv[0])
      .num("--count", o.count, 2)
      .num("--nmax", o.nmax, 1)
      .num("--seed", o.seed, 0)
      .text("--out", o.out)
      .parse(argc, argv);
  const svc::Trace trace = make_burst(o);

  std::printf("burst of %d single-matrix dpotrf requests, sizes in [1, %d], k40c:\n",
              o.count, o.nmax);
  std::printf("  %-16s %12s %8s %10s %12s %8s\n", "mode", "makespan ms", "batches",
              "coalesce", "p99 ms", "speedup");

  const svc::ServiceReport base = run_mode(trace, false);
  const svc::ServiceReport merged = run_mode(trace, true);
  const double speedup = merged.makespan > 0.0 ? base.makespan / merged.makespan : 0.0;

  std::printf("  %-16s %12.4f %8d %9.2fx %12.4f %7.2fx\n", "per-request", base.makespan * 1e3,
              base.batches, base.coalescing_ratio, base.p99_latency * 1e3, 1.0);
  std::printf("  %-16s %12.4f %8d %9.2fx %12.4f %7.2fx\n", "coalesced", merged.makespan * 1e3,
              merged.batches, merged.coalescing_ratio, merged.p99_latency * 1e3, speedup);
  gate::append_json_lines(o.out, {json_line(o, "per_request", base, 1.0),
                                  json_line(o, "coalesced", merged, speedup)});

  bool ok = true;
  if (!gate::same_outcomes(base, merged, [](const svc::RequestOutcome&) { return true; })) {
    std::fprintf(stderr, "FAILED: coalescing changed some request's factors or info — "
                         "merging must only change the clock\n");
    ok = false;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr, "FAILED: coalesced throughput %.2fx < 1.5x over one launch per "
                         "request\n", speedup);
    ok = false;
  }
  if (merged.batches >= base.batches) {
    std::fprintf(stderr, "FAILED: coalescing did not reduce the launch count (%d vs %d)\n",
                 merged.batches, base.batches);
    ok = false;
  }
  std::printf("\n%s\n", ok ? "coalescing gates passed" : "coalescing gates FAILED");
  return ok ? 0 : 1;
}
