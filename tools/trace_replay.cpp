// trace_replay — generate and replay vbatch service traces.
//
// Two modes:
//   * --gen: write a synthetic request trace (deterministic exponential
//     arrivals over N tenants, sizes from the paper's distributions) to
//     stdout — redirect into a file and feed it back to --replay or
//     `vbatch_cli --serve --trace`.
//   * --replay FILE: run the trace through the virtual-time service loop on
//     a chosen pool and print the full ServiceReport. With --check, replay
//     twice and verify bit-identical reports (the determinism contract).
//
// `trace_replay --help` prints the flag list. --burst F makes the middle
// third of the generated trace arrive F times faster (an overload wave);
// --deadline-frac F tags that fraction of the requests with a deadline of
// --deadline seconds (default 5 ms). On the replay side --max-queue and
// --tenant-rate enable admission control, the same knobs as
// `vbatch_cli --serve` (docs/service.md, "Overload & admission"). A
// malformed value or a missing mode prints the usage line and exits 2.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "vbatch/service/service.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flags.hpp"

int main(int argc, char** argv) {
  using namespace vbatch;
  namespace svc = vbatch::service;

  bool gen = false;
  bool check = false;
  bool full = false;
  std::string replay_file;
  std::string pool_desc = "k40c";
  double max_footprint_gb = 0.0;
  svc::TraceGenConfig gen_cfg;
  svc::ServiceConfig cfg;
  util::Flags flags(argv[0]);
  flags.toggle("--gen", gen)
      .num("--count", gen_cfg.count, 1)
      .num("--tenants", gen_cfg.tenants, 1)
      .num("--rate", gen_cfg.rate, 0.0)
      .num("--nmax", gen_cfg.nmax, 1)
      .num("--max-matrices", gen_cfg.max_matrices, 1)
      .toggle("--mix-ops", gen_cfg.mix_ops)
      .toggle("--mix-precisions", gen_cfg.mix_precisions)
      .num("--seed", gen_cfg.seed, 0)
      .num("--burst", gen_cfg.burst, 0.0)
      .num("--deadline-frac", gen_cfg.deadline_frac, 0.0)
      .num("--deadline", gen_cfg.deadline_seconds, 0.0)
      .text("--replay", replay_file)
      .text("--pool", pool_desc, "DESC")
      .num("--latency-budget", cfg.coalesce.latency_budget, 0.0)
      .num("--max-batch", cfg.coalesce.max_batch, 0)
      .num("--max-footprint-gb", max_footprint_gb, 0.0)
      .toggle("--full", full)
      .toggle("--check", check)
      .num("--max-queue", cfg.admission.max_queue, 0)
      .num("--tenant-rate", cfg.admission.tenant_rate_gflops, 0.0)
      .parse(argc, argv);
  if (gen == !replay_file.empty()) flags.usage(2);  // exactly one mode
  cfg.coalesce.max_bytes = max_footprint_gb * 1024.0 * 1024.0 * 1024.0;
  if (full) cfg.mode = sim::ExecMode::Full;
  cfg.admission.enabled = cfg.admission.max_queue > 0 || cfg.admission.tenant_rate_gflops > 0.0;

  try {
    if (gen) {
      std::cout << svc::format_trace(svc::make_trace(gen_cfg));
      return 0;
    }

    const svc::Trace trace = svc::load_trace(replay_file);
    hetero::DevicePool pool = hetero::DevicePool::parse(pool_desc);
    std::printf("replay:   %d requests on %s\n", trace.count(), pool.describe().c_str());
    const svc::ServiceReport report = svc::replay_trace(pool, trace, cfg);
    report.print(std::cout);

    if (check) {
      // The determinism contract: a second replay of the same (trace,
      // config, pool) must reproduce the report bit for bit.
      hetero::DevicePool pool2 = hetero::DevicePool::parse(pool_desc);
      const svc::ServiceReport again = svc::replay_trace(pool2, trace, cfg);
      const bool same =
          report.requests == again.requests && report.batches == again.batches &&
          report.shed == again.shed && report.expired == again.expired &&
          std::memcmp(&report.goodput_flops, &again.goodput_flops, sizeof(double)) == 0 &&
          std::memcmp(&report.makespan, &again.makespan, sizeof(double)) == 0 &&
          std::memcmp(&report.flops, &again.flops, sizeof(double)) == 0 &&
          std::memcmp(&report.joules, &again.joules, sizeof(double)) == 0 &&
          std::memcmp(&report.p99_latency, &again.p99_latency, sizeof(double)) == 0;
      std::printf("determinism check: %s\n", same ? "PASS (bit-identical replay)" : "FAIL");
      if (!same) return 1;
    }
    return 0;
  } catch (const Error& err) {
    std::fprintf(stderr, "trace_replay: %s\n", err.what());
    return 2;
  }
}
