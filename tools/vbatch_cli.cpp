// vbatch_cli — command-line driver for the vbatched library.
//
// Runs a vbatched Cholesky workload on the simulated device and reports
// performance, an nvprof-style kernel profile, energy to solution, and
// (optionally) the autotuner's sweep. Useful for exploring configurations
// without writing code.
//
// `vbatch_cli --help` prints the flag list; docs/api.md ("Environment and
// CLI knobs", "Command line") describes every flag. Number values follow the
// strict text-input grammar (docs/api.md, "Text inputs"): a malformed or
// out-of-range value prints the usage line and exits 2.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/isa.hpp"
#include "vbatch/core/autotune.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/cpu/cpu_batched.hpp"
#include "vbatch/energy/energy_meter.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/service/service.hpp"
#include "vbatch/sim/profile.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flags.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

struct CliOptions {
  int batch = 1000;
  int nmax = 256;
  vbatch::SizeDist dist = vbatch::SizeDist::Uniform;
  bool double_precision = true;
  std::string device = "k40c";
  std::string hetero;  ///< non-empty = heterogeneous pool description
  std::string inject_faults;  ///< non-empty = fault spec for the hetero pool
  int streams = 0;  ///< >0 = override stream slots on every pool executor
  double arena_gb = 0.0;  ///< >0 = staging-arena budget for every pool GPU
  vbatch::PotrfOptions potrf;
  bool tune = false;
  bool profile = false;
  bool energy = false;
  bool verify = false;
  int threads = 0;  // 0 = default (VBATCH_NUM_THREADS or hardware)
  std::uint64_t seed = 2016;
  // --- service mode (--serve) ---
  bool serve = false;
  std::string trace_file;       ///< request trace to replay (required by --serve)
  double latency_budget = 1e-3; ///< coalescing budget, seconds
  int max_batch = 0;            ///< matrices per merged launch (0 = unbounded)
  double max_footprint_gb = 0.0;  ///< payload cap per launch, GiB (0 = unbounded)
  std::vector<std::pair<std::string, double>> tenants;  ///< fairness weight overrides
  int max_queue = 0;            ///< >0 = admission queue-depth watermark
  double tenant_rate = 0.0;     ///< >0 = per-tenant token-bucket Gflop/s
};

CliOptions parse(int argc, char** argv) {
  using vbatch::EtmMode;
  using vbatch::PotrfPath;
  using vbatch::SizeDist;
  CliOptions o;
  vbatch::util::Flags(argv[0])
      .num("--batch", o.batch, 1)
      .num("--nmax", o.nmax, 1)
      .choice("--dist", o.dist,
              {{"uniform", SizeDist::Uniform},
               {"gaussian", SizeDist::Gaussian},
               {"skewed", SizeDist::Skewed},
               {"cluster", SizeDist::Cluster}})
      .choice("--precision", o.double_precision, {{"s", false}, {"d", true}})
      .choice("--device", o.device, {{"k40c", "k40c"}, {"p100", "p100"}})
      .text("--hetero", o.hetero, "cpu,k40c:4streams:2gb,...")
      .text("--inject-faults", o.inject_faults, "SPEC")
      .num("--streams", o.streams, 0)
      .num("--arena-gb", o.arena_gb, 0.0)
      .choice("--path", o.potrf.path,
              {{"auto", PotrfPath::Auto},
               {"fused", PotrfPath::Fused},
               {"separated", PotrfPath::Separated}})
      .choice("--etm", o.potrf.etm,
              {{"classic", EtmMode::Classic}, {"aggressive", EtmMode::Aggressive}})
      .toggle("--no-sort", o.potrf.implicit_sorting, false)
      .toggle("--tune", o.tune)
      .custom("--isa", "scalar|sse2|neon|avx2|avx512",
              [](std::string_view v) {
                const auto isa = vbatch::blas::micro::parse_isa(v);
                if (!isa) return false;
                const auto got = vbatch::blas::micro::set_isa(*isa);
                if (got != *isa)
                  std::fprintf(stderr, "note: --isa %s not supported on this host, using %s\n",
                               to_string(*isa), to_string(got));
                return true;
              })
      .toggle("--profile", o.profile)
      .toggle("--energy", o.energy)
      .toggle("--verify", o.verify)
      .num("--threads", o.threads, 0)
      .num("--seed", o.seed, 0)
      .toggle("--serve", o.serve)
      .text("--trace", o.trace_file)
      .num("--latency-budget", o.latency_budget, 0.0)
      .num("--max-batch", o.max_batch, 0)
      .num("--max-footprint-gb", o.max_footprint_gb, 0.0)
      .custom("--tenants", "name=w,...",
              [&o](std::string_view list) {
                // Weights must be positive (zero would starve the tenant);
                // a tenant may appear once.
                o.tenants.clear();
                for (const std::string_view item : vbatch::util::split(list, ',')) {
                  const auto kv = vbatch::util::split_kv(item);
                  const auto w = kv ? vbatch::util::try_parse_number<double>(kv->second)
                                    : std::nullopt;
                  if (!w || !(*w > 0.0)) return false;
                  for (const auto& [name, weight] : o.tenants)
                    if (name == kv->first) return false;
                  o.tenants.emplace_back(kv->first, *w);
                }
                return true;
              })
      .num("--max-queue", o.max_queue, 0)
      .num("--tenant-rate", o.tenant_rate, 0.0)
      .parse(argc, argv);
  if (!o.inject_faults.empty() && o.hetero.empty()) {
    std::fprintf(stderr, "--inject-faults requires --hetero (faults target the pool)\n");
    std::exit(2);
  }
  if (o.streams > 0 && o.hetero.empty()) {
    std::fprintf(stderr, "--streams requires --hetero (streams belong to pool executors)\n");
    std::exit(2);
  }
  if (o.arena_gb != 0.0 && o.hetero.empty()) {
    std::fprintf(stderr, "--arena-gb requires --hetero (the arena belongs to pool GPUs)\n");
    std::exit(2);
  }
  if (o.serve && o.trace_file.empty()) {
    std::fprintf(stderr, "--serve requires --trace FILE (the request script to replay)\n");
    std::exit(2);
  }
  if (!o.serve && (!o.trace_file.empty() || !o.tenants.empty() || o.max_batch != 0 ||
                   o.max_footprint_gb != 0.0 || o.latency_budget != 1e-3 ||
                   o.max_queue != 0 || o.tenant_rate != 0.0)) {
    std::fprintf(stderr,
                 "--trace/--latency-budget/--max-batch/--max-footprint-gb/--tenants/"
                 "--max-queue/--tenant-rate require --serve\n");
    std::exit(2);
  }
  return o;
}

/// The --serve / --hetero pool: parses `desc`, then applies --streams,
/// --arena-gb and --inject-faults. Any failure — a malformed
/// VBATCH_ARENA_GB / VBATCH_INJECT_FAULTS included, since the pool reads
/// both when it is built — prints a named message and yields nullopt.
std::optional<vbatch::hetero::DevicePool> build_pool(const CliOptions& o, const char* label,
                                                     const std::string& desc) {
  using namespace vbatch;
  std::string what = std::string(label) + " " + desc;
  try {
    hetero::DevicePool pool = hetero::DevicePool::parse(desc);
    for (int e = 0; e < pool.size(); ++e) {
      if (o.streams > 0) pool.executor(e).set_streams(o.streams);
      if (o.arena_gb > 0.0 && pool.executor(e).is_gpu()) pool.executor(e).set_arena_gb(o.arena_gb);
    }
    if (!o.inject_faults.empty()) {
      what = "--inject-faults " + o.inject_faults;
      pool.set_faults(fault::parse_fault_spec(o.inject_faults));
      std::printf("faults:   %s\n", pool.faults().describe().c_str());
    }
    return pool;
  } catch (const Error& err) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(), err.what());
    return std::nullopt;
  }
}

/// --serve: replay the scripted trace through the service front-end on the
/// virtual-time clock and print the ServiceReport.
int run_serve(const CliOptions& o) {
  using namespace vbatch;
  namespace svc = vbatch::service;

  svc::Trace trace;
  try {
    trace = svc::load_trace(o.trace_file);
  } catch (const Error& err) {
    std::fprintf(stderr, "--trace %s: %s\n", o.trace_file.c_str(), err.what());
    return 2;
  }

  std::optional<hetero::DevicePool> built =
      build_pool(o, "pool", o.hetero.empty() ? o.device : o.hetero);
  if (!built) return 2;
  hetero::DevicePool& pool = *built;

  svc::ServiceConfig cfg;
  cfg.coalesce.latency_budget = o.latency_budget;
  cfg.coalesce.max_batch = o.max_batch;
  cfg.coalesce.max_bytes = o.max_footprint_gb * 1024.0 * 1024.0 * 1024.0;
  cfg.hetero.potrf = o.potrf;
  cfg.mode = o.verify ? sim::ExecMode::Full : sim::ExecMode::TimingOnly;
  if (o.max_queue > 0 || o.tenant_rate > 0.0) {
    cfg.admission.enabled = true;
    cfg.admission.max_queue = o.max_queue;
    cfg.admission.tenant_rate_gflops = o.tenant_rate;
  }
  cfg.tenant_weights = o.tenants;

  std::printf("serve:    %d requests from %s on pool %s (%s mode)\n", trace.count(),
              o.trace_file.c_str(), pool.describe().c_str(),
              o.verify ? "Full numerics" : "TimingOnly");
  std::printf("coalesce: budget %g s, max-batch %s, max-footprint %s\n", o.latency_budget,
              o.max_batch > 0 ? std::to_string(o.max_batch).c_str() : "unbounded",
              o.max_footprint_gb > 0.0 ? (std::to_string(o.max_footprint_gb) + " GiB").c_str()
                                       : "unbounded");
  if (cfg.admission.enabled)
    std::printf("admit:    max-queue %s, tenant-rate %s\n",
                o.max_queue > 0 ? std::to_string(o.max_queue).c_str() : "unbounded",
                o.tenant_rate > 0.0 ? (std::to_string(o.tenant_rate) + " Gflop/s").c_str()
                                    : "unlimited");
  svc::ServiceReport report;
  try {
    report = svc::replay_trace(pool, trace, cfg);
  } catch (const Error& err) {
    std::fprintf(stderr, "serve: %s\n", err.what());
    return 2;
  }
  report.print(std::cout);
  if (report.failed > 0 || report.poisoned > 0)
    std::printf("note: %d failed, %d poisoned request(s) — see the info arrays\n",
                report.failed, report.poisoned);
  return 0;
}

template <typename T>
int run(const CliOptions& o) {
  using namespace vbatch;
  Rng rng(o.seed);
  const auto sizes = make_sizes(o.dist, rng, o.batch, o.nmax);
  const auto stats = size_stats(sizes);
  std::printf("workload: %d matrices, %s sizes in [%d, %d], mean %.1f\n", o.batch,
              to_string(o.dist), stats.min, stats.max, stats.mean);

  // --device selects the simulated GPU *and* the matching power model, so
  // --energy compares like with like on either architecture.
  const bool p100 = o.device == "p100";
  const sim::DeviceSpec spec = p100 ? sim::DeviceSpec::p100() : sim::DeviceSpec::k40c();
  const energy::PowerModel gpu_power =
      p100 ? energy::PowerModel::p100() : energy::PowerModel::k40c();

  Queue q(spec, o.verify ? sim::ExecMode::Full : sim::ExecMode::TimingOnly);
  std::printf("device:   %s (%s mode)\n", q.spec().name.c_str(),
              o.verify ? "Full numerics" : "TimingOnly");

  PotrfOptions opts = o.potrf;
  if (o.tune) {
    // Host BLAS first: load the persisted per-(host, ISA) profile when one
    // exists, otherwise sweep the cache-derived candidates and save it.
    BlasTuneSettings bts;
    bts.verbose = true;
    const BlasTuneResult bt = ensure_blas_tuned(bts);
    std::printf("blas tune: isa=%s, profile %s (%s)\n",
                to_string(blas::micro::active_isa()),
                bt.loaded_from_cache ? "loaded from cache, sweep skipped"
                                     : "swept and saved",
                bt.cache_path.c_str());
    const auto tuned = autotune_potrf<T>(q, sizes);
    std::printf("autotune: %zu candidates\n", tuned.candidates.size());
    for (const auto& c : tuned.candidates) std::printf("  %s\n", c.describe().c_str());
    opts = tuned.best;
    std::printf("selected: %.1f Gflop/s configuration\n", tuned.best_gflops);
  }

  Batch<T> batch(q, sizes);
  std::vector<std::vector<T>> originals;
  if (o.verify) {
    batch.fill_spd(rng);
    for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));
  }

  std::optional<hetero::DevicePool> pool;
  if (!o.hetero.empty()) {
    pool = build_pool(o, "--hetero", o.hetero);
    if (!pool) return 2;
    std::printf("pool:     %s\n", pool->describe().c_str());
    hetero::HeteroOptions hopts;
    hopts.potrf = opts;
    const auto hr = hetero::potrf_vbatched_hetero<T>(*pool, Uplo::Lower, batch, hopts);
    std::printf(
        "potrf_vbatched_hetero: path=%s  %.3f Gflop  %.3f ms  ->  %.1f Gflop/s"
        "  (%d chunks, %d stolen)\n",
        to_string(hr.path_taken), hr.flops * 1e-9, hr.seconds * 1e3, hr.gflops(), hr.chunks,
        hr.steals);
    for (const auto& ex : hr.executors) {
      std::printf("  %-10s %4d matrices  %2d chunks (%d stolen)  busy %8.3f ms  %7.1f Gflop/s"
                  "%s%s",
                  ex.name.c_str(), ex.matrices, ex.chunks, ex.stolen, ex.busy_seconds * 1e3,
                  ex.busy_seconds > 0.0 ? ex.flops / ex.busy_seconds * 1e-9 : 0.0,
                  ex.retries > 0 ? "  [retries]" : "", ex.lost ? "  [LOST]" : "");
      if (ex.streams > 1)
        std::printf("  [%d streams, %.2fx overlap]", ex.streams, ex.overlap);
      if (ex.streamed) {
        // Staging traffic and how much of it the double buffering hid: the
        // pipeline ratio is (compute + copies) / wall span of the pipeline.
        const double moved = ex.busy_seconds + ex.h2d_seconds + ex.d2h_seconds;
        std::printf("  [h2d %.1f MB, d2h %.1f MB, pipeline %.2fx]", ex.h2d_bytes / 1e6,
                    ex.d2h_bytes / 1e6,
                    ex.pipeline_seconds > 0.0 ? moved / ex.pipeline_seconds : 1.0);
      }
      std::printf("\n");
    }
    if (hr.h2d_bytes > 0.0)
      std::printf("staging:  %.1f MB h2d + %.1f MB d2h streamed out-of-core\n",
                  hr.h2d_bytes / 1e6, hr.d2h_bytes / 1e6);
    if (hr.retries > 0 || hr.executors_lost > 0 || hr.chunks_poisoned > 0)
      std::printf("recovery: %d retries (%.3f ms backoff), %d hangs, %d executors lost, "
                  "%d chunks poisoned\n",
                  hr.retries, hr.backoff_seconds * 1e3, hr.hangs, hr.executors_lost,
                  hr.chunks_poisoned);
    if (o.energy)
      std::printf("pool energy: %.2f J over %.3f ms (%.1f W avg)\n", hr.energy.joules,
                  hr.energy.seconds * 1e3, hr.energy.avg_watts());
  } else {
    const PotrfResult r = potrf_vbatched<T>(q, Uplo::Lower, batch, opts);
    std::printf("potrf_vbatched: path=%s  %.3f Gflop  %.3f ms  ->  %.1f Gflop/s\n",
                to_string(r.path_taken), r.flops * 1e-9, r.seconds * 1e3, r.gflops());
  }

  if (o.verify) {
    double worst = 0.0;
    for (int i = 0; i < batch.count(); ++i) {
      if (batch.info()[static_cast<std::size_t>(i)] != 0) {
        std::printf("FAILED: matrix %d info=%d\n", i, batch.info()[static_cast<std::size_t>(i)]);
        return 1;
      }
      const int n = sizes[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      ConstMatrixView<T> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
      worst = std::max(worst, blas::potrf_residual<T>(Uplo::Lower, orig, batch.matrix(i)));
    }
    std::printf("verify:   worst residual %.2e\n", worst);
  }

  if (o.profile) {
    if (!o.hetero.empty()) {
      // A pool executor's timeline holds its latest call: here, the run's only one.
      for (int e = 0; e < pool->size(); ++e) {
        if (!pool->executor(e).is_gpu()) continue;
        std::printf("\nkernel profile (%s):\n", pool->executor(e).name().c_str());
        sim::print_profile(
            std::cout, sim::profile_timeline(pool->executor(e).queue().device().timeline()));
      }
    } else {
      std::printf("\nkernel profile:\n");
      sim::print_profile(std::cout, sim::profile_timeline(q.device().timeline()));
    }
  }

  if (o.energy && o.hetero.empty()) {
    const auto gpu_e = energy::gpu_run_energy(q.spec(), gpu_power,
                                              energy::PowerModel::dual_e5_2670(),
                                              q.device().timeline(), precision_v<T>);
    const auto cpu_spec = cpu::CpuSpec::dual_e5_2670();
    std::vector<int> lda(sizes.begin(), sizes.end());
    std::vector<int> info(sizes.size(), 0);
    std::vector<T*> null_ptrs(sizes.size(), nullptr);
    const auto cpu_r = cpu::potrf_batched_per_core<T>(cpu_spec, cpu::Schedule::Dynamic,
                                                      Uplo::Lower, sizes, null_ptrs.data(), lda,
                                                      info, false);
    const auto cpu_e = energy::cpu_run_energy(energy::PowerModel::dual_e5_2670(),
                                              energy::PowerModel::k40c(), cpu_r.seconds,
                                              cpu_r.gflops(),
                                              cpu_spec.total_peak_gflops(precision_v<T>));
    std::printf("\nenergy to solution: GPU %.2f J (%.1f W avg)  vs  best CPU %.2f J  ->  %.2fx\n",
                gpu_e.joules, gpu_e.avg_watts(), cpu_e.joules, cpu_e.joules / gpu_e.joules);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);
  if (o.threads > 0) vbatch::util::set_host_threads(static_cast<unsigned>(o.threads));
  if (o.serve) return run_serve(o);
  return o.double_precision ? run<double>(o) : run<float>(o);
}
