// vbatch_bench — end-to-end benchmark of the vbatch stack on two clocks.
//
// One process runs one workload (README.md in this directory gives the
// reasons for each):
//   paper_batch   closed loop, hetero potrf on cpu,k40c,p100 (the Fig. 9 batch)
//   tiny_batch    closed loop, single-device fused potrf, n in [1, 32]
//   replay_storm  repeated virtual-time replay of an overload trace
//   serve_low     live wall-clock Service, open-loop Poisson at 2000 req/s
//   serve_high    the same at 12000 req/s
//
// Every workload reports the same end-to-end metrics. A --trace run reports
// the same per-layer metrics on every workload instead: it records spans
// around the library calls it makes, re-executes the workload's launches
// layer by layer (hetero call, planning, single-device Full and TimingOnly
// runs, the host BLAS floor), and writes the spans as Chrome trace-event
// JSON. Inputs come from --seed only; nothing is autotuned.
//
// Usage:
//   vbatch_bench --workload NAME [--seed N] [--seconds S] [--trace FILE]
//                [--out FILE] [--commit SHA] [--smoke]
// Exit status: 0 = every check passed, 1 = a correctness check failed,
// 2 = bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "launch.hpp"
#include "vbatch/blas/isa.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/util/flops.hpp"

namespace {

using namespace e2e;

struct Args {
  std::string workload;
  std::uint64_t seed = 2016;
  double seconds = 10.0;
  std::string trace;  ///< Chrome trace path; non-empty = the traced run
  std::string out;
  std::string commit = "unknown";
  bool smoke = false;  ///< small inputs, same code paths and checks
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_batch|tiny_batch|replay_storm|serve_low|serve_high\n"
               "          [--seed N] [--seconds S] [--trace FILE] [--out FILE] [--commit SHA]\n"
               "          [--smoke]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") a.workload = next();
    else if (arg == "--seed") a.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(next());
    else if (arg == "--trace") a.trace = next();
    else if (arg == "--out") a.out = next();
    else if (arg == "--commit") a.commit = next();
    else if (arg == "--smoke") a.smoke = true;
    else usage(argv[0]);
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) usage(argv[0]);
  if (a.smoke) a.seconds = std::min(a.seconds, 1.0);
  return a;
}

constexpr const char* kPool = "cpu,k40c,p100";
/// Live-service p99 limit for the ladder's highest passing rung. In four
/// calibration runs the rungs up to 32k req/s read 1.5–5.8 ms and the 64k
/// rung 9.8–22 ms, so no rung sat within 25% of the limit.
constexpr double kLiveLimitMs = 7.3;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Pins the host worker pool, never above the machine's cores.
void pin_threads(unsigned wanted) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  util::set_host_threads(std::min(wanted, hw));
}

/// Rotates the calling thread over the CPUs the process may use, one per
/// timed unit of a closed loop. On a shared machine one core can run 50%
/// slower than its siblings for tens of seconds. A run parked on one core
/// measures that core, and a parallel section across several cores ends
/// with the slowest of them. So the closed loops run the host engine on
/// one thread (a pool of 1 runs every parallel_for inline), and each unit
/// lands on the next CPU: the fastest decile then samples every core.
/// Measured on a 4-vCPU VM, this cut the run-to-run range of tiny_batch's
/// host Gflop/s from 15% (3 workers, unpinned) to 3%.
class CpuRotation {
 public:
  CpuRotation() {
#ifdef __linux__
    if (sched_getaffinity(0, sizeof full_, &full_) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &full_)) cpus_.push_back(c);
#endif
  }
  ~CpuRotation() { stop(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
#ifdef __linux__
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
#endif
  }

  /// Gives the calling thread its full CPU mask back.
  void stop() {
#ifdef __linux__
    if (!cpus_.empty()) sched_setaffinity(0, sizeof full_, &full_);
#endif
  }

 private:
#ifdef __linux__
  cpu_set_t full_{};
#endif
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// The Fig. 9 size distribution — N(⌊nmax/2⌋, (nmax/6)²) clamped to
/// [1, nmax] — sampled by strata: draw i comes from the i-th of `count`
/// equal-probability slices, the largest draw is raised to nmax (the batch
/// maximum the figure's axis names, which pins the blocking and hence the
/// hetero plan), and the order is shuffled. Every seed then carries nearly
/// the same work, so runs with different seeds are comparable, while the
/// sizes and their order still vary with the seed.
std::vector<int> stratified_gaussian_sizes(Rng& rng, int count, int nmax) {
  const auto quantile = [](double u) {  // standard normal, by bisection
    double lo = -10.0, hi = 10.0;
    for (int it = 0; it < 64; ++it) {
      const double mid = 0.5 * (lo + hi);
      (0.5 * std::erfc(-mid / std::sqrt(2.0)) < u ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  };
  const double mean = std::floor(nmax / 2.0), sd = nmax / 6.0;
  std::vector<int> sizes(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double z = quantile((i + rng.uniform()) / count);
    sizes[static_cast<std::size_t>(i)] =
        std::clamp(static_cast<int>(std::lround(mean + sd * z)), 1, nmax);
  }
  *std::max_element(sizes.begin(), sizes.end()) = nmax;
  for (int i = count - 1; i > 0; --i)
    std::swap(sizes[static_cast<std::size_t>(i)],
              sizes[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  return sizes;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Blocked NN double gemm, best of 5 timings of enough calls for ~2 ms.
double gemm_gflops(int n) {
  std::vector<double> a(static_cast<std::size_t>(n) * n), b(a.size()), c(a.size());
  Rng rng(static_cast<std::uint64_t>(n));
  fill_general(rng, a.data(), n, n, n);
  fill_general(rng, b.data(), n, n, n);
  const ConstMatrixView<double> av(a.data(), n, n, n), bv(b.data(), n, n, n);
  const MatrixView<double> cv(c.data(), n, n, n);
  const double f = flops::gemm(n, n, n);
  const int reps = std::max(1, static_cast<int>(4e6 / f));
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 6; ++k) {  // the first timing warms the pack buffers
    const double t0 = now_s();
    for (int r = 0; r < reps; ++r)
      blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av, bv, 0.0, cv);
    if (k > 0) best = std::min(best, (now_s() - t0) / reps);
  }
  return f / best * 1e-9;
}

struct Run {
  Args args;
  Results res;
  Tracer tracer;
  [[nodiscard]] bool traced() const { return !args.trace.empty(); }
};

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> setups;  ///< seconds per set-up
  double host_gflops = 0.0;
  /// Seconds per unit a user waits for: a call, a replayed request (on the
  /// modelled clock — replayed requests exist only there), a live request.
  std::vector<double> latencies;
  const char* latency_clock = "wall";
  double latency = 0.0;  ///< the reported figure from `latencies`
  double model_gflops = 0.0;
};

/// A closed loop's figures come from its fastest decile of units: the cost
/// of the code on a quiet core. On a shared machine other tenants only ever
/// add time — up to 50% for minutes at a time on the VM this was built on.
void closed_loop(EndToEnd& e, const std::vector<double>& walls, double flops_per_unit) {
  e.latencies = walls;
  e.latency = percentile(walls, 10.0);
  e.host_gflops = flops_per_unit / e.latency * 1e-9;
}

void emit_end_to_end(Run& r, const EndToEnd& e) {
  r.res.add("setup_s", median(e.setups), "s", "wall", "bench");
  r.res.add("peak_rss_mb", peak_rss_mb(), "MB", "count", "bench");
  r.res.add("host_gflops", e.host_gflops, "Gflop/s", "wall", "bench");
  r.res.add("latency_ms", e.latency * 1e3, "ms", e.latency_clock, "bench");
  r.res.add("model_gflops", e.model_gflops, "Gflop/s", "modelled", "bench");
  r.res.add("latency_p50_ms", percentile(e.latencies, 50.0) * 1e3, "ms", e.latency_clock, "bench");
  r.res.add("latency_p90_ms", percentile(e.latencies, 90.0) * 1e3, "ms", e.latency_clock, "bench");
}

/// Inputs of the per-layer metrics every traced run reports. Host times
/// come from the tracer's span totals; `scale` turns sums over the
/// decomposed launches into "per unit" (one call, one replay, or one
/// second of live serving) and `unit_wall` is the wall time of that sample.
struct Layers {
  double unit_wall = 0.0;
  double scale = 1.0;
  double hetero_s = 0.0;  ///< wall inside hetero calls over the sample
  bool service = false;
  double overhead_pct = 0.0;
  double launches = 0.0;  // service counters, per unit
  double reqs_per_launch = 0.0;
  double flush_budget_frac = 0.0;
  double flush_count_cap_frac = 0.0;
  double accepted_frac = 1.0;
  double shed = 0.0;
  double expired = 0.0;
  double slo_attainment = 1.0;
  double queue_wait_share = 0.0;
  double queue_depth_peak = 0.0;
  double dispatcher_busy_frac = 0.0;
  double live_max_rps = 0.0;
  double energy_flops = 0.0;
  double energy_joules = 0.0;
  Split split;
};

void emit_layers(Run& r, const Layers& l) {
  Results& m = r.res;
  const Tracer& t = r.tracer;
  const double fill = t.total("service.fill");
  const double potrs = t.total("core.potrs_vbatched");
  const double plan = t.total("hetero.plan");
  const double core = t.total("core.potrf_vbatched_max");
  const double sim = t.total("sim.timing");
  const double blas_s = t.total("blas.potrf");
  const double wall = l.unit_wall > 0.0 ? l.unit_wall : 1.0;
  const Split& s = l.split;

  m.add("trace.overhead_pct", l.overhead_pct, "%", "wall", "trace");
  m.add("service.launches", l.launches, "count", "count", "service");
  m.add("service.reqs_per_launch", l.reqs_per_launch, "count", "count", "service");
  m.add("service.flush.budget", l.flush_budget_frac, "ratio", "count", "service");
  m.add("service.flush.count_cap", l.flush_count_cap_frac, "ratio", "count", "service");
  m.add("service.accepted_frac", l.accepted_frac, "ratio", "count", "service");
  m.add("service.shed", l.shed, "count", "count", "service");
  m.add("service.expired", l.expired, "count", "count", "service");
  m.add("service.slo_attainment", l.slo_attainment, "ratio", "count", "service");
  m.add("service.queue_wait_share", l.queue_wait_share, "ratio",
        r.args.workload == "replay_storm" ? "modelled" : "wall", "service");
  m.add("service.queue_depth.peak", l.queue_depth_peak, "count", "count", "service");
  m.add("service.dispatcher_busy_frac", l.dispatcher_busy_frac, "ratio",
        r.args.workload == "replay_storm" ? "modelled" : "wall", "service");
  m.add("service.fill_share", l.service ? fill / wall : 0.0, "ratio", "wall", "service");
  m.add("service.self_share",
        l.service ? std::max(0.0, wall - fill - l.hetero_s - potrs) / wall : 0.0, "ratio",
        "wall", "service");
  m.add("service.live_max_rps", l.live_max_rps, "req/s", "wall", "service");
  m.add("hetero.call_share", l.hetero_s / wall, "ratio", "wall", "hetero");
  m.add("hetero.plan_share", plan / wall, "ratio", "wall", "hetero");
  m.add("hetero.estimate_calls", static_cast<double>(s.estimate_calls) * l.scale, "count",
        "count", "hetero");
  m.add("hetero.chunks", static_cast<double>(s.chunks) * l.scale, "count", "count", "hetero");
  m.add("hetero.steals", static_cast<double>(s.steals) * l.scale, "count", "count", "hetero");
  m.add("hetero.idle_frac", s.capacity > 0.0 ? 1.0 - s.busy / s.capacity : 0.0, "ratio",
        "modelled", "hetero");
  m.add("core.exec_ms", core * l.scale * 1e3, "ms", "wall", "core");
  m.add("sim.timing_ms", sim * l.scale * 1e3, "ms", "wall", "sim");
  m.add("kernels.numerics_ms", (core - sim) * l.scale * 1e3, "ms", "wall", "kernels");
  m.add("kernels.launches", static_cast<double>(s.kernel_launches) * l.scale, "count", "count",
        "kernels");
  m.add("kernels.early_exits", static_cast<double>(s.early_exits) * l.scale, "count", "count",
        "kernels");
  m.add("kernels.model_flop_per_byte", s.kernel_bytes > 0.0 ? s.kernel_flops / s.kernel_bytes : 0.0,
        "flop/B", "modelled", "kernels");
  m.add("blas.potrf_ms", blas_s * l.scale * 1e3, "ms", "wall", "blas");
  m.add("blas.numerics_eff", core > sim ? blas_s / (core - sim) : 0.0, "ratio", "wall", "blas");
  for (int n : {8, 16, 32, 128, 512})
    m.add("blas.gemm_gflops.n" + std::to_string(n), gemm_gflops(n), "Gflop/s", "wall", "blas");
  m.add("energy.model_gflops_per_w",
        l.energy_joules > 0.0 ? l.energy_flops / l.energy_joules * 1e-9 : 0.0, "Gflop/s/W",
        "modelled", "energy");

  // Diagnostic extras (not part of the benchmark contract).
  const double gpu_est = t.total("hetero.estimate.gpu"), cpu_est = t.total("cpu.estimate");
  if (s.gpu_estimates > 0)
    m.add("hetero.estimate_us.gpu", gpu_est / static_cast<double>(s.gpu_estimates) * 1e6, "us",
          "wall", "hetero");
  if (s.cpu_estimates > 0)
    m.add("hetero.estimate_us.cpu", cpu_est / static_cast<double>(s.cpu_estimates) * 1e6, "us",
          "wall", "cpu");
}

/// (traced − untraced) / untraced of the median unit wall, in percent.
double overhead_pct(const std::vector<double>& on, const std::vector<double>& off) {
  if (on.empty() || off.empty()) return 0.0;
  return (median(on) / median(off) - 1.0) * 100.0;
}

// ---------------------------------------------------------------------------
// Closed-loop batch workloads
// ---------------------------------------------------------------------------

/// One batch as one pseudo-request per matrix, each with its own payload
/// seed, so the service's payload rule and the residual check apply as is.
struct BatchInput {
  std::vector<int> sizes;
  std::vector<svc::Request> reqs;

  BatchInput(std::vector<int> n, std::uint64_t seed) : sizes(std::move(n)) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      svc::Request req;
      req.id = i + 1;
      req.sizes = {sizes[i]};
      req.seed = mix(seed ^ mix(i)) | 1u;
      reqs.push_back(std::move(req));
    }
  }
  [[nodiscard]] Launch launch() const {
    Launch l;
    for (const svc::Request& r : reqs) l.reqs.push_back(&r);
    return l;
  }
};

/// paper_batch: potrf_vbatched_hetero<double> on cpu,k40c,p100, Full mode,
/// 300 Gaussian sizes with nmax 512, refilled from the seed before each call.
void run_paper(Run& r) {
  pin_threads(1);  // see CpuRotation
  Rng rng(r.args.seed);
  const BatchInput input(
      stratified_gaussian_sizes(rng, r.args.smoke ? 40 : 300, r.args.smoke ? 128 : 512),
      r.args.seed);
  const Launch launch = input.launch();
  const double flops = flops::potrf_batch(input.sizes);

  EndToEnd e;
  std::unique_ptr<hetero::DevicePool> pool;
  std::unique_ptr<Queue> q;
  std::unique_ptr<Batch<double>> batch;
  for (int k = 0; k < 3; ++k) {
    batch.reset();
    q.reset();
    pool.reset();
    const double t0 = now_s();
    pool = std::make_unique<hetero::DevicePool>(hetero::DevicePool::parse(kPool));
    q = std::make_unique<Queue>(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
    batch = std::make_unique<Batch<double>>(*q, input.sizes);
    fill_launch(*batch, launch);
    (void)hetero::potrf_vbatched_hetero<double>(*pool, Uplo::Lower, *batch);
    e.setups.push_back(now_s() - t0);
  }

  std::vector<double> on, off, walls;
  hetero::HeteroResult last;
  std::uint64_t ref_sum = 0;
  const double t_loop = now_s();
  const double t_end = t_loop + r.args.seconds;
  CpuRotation rotation;
  for (int call = 0; call < 2 || now_s() < t_end; ++call) {
    fill_launch(*batch, launch);
    rotation.next();
    r.tracer.on = r.traced() && call / 4 % 2 == 0;  // on/off on every CPU
    const double t0 = now_s();
    {
      Span s(r.tracer, "workload.call", "hetero");
      last = hetero::potrf_vbatched_hetero<double>(*pool, Uplo::Lower, *batch);
    }
    const double wall = now_s() - t0;
    (r.tracer.on ? on : off).push_back(wall);
    walls.push_back(wall);
    // The modelled clock of a reused pool drifts in the last bits across
    // calls, so the first timed call gives the deterministic figure.
    if (call == 0) e.model_gflops = last.gflops();
    if (call == 0) check_factors(r.res, *batch, launch, "paper_batch first call");
    const std::uint64_t sum = checksum(*batch);
    if (call == 0) ref_sum = sum;
    else r.res.check(sum == ref_sum, "paper_batch call " + std::to_string(call) + " factor checksum");
  }
  rotation.stop();
  const double loop_wall = now_s() - t_loop;
  r.tracer.on = r.traced();
  check_factors(r.res, *batch, launch, "paper_batch last call");
  closed_loop(e, walls, flops);
  emit_end_to_end(r, e);
  r.res.add("calls", static_cast<double>(walls.size()), "count", "count", "bench");
  r.res.add("hetero.model_ms", last.seconds * 1e3, "ms", "modelled", "hetero");
  if (!r.traced()) return;

  batch.reset();  // the decomposition allocates its own copies
  Layers l;
  l.overhead_pct = overhead_pct(on, off);
  l.unit_wall = median(walls);
  l.hetero_s = l.unit_wall;  // the unit is the hetero call itself
  hetero::DevicePool plan_pool = hetero::DevicePool::parse(kPool);
  const int chunks = retime_plan<double>(plan_pool, input.sizes, last.path_taken, {}, r.tracer,
                                         l.split);
  r.res.check(chunks == last.chunks, "paper_batch re-timed plan yields the call's chunks");
  l.split.chunks = last.chunks;
  l.split.steals = last.steals;
  for (const auto& ex : last.executors) l.split.busy += ex.busy_seconds;
  l.split.capacity = last.seconds * static_cast<double>(last.executors.size());
  split_single_device<double>(launch, last.path_taken, r.tracer, l.split);
  l.energy_flops = last.flops;
  l.energy_joules = last.energy.joules;
  l.dispatcher_busy_frac = sum(walls) / loop_wall;
  emit_layers(r, l);
}

/// tiny_batch: single-device potrf_vbatched<double> on a K40c queue, fused
/// path, Full mode, 10000 uniform sizes in [1, 32].
void run_tiny(Run& r) {
  pin_threads(1);  // see CpuRotation
  Rng rng(r.args.seed);
  const BatchInput input(uniform_sizes(rng, r.args.smoke ? 500 : 10000, 32), r.args.seed);
  const Launch launch = input.launch();
  const double flops = flops::potrf_batch(input.sizes);
  PotrfOptions opts;
  opts.path = PotrfPath::Fused;

  EndToEnd e;
  std::unique_ptr<Queue> q;
  std::unique_ptr<Batch<double>> batch;
  for (int k = 0; k < 3; ++k) {
    batch.reset();
    q.reset();
    const double t0 = now_s();
    q = std::make_unique<Queue>(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
    batch = std::make_unique<Batch<double>>(*q, input.sizes);
    fill_launch(*batch, launch);
    (void)potrf_vbatched<double>(*q, Uplo::Lower, *batch, opts);
    e.setups.push_back(now_s() - t0);
  }

  std::vector<double> on, off, walls;
  std::uint64_t ref_sum = 0;
  const double t_loop = now_s();
  const double t_end = t_loop + r.args.seconds;
  CpuRotation rotation;
  for (int call = 0; call < 2 || now_s() < t_end; ++call) {
    fill_launch(*batch, launch);
    rotation.next();
    r.tracer.on = r.traced() && call / 4 % 2 == 0;  // on/off on every CPU
    const double t0 = now_s();
    PotrfResult pr;
    {
      Span s(r.tracer, "workload.call", "core");
      pr = potrf_vbatched<double>(*q, Uplo::Lower, *batch, opts);
    }
    const double wall = now_s() - t0;
    (r.tracer.on ? on : off).push_back(wall);
    walls.push_back(wall);
    if (call == 0) e.model_gflops = pr.gflops();  // as in run_paper
    if (call == 0) check_factors(r.res, *batch, launch, "tiny_batch first call");
    const std::uint64_t sum = checksum(*batch);
    if (call == 0) ref_sum = sum;
    else r.res.check(sum == ref_sum, "tiny_batch call " + std::to_string(call) + " factor checksum");
  }
  rotation.stop();
  const double loop_wall = now_s() - t_loop;
  r.tracer.on = r.traced();
  check_factors(r.res, *batch, launch, "tiny_batch last call");
  closed_loop(e, walls, flops);
  emit_end_to_end(r, e);
  r.res.add("calls", static_cast<double>(walls.size()), "count", "count", "bench");
  if (!r.traced()) return;

  Layers l;
  l.overhead_pct = overhead_pct(on, off);
  l.unit_wall = median(walls);
  l.dispatcher_busy_frac = sum(walls) / loop_wall;
  split_single_device<double>(launch, PotrfPath::Fused, r.tracer, l.split);
  l.energy_flops = l.split.energy_flops;
  l.energy_joules = l.split.energy_joules;
  emit_layers(r, l);
}

// ---------------------------------------------------------------------------
// Service workloads
// ---------------------------------------------------------------------------

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Every modelled field of two replays of one trace, compared bit for bit.
bool same_model(const svc::ServiceReport& a, const svc::ServiceReport& b) {
  if (a.requests != b.requests || a.batches != b.batches || a.accepted != b.accepted ||
      a.shed != b.shed || a.expired != b.expired || a.slo_met != b.slo_met ||
      a.peak_queue_depth != b.peak_queue_depth || a.batch_log.size() != b.batch_log.size() ||
      a.outcomes.size() != b.outcomes.size())
    return false;
  for (const auto& [x, y] :
       {std::pair{a.makespan, b.makespan}, {a.flops, b.flops}, {a.joules, b.joules},
        {a.p50_latency, b.p50_latency}, {a.p99_latency, b.p99_latency},
        {a.goodput_flops, b.goodput_flops}, {a.mean_queue_depth, b.mean_queue_depth},
        {a.capacity_gflops, b.capacity_gflops}})
    if (!bit_equal(x, y)) return false;
  for (std::size_t i = 0; i < a.batch_log.size(); ++i) {
    const svc::BatchRecord &x = a.batch_log[i], &y = b.batch_log[i];
    if (x.requests != y.requests || x.matrices != y.matrices || x.reason != y.reason ||
        !bit_equal(x.dispatch_time, y.dispatch_time) || !bit_equal(x.seconds, y.seconds) ||
        !bit_equal(x.flops, y.flops) || !bit_equal(x.joules, y.joules))
      return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const svc::RequestOutcome &x = a.outcomes[i], &y = b.outcomes[i];
    if (x.id != y.id || x.status != y.status || x.batch_id != y.batch_id ||
        !bit_equal(x.complete_time, y.complete_time))
      return false;
  }
  return true;
}

/// Served (launched) requests must complete cleanly; shed and expired ones
/// are the workload's intended outcome, not failures.
void check_outcomes(Results& res, const svc::ServiceReport& report, std::size_t submitted,
                    const std::string& what) {
  res.check(report.outcomes.size() == submitted, what + ": one outcome per request");
  for (const svc::RequestOutcome& o : report.outcomes)
    res.check(o.status == svc::RequestStatus::Ok || svc::is_rejected(o.status),
              what + ": request " + std::to_string(o.id) + " " + svc::to_string(o.status));
}

/// Residuals on every matrix of the first and last launch, rebuilt from
/// the report and re-run on a fresh pool.
void check_first_last(Run& r, const std::vector<Launch>& launches, const svc::ServiceConfig& cfg,
                      const std::string& what) {
  if (launches.empty()) return;
  hetero::DevicePool pool = hetero::DevicePool::parse(kPool);
  svc::ServiceConfig full = cfg;
  full.mode = sim::ExecMode::Full;
  Tracer untraced;  // keeps these re-runs out of the layer totals
  for (const Launch* ln : {&launches.front(), &launches.back()})
    by_precision(ln->key.prec, [&]<typename T>() {
      (void)rerun_launch<T>(pool, *ln, full, untraced, &r.res, what);
    });
}

/// Fills the service counters shared by replay and live serving.
void service_counters(Layers& l, const svc::ServiceReport& rep, double per_unit) {
  l.service = true;
  const double batches = std::max(1, rep.batches);
  l.launches = rep.batches * per_unit;
  l.reqs_per_launch = rep.accepted / batches;
  for (const svc::BatchRecord& b : rep.batch_log) {
    l.flush_budget_frac += b.reason == svc::FlushReason::Budget ? 1.0 / batches : 0.0;
    l.flush_count_cap_frac += b.reason == svc::FlushReason::CountCap ? 1.0 / batches : 0.0;
  }
  l.accepted_frac = rep.requests > 0 ? static_cast<double>(rep.accepted) / rep.requests : 0.0;
  l.shed = rep.shed * per_unit;
  l.expired = rep.expired * per_unit;
  l.slo_attainment = rep.slo_attainment();
  l.queue_depth_peak = rep.peak_queue_depth;
  l.energy_flops = rep.flops;
  l.energy_joules = rep.joules;
}

/// Re-runs `launches` through the hetero driver, re-times their planning,
/// and runs them on one device — each as its own pass over every launch,
/// so each layer runs as warm as it does inside the service. Returns the
/// hetero wall seconds. With `records`, each rerun must reproduce its
/// BatchRecord's modelled seconds and flops.
double decompose(Run& r, const std::vector<const Launch*>& launches, const svc::ServiceConfig& cfg,
                 bool records, Layers& l) {
  hetero::DevicePool rerun = hetero::DevicePool::parse(kPool);
  std::vector<PotrfPath> paths;
  std::vector<int> chunks;
  long model_mismatch = 0, chunk_mismatch = 0;
  const double h0 = r.tracer.total("hetero.potrf_vbatched_hetero");
  for (const Launch* ln : launches)
    by_precision(ln->key.prec, [&]<typename T>() {
      const LaunchRun lr = rerun_launch<T>(rerun, *ln, cfg, r.tracer);
      if (records && (!bit_equal(lr.seconds, ln->record->seconds) ||
                      !bit_equal(lr.flops, ln->record->flops)))
        ++model_mismatch;
      paths.push_back(lr.hr.path_taken);
      chunks.push_back(lr.hr.chunks);
      l.split.chunks += lr.hr.chunks;
      l.split.steals += lr.hr.steals;
      for (const auto& ex : lr.hr.executors) l.split.busy += ex.busy_seconds;
      l.split.capacity += lr.hr.seconds * static_cast<double>(lr.hr.executors.size());
    });
  const double hetero_s = r.tracer.total("hetero.potrf_vbatched_hetero") - h0;
  hetero::DevicePool plan_pool = hetero::DevicePool::parse(kPool);
  for (std::size_t i = 0; i < launches.size(); ++i)
    by_precision(launches[i]->key.prec, [&]<typename T>() {
      if (retime_plan<T>(plan_pool, launch_sizes(*launches[i]), paths[i], cfg.hetero, r.tracer,
                         l.split) != chunks[i])
        ++chunk_mismatch;
    });
  for (std::size_t i = 0; i < launches.size(); ++i)
    by_precision(launches[i]->key.prec, [&]<typename T>() {
      split_single_device<T>(*launches[i], paths[i], r.tracer, l.split);
    });
  if (records)
    r.res.check(model_mismatch == 0,
                std::to_string(model_mismatch) +
                    " rebuilt launches differ from their BatchRecord's modelled seconds/flops");
  r.res.check(chunk_mismatch == 0,
              std::to_string(chunk_mismatch) + " re-timed plans differ from the call's chunks");
  return hetero_s;
}

/// replay_storm: the overload trace replayed in virtual time, Full mode,
/// on a fresh cpu,k40c,p100 pool per rep. Every rate is fixed.
void run_replay(Run& r) {
  pin_threads(1);  // see CpuRotation
  svc::TraceGenConfig g;
  g.count = r.args.smoke ? 400 : 5000;
  g.tenants = 3;
  g.rate = 26000.0;
  g.dist = SizeDist::Uniform;
  g.nmax = 128;
  g.max_matrices = 4;
  g.mix_ops = true;
  g.mix_precisions = true;
  g.seed = r.args.seed;
  g.burst = 4.0;
  g.deadline_frac = 0.3;
  g.deadline_seconds = 5e-3;
  svc::ServiceConfig cfg;
  cfg.coalesce.latency_budget = 2e-4;
  cfg.coalesce.max_batch = 16;
  cfg.admission.enabled = true;
  cfg.admission.max_queue = 500;
  cfg.admission.tenant_rate_gflops = 8.0;
  cfg.mode = sim::ExecMode::Full;

  EndToEnd e;
  svc::Trace trace;
  for (int k = 0; k < 3; ++k) {
    const double t0 = now_s();
    trace = svc::make_trace(g);
    svc::Trace prefix;  // warm-up: the first tenth of the trace
    prefix.tenants = trace.tenants;
    prefix.requests.assign(trace.requests.begin(), trace.requests.begin() + g.count / 10);
    hetero::DevicePool pool = hetero::DevicePool::parse(kPool);
    (void)svc::replay_trace(pool, prefix, cfg);
    e.setups.push_back(now_s() - t0);
  }

  std::vector<double> on, off, walls;
  std::unique_ptr<svc::ServiceReport> ref;
  const double t_end = now_s() + r.args.seconds;
  CpuRotation rotation;
  for (int rep = 0; rep < 2 || now_s() < t_end; ++rep) {
    hetero::DevicePool pool = hetero::DevicePool::parse(kPool);
    rotation.next();
    r.tracer.on = r.traced() && rep / 4 % 2 == 0;  // on/off on every CPU
    const double t0 = now_s();
    svc::ServiceReport report;
    {
      Span s(r.tracer, "service.replay_trace", "service");
      report = svc::replay_trace(pool, trace, cfg);
    }
    const double wall = now_s() - t0;
    (r.tracer.on ? on : off).push_back(wall);
    walls.push_back(wall);
    check_outcomes(r.res, report, trace.requests.size(), "replay rep " + std::to_string(rep));
    if (!ref) ref = std::make_unique<svc::ServiceReport>(std::move(report));
    else r.res.check(same_model(*ref, report),
                     "replay rep " + std::to_string(rep) + " modelled report bit-identical to rep 0");
  }
  rotation.stop();
  r.tracer.on = r.traced();
  const std::vector<Launch> launches = launches_of(*ref, trace.requests);
  check_first_last(r, launches, cfg, "replay_storm launch");

  const double wall = median(walls);
  closed_loop(e, walls, ref->flops);
  e.latencies.clear();  // a replay's user waits on its requests' modelled latency
  for (const svc::RequestOutcome& o : ref->outcomes)
    if (o.batch_id >= 0) e.latencies.push_back(o.latency());
  e.latency_clock = "modelled";
  e.latency = median(e.latencies);
  e.model_gflops = ref->goodput_gflops();
  emit_end_to_end(r, e);
  r.res.add("reps", static_cast<double>(walls.size()), "count", "count", "bench");
  r.res.add("replay_ms.p50", wall * 1e3, "ms", "wall", "service");
  r.res.add("host_us_per_req", wall / ref->requests * 1e6, "us", "wall", "service");
  r.res.add("model_p99_ms", ref->p99_latency * 1e3, "ms", "modelled", "service");
  r.res.add("goodput_gflops", ref->goodput_gflops(), "Gflop/s", "modelled", "service");
  r.res.add("shed_frac", static_cast<double>(ref->shed + ref->expired) / ref->requests, "ratio",
            "count", "service");
  if (!r.traced()) return;

  Layers l;
  l.overhead_pct = overhead_pct(on, off);
  l.unit_wall = wall;
  service_counters(l, *ref, 1.0);
  double queued = 0.0, total = 0.0, busy = 0.0;
  for (const svc::RequestOutcome& o : ref->outcomes)
    if (o.batch_id >= 0) {
      queued += o.queue_delay();
      total += o.latency();
    }
  for (const svc::BatchRecord& b : ref->batch_log) {
    busy += b.seconds;
    r.tracer.record("service.launch", "service", b.dispatch_time, b.dispatch_time + b.seconds, 2);
  }
  l.queue_wait_share = total > 0.0 ? queued / total : 0.0;
  l.dispatcher_busy_frac = ref->makespan > 0.0 ? busy / ref->makespan : 0.0;
  std::vector<const Launch*> all;
  for (const Launch& ln : launches) all.push_back(&ln);
  l.hetero_s = decompose(r, all, cfg, /*records=*/true, l);
  emit_layers(r, l);
}

/// One open-loop phase against a fresh wall-clock Service.
struct LivePhase {
  svc::Trace trace;
  svc::ServiceReport report;
  std::vector<double> late;     ///< submit − due, per request (index id − 1)
  std::vector<double> latency;  ///< due → complete; +inf unless the request is Ok
  std::vector<double> launch_wall;  ///< complete − dispatch, per launch
  double seconds = 0.0;         ///< first due → drain returned
};

svc::ServiceConfig live_service() {
  svc::ServiceConfig cfg;
  cfg.coalesce.latency_budget = 1e-3;
  cfg.mode = sim::ExecMode::Full;
  cfg.tenant_weights = {{"tenant0", 1.0}, {"tenant1", 1.0}, {"tenant2", 1.0}};
  return cfg;
}

/// Poisson arrivals at `rate` for `seconds` (make_trace gaps), submitted
/// from this thread when due. Each request is timed from its due instant,
/// so a stalled generator shows up as latency, not as a missing request.
LivePhase run_live(hetero::DevicePool& pool, double rate, double seconds, std::uint64_t seed,
                   Tracer& tr) {
  svc::TraceGenConfig g;
  g.count = std::max(1, static_cast<int>(rate * seconds));
  g.tenants = 3;
  g.rate = rate;
  g.dist = SizeDist::Uniform;
  g.nmax = 32;
  g.max_matrices = 4;
  g.mix_ops = true;
  g.mix_precisions = true;
  g.seed = seed;
  LivePhase p;
  p.trace = svc::make_trace(g);
  const std::size_t n = p.trace.requests.size();
  p.late.assign(n, 0.0);
  {
    svc::Service service(pool, live_service());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const svc::Request& req = p.trace.requests[i];
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(req.submit_time));
      std::this_thread::sleep_until(due);
      p.late[i] = std::chrono::duration<double>(Clock::now() - due).count();
      Span s(tr, "service.submit", "service");
      (void)service.submit(req);
    }
    p.report = service.drain();
    p.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  p.latency.assign(n, std::numeric_limits<double>::infinity());
  p.launch_wall.assign(p.report.batch_log.size(), 0.0);
  for (const svc::RequestOutcome& o : p.report.outcomes) {
    if (o.status == svc::RequestStatus::Ok)
      p.latency[o.id - 1] = p.late[o.id - 1] + (o.complete_time - o.submit_time);
    if (o.batch_id >= 0)
      p.launch_wall[static_cast<std::size_t>(o.batch_id)] = o.complete_time - o.dispatch_time;
  }
  return p;
}

void check_live(Results& res, const LivePhase& p, const std::string& what) {
  res.check(p.report.outcomes.size() == p.trace.requests.size(), what + ": one outcome per request");
  for (const svc::RequestOutcome& o : p.report.outcomes)
    res.check(o.status == svc::RequestStatus::Ok,
              what + ": request " + std::to_string(o.id) + " " + svc::to_string(o.status));
}

/// True when the rung met the latency limit without a growing backlog (the
/// last quarter of requests is not slower than half the limit at median).
bool rung_passes(const LivePhase& p) {
  const std::size_t n = p.latency.size();
  const std::vector<double> tail(p.latency.begin() + static_cast<std::ptrdiff_t>(3 * n / 4),
                                 p.latency.end());
  return percentile(p.latency, 99.0) * 1e3 <= kLiveLimitMs &&
         median(tail) * 1e3 <= kLiveLimitMs / 2.0;
}

/// serve_low / serve_high: the live Service at one fixed offered rate on
/// cpu,k40c,p100 (1 ms budget, admission off). The traced run of
/// serve_high also climbs the doubling ladder for live_max_rps.
void run_serve(Run& r, double rate, bool ladder) {
  pin_threads(2);  // + dispatcher + generator = 4 busy threads
  const svc::ServiceConfig cfg = live_service();
  EndToEnd e;
  // Every phase gets a fresh pool warmed by 200 requests: the executors'
  // timelines keep every launch ever made, and per-launch host cost grows
  // with that history, so phases on one pool would not be comparable.
  Tracer untraced;
  const auto warm_pool = [&](std::uint64_t salt) {
    auto pool = std::make_unique<hetero::DevicePool>(hetero::DevicePool::parse(kPool));
    check_live(r.res, run_live(*pool, rate, 200.0 / rate, mix(r.args.seed + salt), untraced),
               "serve warm-up");
    return pool;
  };
  std::unique_ptr<hetero::DevicePool> pool;
  for (int k = 0; k < 3; ++k) {
    pool.reset();
    const double t0 = now_s();
    pool = warm_pool(100 + k);
    e.setups.push_back(now_s() - t0);
  }

  // The traced run splits its time: an untraced and a traced phase (their
  // p50s give the tracing overhead), then the ladder on serve_high.
  const double phase_s = !r.traced() ? r.args.seconds : r.args.seconds / (ladder ? 4.0 : 2.0);
  r.tracer.on = false;
  const LivePhase p = run_live(*pool, rate, phase_s, mix(r.args.seed), r.tracer);
  check_live(r.res, p, "serve phase");
  std::vector<Launch> launches = launches_of(p.report, p.trace.requests);
  check_first_last(r, launches, cfg, "serve launch");

  double batch_flops = 0.0, batch_seconds = 0.0;
  for (const svc::BatchRecord& b : p.report.batch_log) {
    batch_flops += b.flops;
    batch_seconds += b.seconds;
  }
  e.latencies = p.latency;
  e.latency = median(p.latency);
  e.host_gflops = batch_flops / sum(p.launch_wall) * 1e-9;
  {
    // The live launches' composition follows host timing, so the modelled
    // metric replays the same offered traffic (its first 4000 requests) in
    // virtual time instead: a pure function of the seed and the code.
    svc::Trace head;
    head.tenants = cfg.tenant_weights;
    head.requests.assign(p.trace.requests.begin(),
                         p.trace.requests.begin() +
                             static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                                 4000, p.trace.requests.size())));
    svc::ServiceConfig virt = cfg;
    virt.mode = sim::ExecMode::TimingOnly;
    hetero::DevicePool fresh = hetero::DevicePool::parse(kPool);
    const svc::ServiceReport vr = svc::replay_trace(fresh, head, virt);
    double flops = 0.0, seconds = 0.0;
    for (const svc::BatchRecord& b : vr.batch_log) {
      flops += b.flops;
      seconds += b.seconds;
    }
    e.model_gflops = seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
  emit_end_to_end(r, e);
  r.res.add("requests", static_cast<double>(p.latency.size()), "count", "count", "bench");
  r.res.add("live_model_gflops", batch_seconds > 0.0 ? batch_flops / batch_seconds * 1e-9 : 0.0,
            "Gflop/s", "modelled", "service");
  r.res.add("live_p99_ms", percentile(p.latency, 99.0) * 1e3, "ms", "wall", "service");
  r.res.add("service.gen_late_ms.p99", percentile(p.late, 99.0) * 1e3, "ms", "wall", "service");
  r.res.add("service.launch_ms.p50", percentile(p.launch_wall, 50.0) * 1e3, "ms", "wall", "service");
  r.res.add("service.launch_ms.p99", percentile(p.launch_wall, 99.0) * 1e3, "ms", "wall", "service");
  if (percentile(p.late, 99.0) > 0.5e-3)
    std::fprintf(stderr, "warning: generator ran late (p99 %.3f ms > 0.5 ms); latencies include it\n",
                 percentile(p.late, 99.0) * 1e3);
  if (!r.traced()) return;

  pool = warm_pool(100);
  r.tracer.on = true;
  const LivePhase t = run_live(*pool, rate, phase_s, mix(r.args.seed), r.tracer);
  check_live(r.res, t, "serve traced phase");
  const std::vector<double> submits = r.tracer.durations("service.submit");
  r.res.add("service.submit_us.p50", percentile(submits, 50.0) * 1e6, "us", "wall", "service");
  r.res.add("service.submit_us.p99", percentile(submits, 99.0) * 1e6, "us", "wall", "service");

  Layers l;
  l.overhead_pct = overhead_pct(t.latency, p.latency);
  service_counters(l, t.report, 1.0 / t.seconds);
  double queued = 0.0, total = 0.0;
  for (const svc::RequestOutcome& o : t.report.outcomes) {
    queued += o.queue_delay();
    total += t.latency[o.id - 1];
  }
  l.queue_wait_share = total > 0.0 ? queued / total : 0.0;
  l.dispatcher_busy_frac = sum(t.launch_wall) / t.seconds;

  // Decompose an evenly spaced sample of at most 300 launches; shares are
  // against the same launches' live wall time, host times per serving second.
  launches = launches_of(t.report, t.trace.requests);
  const std::size_t stride = std::max<std::size_t>(1, launches.size() / 300);
  std::vector<const Launch*> sample;
  for (std::size_t b = 0; b < launches.size(); b += stride) {
    sample.push_back(&launches[b]);
    l.unit_wall += t.launch_wall[b];
  }
  l.scale = static_cast<double>(launches.size()) / static_cast<double>(sample.size()) / t.seconds;
  l.hetero_s = decompose(r, sample, cfg, /*records=*/false, l);

  if (ladder) {
    const double rung_s = r.args.seconds / 12.0;
    r.tracer.on = false;
    for (double rung = 2000.0; rung <= 64000.0; rung *= 2.0) {
      pool = warm_pool(100);
      const LivePhase lp = run_live(*pool, rung, rung_s,
                                    mix(r.args.seed + static_cast<std::uint64_t>(rung)), r.tracer);
      check_live(r.res, lp, "serve ladder rung");
      r.res.add("ladder_p99_ms.r" + std::to_string(static_cast<int>(rung)),
                percentile(lp.latency, 99.0) * 1e3, "ms", "wall", "service");
      if (!rung_passes(lp)) break;
      l.live_max_rps = rung;
    }
  }
  emit_layers(r, l);
}

}  // namespace

int main(int argc, char** argv) {
  (void)now_s();  // time origin of the trace
  Run r;
  r.args = parse(argc, argv);
  r.tracer.on = r.traced();
  const std::string& w = r.args.workload;
  try {
    if (w == "paper_batch") run_paper(r);
    else if (w == "tiny_batch") run_tiny(r);
    else if (w == "replay_storm") run_replay(r);
    else if (w == "serve_low") run_serve(r, 2000.0, /*ladder=*/false);
    else if (w == "serve_high") run_serve(r, 12000.0, /*ladder=*/true);
    else usage(argv[0]);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 3;
  }
  r.res.print();
  if (r.traced() && !r.tracer.write_chrome(r.args.trace))
    std::fprintf(stderr, "error: cannot write %s\n", r.args.trace.c_str());
  if (!r.args.out.empty()) {
    const auto q = [](const std::string& s) { return "\"" + Results::escaped(s) + "\""; };
    const bool ok = r.res.write_json(
        r.args.out, {{"workload", q(w)},
                     {"seed", std::to_string(r.args.seed)},
                     {"seconds", std::to_string(r.args.seconds)},
                     {"traced", r.traced() ? "true" : "false"},
                     {"smoke", r.args.smoke ? "true" : "false"},
                     {"isa", q(blas::micro::to_string(blas::micro::active_isa()))},
                     {"threads", std::to_string(util::host_threads())},
                     {"hardware_threads", std::to_string(std::thread::hardware_concurrency())},
                     {"pool", q(kPool)},
                     {"commit", q(r.args.commit)}});
    if (!ok) {
      std::fprintf(stderr, "error: cannot write %s\n", r.args.out.c_str());
      return 3;
    }
  }
  return r.res.correct() ? 0 : 1;
}
