// fig_fault_overhead — cost of the self-healing machinery when nothing
// fails (docs/robustness.md).
//
// The recovery loop (per-attempt injection oracle, attempt ledger, retry
// bookkeeping) sits on the hot path of every heterogeneous call, so its
// fault-free cost must be provably negligible. This bench runs the same
// Full-mode workload twice per rep: once with no fault plan (the machinery
// compiled out of the loop) and once with an ARMED but never-firing plan
// (rules targeting an executor the pool does not have), interleaved to
// decorrelate host drift. One untimed warm-up call per side comes first, so
// one-time host set-up lands on neither side.
//
// Gates (exit 1 on failure):
//   * armed wall-clock overhead < 3%: the median over reps of the paired
//     armed/plan-free wall ratio, printed with its interquartile range. A
//     median over 3% by less than three standard errors is host noise the
//     reps cannot resolve; it prints UNRESOLVED instead of failing;
//   * armed modelled makespan BIT-EQUAL to the plan-free one (an armed
//     plan that never fires must not perturb the schedule at all);
//   * zero retries / losses / poisons on the armed run.
// A faulted configuration (transient storm + one death) is also reported
// for context — no gate, its cost is the price of the injected faults.
//
// Output: a summary on stdout plus one JSON line per configuration
// appended to BENCH_fault.json (override with --out).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gate_common.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"

namespace {

using namespace vbatch;

struct Options {
  int batch = 600;
  int nmax = 256;
  int reps = 5;
  int iters = 3;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_fault.json";
};

struct Sample {
  double wall_seconds = 0.0;     ///< host time of the hetero call itself
  double modelled_seconds = 0.0; ///< pool makespan (virtual)
  int retries = 0;
  int executors_lost = 0;
  int chunks_poisoned = 0;
};

/// One sample: `iters` back-to-back hetero calls (fresh batch each time so
/// every call factors pristine input), wall time averaged over the inner
/// loop — the averaging squeezes host jitter well below the 3% gate.
Sample run_once(const std::vector<int>& sizes, const std::string& fault_spec, int iters) {
  hetero::DevicePool pool = hetero::DevicePool::parse("cpu,k40c,p100");
  if (!fault_spec.empty()) pool.set_faults(fault::parse_fault_spec(fault_spec));
  Sample s;
  double total = 0.0;
  for (int it = 0; it < iters; ++it) {
    Queue q;
    Batch<double> batch(q, sizes);
    Rng fill(7);
    batch.fill_spd(fill);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = hetero::potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
    const auto t1 = std::chrono::steady_clock::now();
    total += std::chrono::duration<double>(t1 - t0).count();
    s.modelled_seconds = r.seconds;
    s.retries = r.retries;
    s.executors_lost = r.executors_lost;
    s.chunks_poisoned = r.chunks_poisoned;
  }
  s.wall_seconds = total / static_cast<double>(iters);
  return s;
}

/// Linearly interpolated quantile `q` of a sorted, non-empty sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  gate::Flags(argv[0])
      .num("--batch", o.batch, 1)
      .num("--nmax", o.nmax, 1)
      .num("--reps", o.reps, 1)
      .num("--iters", o.iters, 1)
      .num("--seed", o.seed, 0)
      .text("--out", o.out)
      .parse(argc, argv);
  Rng rng(o.seed);
  const auto sizes = gaussian_sizes(rng, o.batch, o.nmax);

  // An armed plan that can never fire: its only rules target executor 99,
  // which a 3-executor pool never schedules. The recovery loop still runs.
  const std::string armed_spec = "die:exec=99,after=999;hang:exec=99,chunk=0";
  const std::string faulted_spec = "seed=5;transient:rate=0.1;die:exec=2,after=2";

  (void)run_once(sizes, "", 1);
  (void)run_once(sizes, armed_spec, 1);

  // Gate on the median over reps of the per-rep armed/plan-free wall ratio:
  // the two samples of a rep are adjacent in time (order alternating), so
  // host drift slower than one rep cancels out of each ratio. The min of the
  // ratios would reward one lucky sample and read as negative overhead.
  Sample off, armed;
  off.wall_seconds = armed.wall_seconds = 1e300;
  std::vector<double> ratios;
  for (int rep = 0; rep < o.reps; ++rep) {
    Sample a, b;
    if (rep % 2 == 0) {
      a = run_once(sizes, "", o.iters);
      b = run_once(sizes, armed_spec, o.iters);
    } else {
      b = run_once(sizes, armed_spec, o.iters);
      a = run_once(sizes, "", o.iters);
    }
    if (a.wall_seconds < off.wall_seconds) off = a;
    if (b.wall_seconds < armed.wall_seconds) armed = b;
    ratios.push_back(b.wall_seconds / a.wall_seconds);
  }
  const Sample faulted = run_once(sizes, faulted_spec, 1);

  std::sort(ratios.begin(), ratios.end());
  const double overhead = quantile(ratios, 0.5) - 1.0;
  const double iqr = quantile(ratios, 0.75) - quantile(ratios, 0.25);
  // Standard error of a sample median, from the IQR as a robust spread.
  const double median_se = 0.93 * iqr / std::sqrt(static_cast<double>(o.reps));
  std::printf("fault machinery overhead, Gaussian batch %d, nmax %d, dpotrf, %d reps "
              "(fastest rep per config):\n",
              o.batch, o.nmax, o.reps);
  std::printf("  %-22s %14s %14s %9s %7s %9s\n", "config", "wall ms", "modelled ms", "retries",
              "lost", "poisoned");
  std::printf("  %-22s %14.3f %14.3f %9d %7d %9d\n", "plan-free", off.wall_seconds * 1e3,
              off.modelled_seconds * 1e3, off.retries, off.executors_lost, off.chunks_poisoned);
  std::printf("  %-22s %14.3f %14.3f %9d %7d %9d\n", "armed-never-fires",
              armed.wall_seconds * 1e3, armed.modelled_seconds * 1e3, armed.retries,
              armed.executors_lost, armed.chunks_poisoned);
  std::printf("  %-22s %14.3f %14.3f %9d %7d %9d\n", "faulted", faulted.wall_seconds * 1e3,
              faulted.modelled_seconds * 1e3, faulted.retries, faulted.executors_lost,
              faulted.chunks_poisoned);
  std::printf("  armed overhead: %+.2f%% median of %d paired ratios, IQR %.2f%%, SE %.2f%% "
              "(gate < 3%%)\n",
              overhead * 100.0, o.reps, iqr * 100.0, median_se * 100.0);

  const struct { const char* name; const Sample* s; } rows[] = {
      {"plan_free", &off}, {"armed_never_fires", &armed}, {"faulted", &faulted}};
  std::vector<gate::JsonLine> lines;
  for (const auto& row : rows)
    lines.push_back({{"bench", "fault_overhead"}, {"config", row.name},
                     {"pool", "cpu,k40c,p100"}, {"batch", o.batch}, {"nmax", o.nmax},
                     {"precision", "d"}, {"wall_seconds", row.s->wall_seconds},
                     {"modelled_seconds", row.s->modelled_seconds}, {"retries", row.s->retries},
                     {"executors_lost", row.s->executors_lost},
                     {"chunks_poisoned", row.s->chunks_poisoned},
                     {"armed_overhead_pct", overhead * 100.0},
                     {"armed_overhead_iqr_pct", iqr * 100.0}});
  gate::append_json_lines(o.out, lines);

  bool ok = true;
  if (overhead >= 0.03 + 3.0 * median_se) {
    std::fprintf(stderr, "FAILED: armed fault machinery costs %.2f%% >= 3%%\n", overhead * 100.0);
    ok = false;
  } else if (overhead >= 0.03) {
    std::printf("UNRESOLVED: %.2f%% overhead is within 3 SE of the 3%% gate; rerun with more "
                "--reps on a quieter host\n",
                overhead * 100.0);
  }
  if (armed.modelled_seconds != off.modelled_seconds) {
    std::fprintf(stderr, "FAILED: armed plan perturbed the modelled makespan (%.9f != %.9f)\n",
                 armed.modelled_seconds, off.modelled_seconds);
    ok = false;
  }
  if (armed.retries != 0 || armed.executors_lost != 0 || armed.chunks_poisoned != 0) {
    std::fprintf(stderr, "FAILED: armed never-firing plan reported recovery activity\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "fault overhead gates passed" : "fault overhead gates FAILED");
  return ok ? 0 : 1;
}
