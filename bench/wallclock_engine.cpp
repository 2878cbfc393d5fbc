// wallclock_engine — host wall-clock benchmark for the parallel execution
// engine.
//
// The simulated device reports *modelled* kernel times; this bench measures
// the *host* wall-clock of a Full-mode vbatched Cholesky run at 1 worker
// thread and at N worker threads. The engine's contract is that the worker
// count changes only wall-clock, never results: the run asserts that the
// factors, the info array, and the modelled seconds are bit-identical
// across thread counts, and exits non-zero if they are not.
//
// Output: a human-readable summary on stdout plus one JSON line appended to
// BENCH_wallclock.json (override with --out). A low speedup (e.g. on a
// single-core machine) is reported but is NOT an error — only a numerics
// mismatch fails the run.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gate_common.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;

struct Options {
  int batch = 800;
  int nmax = 512;
  SizeDist dist = SizeDist::Uniform;
  int threads = 0;  // 0 = hardware concurrency
  int reps = 3;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_wallclock.json";
};

// One full run at a fixed worker count: best-of-reps host wall-clock plus
// the complete result state for bit-identicality checks.
struct RunResult {
  double wall_seconds = 0.0;            // best of reps
  double modelled_seconds = 0.0;        // device-model time, must not vary
  gate::Snapshot bits;
};

RunResult run_at(const Options& o, const std::vector<int>& sizes, unsigned threads) {
  util::set_host_threads(threads);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
  Batch<double> batch(q, sizes);

  RunResult r;
  r.wall_seconds = 1e300;
  for (int rep = 0; rep < o.reps; ++rep) {
    Rng rng(o.seed + 1);  // identical data every rep and every thread count
    batch.fill_spd(rng);
    const auto t0 = std::chrono::steady_clock::now();
    const PotrfResult pr = potrf_vbatched<double>(q, Uplo::Lower, batch);
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_seconds = std::min(r.wall_seconds, std::chrono::duration<double>(t1 - t0).count());
    r.modelled_seconds = pr.seconds;
  }
  r.bits = gate::Snapshot::of(batch);
  return r;
}

bool bit_identical(const RunResult& a, const RunResult& b) {
  return a.bits == b.bits && std::bit_cast<std::uint64_t>(a.modelled_seconds) ==
                                 std::bit_cast<std::uint64_t>(b.modelled_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  gate::Flags(argv[0])
      .num("--batch", o.batch, 1)
      .num("--nmax", o.nmax, 1)
      .choice("--dist", o.dist,
              {{"uniform", SizeDist::Uniform}, {"gaussian", SizeDist::Gaussian}})
      .num("--threads", o.threads, 0)
      .num("--reps", o.reps, 1)
      .num("--seed", o.seed, 0)
      .text("--out", o.out)
      .parse(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned n_threads = o.threads > 0 ? static_cast<unsigned>(o.threads) : hw;

  Rng rng(o.seed);
  const auto sizes = make_sizes(o.dist, rng, o.batch, o.nmax);
  std::printf("wallclock_engine: %d matrices, %s sizes up to %d, reps=%d\n", o.batch,
              to_string(o.dist), o.nmax, o.reps);

  const RunResult base = run_at(o, sizes, 1);
  const RunResult par = run_at(o, sizes, n_threads);

  const bool identical = bit_identical(base, par);
  const double speedup = par.wall_seconds > 0.0 ? base.wall_seconds / par.wall_seconds : 0.0;

  std::printf("  threads=1:   wall %8.3f ms  (modelled %.3f ms)\n", base.wall_seconds * 1e3,
              base.modelled_seconds * 1e3);
  std::printf("  threads=%-3u: wall %8.3f ms  (modelled %.3f ms)\n", n_threads,
              par.wall_seconds * 1e3, par.modelled_seconds * 1e3);
  std::printf("  speedup %.2fx, results %s\n", speedup,
              identical ? "bit-identical" : "MISMATCH");

  const gate::JsonLine json{{"bench", "wallclock_engine"}, {"batch", o.batch},
                            {"nmax", o.nmax}, {"dist", to_string(o.dist)}, {"reps", o.reps},
                            {"threads", n_threads}, {"wall_seconds_1", base.wall_seconds},
                            {"wall_seconds_n", par.wall_seconds}, {"speedup", speedup},
                            {"modelled_seconds", base.modelled_seconds},
                            {"bit_identical", identical}};
  std::printf("%s\n", json.str().c_str());
  gate::append_json_lines(o.out, {json});

  if (!identical) {
    std::fprintf(stderr, "FAILED: results differ between thread counts\n");
    return 1;
  }
  return 0;
}
