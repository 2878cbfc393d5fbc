// fig_hetero_scaling — multi-device scaling of the heterogeneous vbatched
// Cholesky (vbatch::hetero).
//
// The paper's outlook targets heterogeneous nodes; this bench quantifies
// the reproduction's answer: one variable-size DP batch split across 1, 2
// and 4 simulated K40c GPUs, each pool with and without the host CPU
// joining, for the uniform and Gaussian size distributions of §IV-B.
// Everything is modelled time (TimingOnly), so the numbers are exactly
// reproducible.
//
// Output: a summary table on stdout plus one JSON line per configuration
// appended to BENCH_hetero.json (override with --out). The run FAILS (exit
// 1) if the Gaussian batch misses the scaling gates: 2×K40c must be at
// least 1.7× faster than 1×K40c, and adding the CPU must never slow a pool
// down.
#include <cstdio>
#include <string>
#include <vector>

#include "gate_common.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"

namespace {

using namespace vbatch;

struct Options {
  int batch = 3000;
  int nmax = 512;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_hetero.json";
};

struct Point {
  std::string pool;
  double seconds = 0.0;
  double gflops = 0.0;
  double joules = 0.0;
  int chunks = 0;
  int steals = 0;
};

Point run_pool(const char* desc, const std::vector<int>& sizes) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> batch(q, sizes);
  hetero::DevicePool pool = hetero::DevicePool::parse(desc);
  const auto r = hetero::potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  return {desc, r.seconds, r.gflops(), r.energy.joules, r.chunks, r.steals};
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  gate::Flags(argv[0])
      .num("--batch", o.batch, 1)
      .num("--nmax", o.nmax, 1)
      .num("--seed", o.seed, 0)
      .text("--out", o.out)
      .parse(argc, argv);
  const char* pools[] = {"k40c",           "k40c,cpu",
                         "k40c,k40c",      "k40c,k40c,cpu",
                         "k40c,k40c,k40c,k40c", "k40c,k40c,k40c,k40c,cpu"};

  std::vector<gate::JsonLine> lines;
  bool ok = true;
  for (SizeDist dist : {SizeDist::Uniform, SizeDist::Gaussian}) {
    Rng rng(o.seed);
    const auto sizes = make_sizes(dist, rng, o.batch, o.nmax);
    std::printf("\n%s sizes in [1, %d], batch %d, dpotrf:\n", to_string(dist), o.nmax, o.batch);
    std::printf("  %-26s %12s %10s %8s %7s %7s %9s\n", "pool", "modelled ms", "Gflop/s",
                "speedup", "chunks", "steals", "joules");

    double base_seconds = 0.0;
    double prev_no_cpu = 0.0;
    for (const char* desc : pools) {
      const Point p = run_pool(desc, sizes);
      if (p.pool == "k40c") base_seconds = p.seconds;
      const double speedup = base_seconds > 0.0 ? base_seconds / p.seconds : 0.0;
      std::printf("  %-26s %12.3f %10.1f %7.2fx %7d %7d %9.2f\n", desc, p.seconds * 1e3,
                  p.gflops, speedup, p.chunks, p.steals, p.joules);
      lines.push_back({{"bench", "hetero_scaling"}, {"dist", to_string(dist)}, {"pool", desc},
                       {"batch", o.batch}, {"nmax", o.nmax}, {"precision", "d"},
                       {"modelled_seconds", p.seconds}, {"gflops", p.gflops},
                       {"speedup_vs_1gpu", speedup}, {"chunks", p.chunks},
                       {"steals", p.steals}, {"joules", p.joules}});

      // Scaling gates (Gaussian is the acceptance workload).
      const std::string pd = p.pool;
      if (dist == SizeDist::Gaussian && pd == "k40c,k40c" && speedup < 1.7) {
        std::fprintf(stderr, "FAILED: 2xK40c speedup %.2fx < 1.7x on the Gaussian batch\n",
                     speedup);
        ok = false;
      }
      if (pd.find("cpu") == std::string::npos) {
        prev_no_cpu = p.seconds;
      } else if (dist == SizeDist::Gaussian && p.seconds > prev_no_cpu) {
        std::fprintf(stderr, "FAILED: adding the CPU slowed pool '%s' down (%.3f > %.3f ms)\n",
                     desc, p.seconds * 1e3, prev_no_cpu * 1e3);
        ok = false;
      }
    }
  }
  gate::append_json_lines(o.out, lines);
  std::printf("\n%s\n", ok ? "scaling gates passed" : "scaling gates FAILED");
  return ok ? 0 : 1;
}
