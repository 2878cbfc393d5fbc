// fig_stream_overlap — multi-queue chunk overlap inside one hetero executor
// (docs/heterogeneous.md, "Overlap & streams").
//
// Small matrices leave most of the device idle per chunk: a uniform batch
// capped at a small nmax occupies a fraction of the K40c's SMs, so running
// chunks on concurrent stream slots overlaps their launch gaps and idle
// SMs. This bench runs the same Full-mode workload on "k40c" (one stream)
// and "k40c:4streams" and reports the modelled speedup and the per-executor
// overlap ratio.
//
// Output: a summary on stdout plus one JSON line per configuration appended
// to BENCH_streams.json (override with --out). The run FAILS (exit 1) if
// the 4-stream pool is not at least 1.3x faster in modelled time, or if the
// factors/info are not bit-identical across stream counts — overlap must
// change the clock and nothing else.
#include <cstdio>
#include <string>
#include <vector>

#include "gate_common.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"

namespace {

using namespace vbatch;

struct Options {
  int batch = 240;
  int nmax = 16;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_streams.json";
};

struct Point {
  std::string pool;
  double seconds = 0.0;
  double gflops = 0.0;
  int streams = 1;
  double overlap = 1.0;
  gate::Snapshot bits;
};

Point run_pool(const char* desc, const std::vector<int>& sizes) {
  Queue q;  // Full mode: the bit-identity gate needs real numerics
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  hetero::DevicePool pool = hetero::DevicePool::parse(desc);
  const auto r = hetero::potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch);
  Point p;
  p.pool = desc;
  p.seconds = r.seconds;
  p.gflops = r.gflops();
  p.streams = r.executors.front().streams;
  p.overlap = r.executors.front().overlap;
  p.bits = gate::Snapshot::of(batch);
  return p;
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
  Rng rng(o.seed);
  const auto sizes = make_sizes(SizeDist::Uniform, rng, o.batch, o.nmax);

  std::printf("uniform sizes in [1, %d], batch %d, dpotrf, Full mode:\n", o.nmax, o.batch);
  std::printf("  %-18s %12s %10s %8s %8s %8s\n", "pool", "modelled ms", "Gflop/s", "speedup",
              "streams", "overlap");

  const char* pools[] = {"k40c", "k40c:2streams", "k40c:4streams"};
  std::vector<gate::JsonLine> lines;
  bool ok = true;
  Point base;
  for (const char* desc : pools) {
    const Point p = run_pool(desc, sizes);
    if (p.pool == "k40c") base = p;
    const double speedup = base.seconds > 0.0 ? base.seconds / p.seconds : 0.0;
    std::printf("  %-18s %12.4f %10.1f %7.2fx %8d %7.2fx\n", desc, p.seconds * 1e3, p.gflops,
                speedup, p.streams, p.overlap);
    lines.push_back({{"bench", "stream_overlap"}, {"pool", desc}, {"batch", o.batch},
                     {"nmax", o.nmax}, {"precision", "d"}, {"modelled_seconds", p.seconds},
                     {"gflops", p.gflops}, {"speedup_vs_1stream", speedup},
                     {"streams", p.streams}, {"overlap", p.overlap}});
    if (p.bits != base.bits) {
      std::fprintf(stderr, "FAILED: '%s' changed the factors or info — overlap must only "
                           "change the modelled clock\n", desc);
      ok = false;
    }
    if (p.pool == "k40c:4streams" && speedup < 1.3) {
      std::fprintf(stderr, "FAILED: 4-stream speedup %.2fx < 1.3x on the small-matrix batch\n",
                   speedup);
      ok = false;
    }
  }
  gate::append_json_lines(o.out, lines);
  std::printf("\n%s\n", ok ? "overlap gates passed" : "overlap gates FAILED");
  return ok ? 0 : 1;
}
