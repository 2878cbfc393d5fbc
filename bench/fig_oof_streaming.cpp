// fig_oof_streaming — double-buffered out-of-core staging vs synchronous
// staging (docs/heterogeneous.md, "Out-of-core streaming").
//
// A batch of small-to-medium matrices is transfer-bound on the modelled
// PCIe link: staging a chunk over the K40c's 6 GB/s host→device lane costs
// far more than factorizing it. Forcing the out-of-core pipeline
// (Staging::Streamed) and toggling prefetch isolates exactly what the
// double buffering buys: with prefetch the next chunk's H2D and the
// previous chunk's D2H run behind the current compute on independent DMA
// lanes, so the pool commits one chunk per link period instead of paying
// h2d + compute + d2h serially.
//
// Output: a summary on stdout plus one JSON line per configuration appended
// to BENCH_oof.json (override with --out). The run FAILS (exit 1) if the
// double-buffered pipeline is not at least 1.4x faster than synchronous
// staging in modelled time, or if either streamed run's factors/info differ
// from the everything-resident run — streaming must change the clock and
// nothing else.
#include <cstdio>
#include <string>
#include <vector>

#include "gate_common.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"

namespace {

using namespace vbatch;

struct Options {
  int batch = 200;
  int nmax = 256;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_oof.json";
};

struct Point {
  std::string label;
  double seconds = 0.0;
  double h2d_mb = 0.0;
  double d2h_mb = 0.0;
  double pipeline_ratio = 1.0;  ///< (busy + h2d + d2h) / pipeline span
  gate::Snapshot bits;
};

Point run_config(const char* label, const std::vector<int>& sizes,
                 hetero::HeteroOptions::Staging staging, bool prefetch) {
  Queue q;  // Full mode: the bit-identity gate needs real numerics
  Batch<double> batch(q, sizes);
  Rng fill(7);
  batch.fill_spd(fill);
  hetero::DevicePool pool = hetero::DevicePool::parse("k40c");
  hetero::HeteroOptions opts;
  opts.staging = staging;
  opts.prefetch = prefetch;
  opts.chunks_per_executor = 8;  // enough pipeline stages to amortize the fill
  const auto r = hetero::potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
  Point p;
  p.label = label;
  p.seconds = r.seconds;
  p.h2d_mb = r.h2d_bytes / (1024.0 * 1024.0);
  p.d2h_mb = r.d2h_bytes / (1024.0 * 1024.0);
  const auto& ex = r.executors.front();
  if (ex.pipeline_seconds > 0.0)
    p.pipeline_ratio = (ex.busy_seconds + ex.h2d_seconds + ex.d2h_seconds) / ex.pipeline_seconds;
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
  const auto sizes = make_sizes(SizeDist::Gaussian, rng, o.batch, o.nmax);

  std::printf("gaussian sizes in [1, %d], batch %d, dpotrf on one K40c, Full mode:\n", o.nmax,
              o.batch);
  std::printf("  %-22s %12s %10s %10s %9s %8s\n", "staging", "modelled ms", "h2d MB", "d2h MB",
              "pipeline", "speedup");

  const Point resident =
      run_config("resident", sizes, hetero::HeteroOptions::Staging::Resident, true);
  const Point sync =
      run_config("streamed-sync", sizes, hetero::HeteroOptions::Staging::Streamed, false);
  const Point buffered =
      run_config("streamed-prefetch", sizes, hetero::HeteroOptions::Staging::Streamed, true);

  std::vector<gate::JsonLine> lines;
  bool ok = true;
  for (const Point* p : {&resident, &sync, &buffered}) {
    const double speedup = p->seconds > 0.0 ? sync.seconds / p->seconds : 0.0;
    std::printf("  %-22s %12.4f %10.1f %10.1f %8.2fx %7.2fx\n", p->label.c_str(),
                p->seconds * 1e3, p->h2d_mb, p->d2h_mb, p->pipeline_ratio, speedup);
    lines.push_back({{"bench", "oof_streaming"}, {"staging", p->label}, {"batch", o.batch},
                     {"nmax", o.nmax}, {"precision", "d"}, {"modelled_seconds", p->seconds},
                     {"h2d_mb", p->h2d_mb}, {"d2h_mb", p->d2h_mb},
                     {"pipeline_ratio", p->pipeline_ratio}, {"speedup_vs_sync", speedup}});
    if (p->bits != resident.bits) {
      std::fprintf(stderr, "FAILED: '%s' changed the factors or info — staging must only "
                           "change the modelled clock\n", p->label.c_str());
      ok = false;
    }
  }
  gate::append_json_lines(o.out, lines);

  const double speedup = buffered.seconds > 0.0 ? sync.seconds / buffered.seconds : 0.0;
  if (sync.h2d_mb <= 0.0 || buffered.h2d_mb <= 0.0) {
    std::fprintf(stderr, "FAILED: streamed configurations staged no bytes\n");
    ok = false;
  }
  if (speedup < 1.4) {
    std::fprintf(stderr, "FAILED: double-buffered speedup %.2fx < 1.4x over synchronous "
                         "staging on a transfer-bound batch\n", speedup);
    ok = false;
  }
  std::printf("\n%s\n", ok ? "out-of-core gates passed" : "out-of-core gates FAILED");
  return ok ? 0 : 1;
}
