// Figure 7: crossover points between the fused-kernel approach (§III-D)
// and the separated vbatched-BLAS approach (§III-E), uniform sizes, batch
// count 800, both precisions. The "proposed" series is the shipping
// potrf_vbatched with the automatic max-size crossover policy (§IV-E).
//
// Paper shape: fusion wins below the crossover, separation above; the
// crossover is decided by the maximum size in the batch (shared-memory
// feasibility makes the fused approach impossible beyond a bound).
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "vbatch/core/crossover.hpp"

namespace {

using namespace vbatch;

constexpr int kBatch = 800;
const int kNmax[] = {100, 200, 300, 400, 500, 600, 700, 800, 900, 1000};

struct CrossResult {
  double fused = 0.0;  // 0 = infeasible (shared memory)
  double separated = 0.0;
  double proposed = 0.0;
};
std::map<int, CrossResult> g_sp, g_dp;

template <typename T>
void BM_Crossover(benchmark::State& state) {
  const int nmax = static_cast<int>(state.range(0));
  Rng rng(7);
  const auto sizes = uniform_sizes(rng, kBatch, nmax);
  CrossResult r;
  for (auto _ : state) {
    PotrfOptions o;
    o.path = PotrfPath::Fused;
    try {
      r.fused = bench::timed_vbatched<T>(sizes, o);
    } catch (const Error&) {
      r.fused = 0.0;  // beyond the fused feasibility bound
    }
    o.path = PotrfPath::Separated;
    r.separated = bench::timed_vbatched<T>(sizes, o);
    o.path = PotrfPath::Auto;
    r.proposed = bench::timed_vbatched<T>(sizes, o);
  }
  state.counters["fused"] = r.fused;
  state.counters["separated"] = r.separated;
  state.counters["proposed"] = r.proposed;
  (precision_v<T> == Precision::Single ? g_sp : g_dp)[nmax] = r;
}

void print_series(const char* name, const std::map<int, CrossResult>& data) {
  util::Table t({"Nmax", "fused", "separated", "proposed"});
  for (const auto& [nmax, r] : data) {
    t.new_row().add(nmax).add(r.fused, 1).add(r.separated, 1).add(r.proposed, 1);
  }
  std::printf("\n%s (Gflop/s; fused = 0 means infeasible):\n", name);
  t.print(std::cout);
}

void check_series(bench::ShapeChecks& sc, const char* prec,
                  const std::map<int, CrossResult>& data, int crossover) {
  // Below the crossover the fused path should win; above it, separation.
  bool fused_wins_small = data.at(100).fused > data.at(100).separated * 0.95 &&
                          data.at(200).fused > data.at(200).separated;
  bool separated_wins_large = true;
  for (const auto& [nmax, r] : data) {
    if (nmax > crossover && r.fused > r.separated * 1.02) separated_wins_large = false;
  }
  // The proposed routine must track the better of the two everywhere.
  bool proposed_tracks_best = true;
  for (const auto& [nmax, r] : data) {
    const double best = std::max(r.fused, r.separated);
    if (r.proposed < best * 0.85) proposed_tracks_best = false;
  }
  sc.expect(fused_wins_small, std::string(prec) + ": fusion wins below the crossover");
  sc.expect(separated_wins_large, std::string(prec) + ": separation wins above the crossover");
  sc.expect(proposed_tracks_best,
            std::string(prec) + ": proposed (auto) stays within 15% of the better approach");
}

}  // namespace

int main(int argc, char** argv) {
  bench::validate_numerics<double>({.path = vbatch::PotrfPath::Auto});

  for (int nmax : kNmax) {
    benchmark::RegisterBenchmark(("Fig7a/spotrf_crossover/Nmax=" + std::to_string(nmax)).c_str(),
                                 &BM_Crossover<float>)
        ->Args({nmax})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("Fig7b/dpotrf_crossover/Nmax=" + std::to_string(nmax)).c_str(),
                                 &BM_Crossover<double>)
        ->Args({nmax})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }

  return bench::run_and_report(argc, argv, "Fig. 7", [](bench::ShapeChecks& sc) {
    print_series("Fig. 7a — single precision", g_sp);
    print_series("Fig. 7b — double precision", g_dp);
    const auto spec = vbatch::sim::DeviceSpec::k40c();
    std::printf("\ncrossover policy: SP max-size %d, DP max-size %d (feasibility: %d / %d)\n",
                vbatch::crossover_max_size(spec, vbatch::Precision::Single),
                vbatch::crossover_max_size(spec, vbatch::Precision::Double),
                vbatch::fused_feasible_max(spec, sizeof(float)),
                vbatch::fused_feasible_max(spec, sizeof(double)));
    check_series(sc, "SP", g_sp, vbatch::crossover_max_size(spec, vbatch::Precision::Single));
    check_series(sc, "DP", g_dp, vbatch::crossover_max_size(spec, vbatch::Precision::Double));
    sc.expect(vbatch::crossover_max_size(spec, vbatch::Precision::Single) >
                  vbatch::crossover_max_size(spec, vbatch::Precision::Double),
              "SP crossover sits at larger sizes than DP (smaller elements, more shared "
              "memory headroom)");
  });
}
