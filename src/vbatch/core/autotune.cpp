#include "vbatch/core/autotune.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "vbatch/blas/microkernel.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"

namespace vbatch {

std::string TuneCandidate::describe() const {
  std::string s = to_string(options.path);
  if (options.path == PotrfPath::Fused) {
    s += " nb=" + std::to_string(options.fused_nb);
    s += " ";
    s += to_string(options.etm);
    s += options.implicit_sorting ? " +sort" : " -sort";
  } else if (options.streamed_syrk) {
    s += " streamed-syrk";
  }
  if (!feasible) return s + " (infeasible)";
  char buf[32];
  std::snprintf(buf, sizeof buf, " -> %.1f GF", gflops);
  return s + buf;
}

template <typename T>
TuneResult autotune_potrf(const Queue& q, std::span<const int> sizes,
                          const TuneSettings& settings) {
  require(!sizes.empty(), "autotune: empty size list");

  // Deterministic subsample (every k-th element) keeps the sweep cheap for
  // huge batches while preserving the size distribution.
  std::vector<int> sample;
  const int stride =
      std::max<int>(1, static_cast<int>(sizes.size()) / std::max(1, settings.max_sample));
  for (std::size_t i = 0; i < sizes.size(); i += static_cast<std::size_t>(stride))
    sample.push_back(sizes[i]);
  int max_n = 0;
  for (int s : sample) max_n = std::max(max_n, s);
  require(max_n >= 1, "autotune: all sampled matrices empty");

  // Candidate configurations: every feasible fused blocking with and
  // without implicit sorting (ETM-aggressive), then the separated path with
  // the vbatched and the streamed trailing update.
  std::vector<PotrfOptions> candidates;
  for (int nb : {8, 16, 24, 32}) {
    if (max_n > kernels::fused_max_size(q.spec(), nb, sizeof(T))) continue;
    for (bool sorting : {false, true}) {
      PotrfOptions o;
      o.path = PotrfPath::Fused;
      o.fused_nb = nb;
      o.etm = EtmMode::Aggressive;
      o.implicit_sorting = sorting;
      candidates.push_back(o);
    }
  }
  for (bool streamed : {false, true}) {
    PotrfOptions o;
    o.path = PotrfPath::Separated;
    o.streamed_syrk = streamed;
    candidates.push_back(o);
  }

  TuneResult result;
  for (const PotrfOptions& opts : candidates) {
    TuneCandidate cand;
    cand.options = opts;
    // Fresh TimingOnly device per candidate: identical spec, clean clock.
    Queue probe(q.spec(), sim::ExecMode::TimingOnly);
    try {
      Batch<T> batch(probe, sample);
      const PotrfResult r = potrf_vbatched_max<T>(probe, Uplo::Lower, batch, max_n, opts);
      cand.gflops = r.gflops();
    } catch (const Error&) {
      cand.feasible = false;
    }
    if (cand.feasible && cand.gflops > result.best_gflops) {
      result.best_gflops = cand.gflops;
      result.best = opts;
    }
    result.candidates.push_back(std::move(cand));
  }
  require(result.best_gflops > 0.0, "autotune: no feasible configuration");
  return result;
}

template TuneResult autotune_potrf<float>(const Queue&, std::span<const int>,
                                          const TuneSettings&);
template TuneResult autotune_potrf<double>(const Queue&, std::span<const int>,
                                           const TuneSettings&);

// ---------------------------------------------------------------------------
// Host BLAS tuner
// ---------------------------------------------------------------------------

namespace {

// Reads one sysfs cache attribute ("32K", "512K", "20480K"...); 0 on failure.
std::size_t read_cache_size(const std::string& dir) {
  std::ifstream f(dir + "/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0;
  char suffix = s.back();
  std::size_t mult = 1;
  if (suffix == 'K' || suffix == 'k') {
    mult = 1024;
    s.pop_back();
  } else if (suffix == 'M' || suffix == 'm') {
    mult = 1024 * 1024;
    s.pop_back();
  }
  const std::optional<std::size_t> size = util::try_parse_number<std::size_t>(s);
  return size ? *size * mult : 0;
}

// Rounds `v` down to a multiple of `unit`, staying at least `unit`.
index_t round_down(index_t v, index_t unit) {
  return std::max(unit, v / unit * unit);
}

// Derives KC/MC/NC for an MR×NR tile from the Goto residency constraints:
//   * a KC×NR sliver of B̃ plus a KC×MR sliver of Ã stream through L1 — keep
//     their footprint under roughly half of it so the C tile and the stack
//     stay resident;
//   * the packed MC×KC block of Ã owns about half of L2;
//   * the packed KC×NC panel of B̃ owns about half of L3.
blas::micro::KernelShape derive_shape(const CacheInfo& ci, std::size_t elem, int mr, int nr,
                                      index_t min_m) {
  blas::micro::KernelShape s;
  s.mr = mr;
  s.nr = nr;
  const auto l1 = static_cast<index_t>(ci.l1d / (2 * elem * static_cast<std::size_t>(mr + nr)));
  s.kc = std::clamp<index_t>(round_down(l1, 32), 64, 512);
  const auto l2 = static_cast<index_t>(ci.l2 / (2 * elem * static_cast<std::size_t>(s.kc)));
  s.mc = std::clamp<index_t>(round_down(l2, mr), mr, 4096);
  const auto l3 = static_cast<index_t>(ci.l3 / (2 * elem * static_cast<std::size_t>(s.kc)));
  s.nc = std::clamp<index_t>(round_down(l3, nr), nr, 8192);
  s.min_m = min_m;
  s.min_mnk = 4096.0;
  return s;
}

template <typename T>
void sweep_type(const CacheInfo& ci, const BlasTuneSettings& settings,
                blas::micro::TuningProfile& profile, BlasTuneResult& result) {
  using namespace blas::micro;
  constexpr int kType = std::is_same_v<T, float>                ? 0
                        : std::is_same_v<T, double>             ? 1
                        : std::is_same_v<T, std::complex<float>> ? 2
                                                                 : 3;
  KernelShape& winner = profile.shapes[kType];
  // The crossover floor stays at the analytic default: the sweep sizes are
  // far above it, so measuring it here would be noise.
  const index_t min_m = winner.min_m;

  std::vector<KernelShape> shortlist;
  shortlist.push_back(winner);  // the per-ISA analytic default
  for (const TilePair& t : supported_tiles<T>(profile.isa))
    shortlist.push_back(derive_shape(ci, sizeof(T), t.mr, t.nr, std::min<index_t>(min_m, t.mr)));

  double best = 0.0;
  for (const KernelShape& cand : shortlist) {
    const double gf = benchmark_shape<T>(cand, settings.bench_n, settings.reps);
    result.candidates.push_back({kType, cand, gf});
    ++result.candidates_swept;
    if (settings.verbose)
      std::fprintf(stderr,
                   "vbatch: blas autotune: type=%d tile=%dx%d kc=%lld mc=%lld nc=%lld -> %.2f GF\n",
                   kType, cand.mr, cand.nr, static_cast<long long>(cand.kc),
                   static_cast<long long>(cand.mc), static_cast<long long>(cand.nc), gf);
    if (gf > best) {
      best = gf;
      winner = cand;
    }
  }
}

}  // namespace

CacheInfo CacheInfo::detect() {
  CacheInfo ci;
#if defined(__linux__)
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = base + std::to_string(idx);
    std::ifstream lvl_f(dir + "/level"), type_f(dir + "/type");
    int level = 0;
    std::string type;
    if (!(lvl_f >> level) || !(type_f >> type)) break;
    const std::size_t size = read_cache_size(dir);
    if (size == 0) continue;
    if (level == 1 && (type == "Data" || type == "Unified")) {
      ci.l1d = size;
      ci.detected = true;
    } else if (level == 2 && type != "Instruction") {
      ci.l2 = size;
    } else if (level == 3 && type != "Instruction") {
      ci.l3 = size;
    }
  }
#endif
  // A machine without an L3 reports nothing at level 3; blocking NC against
  // the L2 in that case keeps the B panel resident somewhere real.
  if (ci.detected && ci.l3 < ci.l2) ci.l3 = ci.l2;
  return ci;
}

BlasTuneResult ensure_blas_tuned(const BlasTuneSettings& settings) {
  using namespace blas::micro;
  BlasTuneResult result;
  const Isa isa = active_isa();
  result.cache_path =
      settings.cache_path.empty() ? tuning_cache_path(isa) : settings.cache_path;

  if (settings.use_cache_file) {
    std::string why;
    if (auto loaded = load_tuning_profile(result.cache_path, &why)) {
      if (loaded->isa == isa) {
        set_tuning_profile(*loaded);
        result.profile = *loaded;
        result.loaded_from_cache = true;
        if (settings.verbose)
          std::fprintf(stderr, "vbatch: blas autotune: loaded profile from %s (no sweep)\n",
                       result.cache_path.c_str());
        return result;
      }
      why = std::string("profile is for ") + to_string(loaded->isa) + ", active ISA is " +
            to_string(isa);
    }
    if (settings.verbose)
      std::fprintf(stderr, "vbatch: blas autotune: %s; sweeping\n", why.c_str());
  }

  result.cache = CacheInfo::detect();
  TuningProfile profile = TuningProfile::defaults(isa);
  sweep_type<float>(result.cache, settings, profile, result);
  sweep_type<double>(result.cache, settings, profile, result);
  sweep_type<std::complex<float>>(result.cache, settings, profile, result);
  sweep_type<std::complex<double>>(result.cache, settings, profile, result);

  set_tuning_profile(profile);
  result.profile = profile;
  if (settings.use_cache_file) {
    std::string err;
    if (!save_tuning_profile(profile, result.cache_path, &err) && settings.verbose)
      std::fprintf(stderr, "vbatch: blas autotune: %s\n", err.c_str());
  }
  if (settings.verbose)
    std::fprintf(stderr, "vbatch: blas autotune: swept %d candidates, saved %s\n",
                 result.candidates_swept, result.cache_path.c_str());
  return result;
}

}  // namespace vbatch
