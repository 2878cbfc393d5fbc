#include "vbatch/blas/tuning.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "vbatch/blas/microkernel.hpp"
#include "vbatch/blas/microkernel_tile.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"
#include "vbatch/util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace vbatch::blas::micro {

namespace {

constexpr const char* kTypeKeys[4] = {"float", "double", "cfloat", "cdouble"};

// The single source of truth for the engine's (ISA, profile) pair: the
// profile carries its ISA, so the two can never disagree. Lazily resolved
// from VBATCH_ISA / cpuid on first use. Like set_dispatch, mutation is
// documented as not-while-kernels-are-in-flight; readers take no lock.
TuningProfile& profile_slot() noexcept {
  static TuningProfile p = TuningProfile::defaults(detail::initial_isa());
  return p;
}

}  // namespace

// active_isa / set_isa are declared in isa.hpp but live here so they share
// profile_slot() with the profile accessors (changing the ISA re-derives the
// default profile for it; a tuned profile is per-ISA by construction).
Isa active_isa() noexcept { return profile_slot().isa; }

Isa set_isa(Isa i) noexcept {
  const Isa got = detail::clamp_isa(i);
  if (profile_slot().isa != got) profile_slot() = TuningProfile::defaults(got);
  return got;
}

TuningProfile TuningProfile::defaults(Isa isa) noexcept {
  TuningProfile p;
  p.isa = isa;
  // Scalar anchors: exactly the PR 2 Tiling<T> constants and their
  // `use_blocked` crossover (min_m = MR, min_mnk = 4096) — Isa::Scalar runs
  // reproduce the PR 2 engine bit for bit.
  p.shapes[0] = {8, 4, 256, 128, 512, 8, 4096.0};
  p.shapes[1] = {4, 4, 256, 128, 256, 4, 4096.0};
  p.shapes[2] = {4, 2, 128, 96, 256, 4, 4096.0};
  p.shapes[3] = {2, 2, 128, 96, 256, 2, 4096.0};
  switch (isa) {
    case Isa::Scalar:
    case Isa::Sse2:
    case Isa::Neon:
      // The scalar MR are already multiples of the 128-bit widths (float 8 =
      // 2×4 lanes, double 4 = 2×2), so the 128-bit tiles slot straight in.
      break;
    case Isa::Avx2:
      p.shapes[0] = {16, 6, 256, 128, 512, 8, 4096.0};
      p.shapes[1] = {8, 6, 256, 96, 512, 8, 4096.0};
      break;
    case Isa::Avx512:
      p.shapes[0] = {32, 6, 256, 128, 512, 8, 4096.0};
      p.shapes[1] = {16, 6, 256, 96, 512, 8, 4096.0};
      break;
  }
  return p;
}

template <typename T>
const KernelShape& shape_of(const TuningProfile& p) noexcept {
  return p.shapes[detail::type_index_v<T>];
}

template const KernelShape& shape_of<float>(const TuningProfile&) noexcept;
template const KernelShape& shape_of<double>(const TuningProfile&) noexcept;
template const KernelShape& shape_of<std::complex<float>>(const TuningProfile&) noexcept;
template const KernelShape& shape_of<std::complex<double>>(const TuningProfile&) noexcept;

const TuningProfile& active_profile() noexcept { return profile_slot(); }

void set_tuning_profile(const TuningProfile& p) {
  std::string why;
  if (!validate_profile(p, &why)) throw Error(Status::InvalidArgument, "tuning profile: " + why);
  if (!isa_supported(p.isa))
    throw Error(Status::NotSupported,
                std::string("tuning profile targets ") + to_string(p.isa) +
                    ", which this host cannot execute");
  profile_slot() = p;
}

void reset_tuning_profile() noexcept {
  profile_slot() = TuningProfile::defaults(profile_slot().isa);
}

bool validate_profile(const TuningProfile& p, std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (p.isa < Isa::Scalar || p.isa > Isa::Avx512) return fail("unknown isa value");
  for (int t = 0; t < 4; ++t) {
    const KernelShape& s = p.shapes[t];
    const std::string at = std::string(kTypeKeys[t]) + ": ";
    if (s.mr < 1 || s.mr > kMaxMR) return fail(at + "mr out of [1, " + std::to_string(kMaxMR) + "]");
    if (s.nr < 1 || s.nr > kMaxNR) return fail(at + "nr out of [1, " + std::to_string(kMaxNR) + "]");
    if (s.kc < 8 || s.kc > 4096) return fail(at + "kc out of [8, 4096]");
    if (s.mc < s.mr || s.mc > 65536) return fail(at + "mc out of [mr, 65536]");
    if (s.nc < s.nr || s.nc > 1048576) return fail(at + "nc out of [nr, 1048576]");
    if (s.min_m < 1 || s.min_m > 4096) return fail(at + "min_m out of [1, 4096]");
    if (!(s.min_mnk >= 0.0) || s.min_mnk > 1e12) return fail(at + "min_mnk out of [0, 1e12]");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {

std::string sanitized_hostname() {
  char buf[256] = {};
#if defined(__unix__) || defined(__APPLE__)
  if (gethostname(buf, sizeof(buf) - 1) != 0) buf[0] = '\0';
#endif
  std::string host = buf[0] ? buf : "host";
  for (char& c : host)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '.') c = '_';
  return host;
}

// Minimal scanner: locates `"key"` inside [from, to) and reads the number
// token after the following ':' (up to the next ',', '}' or whitespace) as
// a T. Returns false when the key is absent or the token is not a T — the
// caller treats the file as corrupt.
template <typename T>
bool scan_number(const std::string& text, std::size_t from, std::size_t to, const char* key,
                 T* out) {
  const std::string needle = std::string("\"") + key + "\"";
  const std::size_t kpos = text.find(needle, from);
  if (kpos == std::string::npos || kpos >= to) return false;
  std::size_t p = kpos + needle.size();
  while (p < to && (text[p] == ':' || std::isspace(static_cast<unsigned char>(text[p])))) ++p;
  const std::size_t end = std::min(to, text.find_first_of(",} \t\r\n", p));
  const std::optional<T> v = util::try_parse_number<T>(std::string_view(text).substr(p, end - p));
  if (!v) return false;
  *out = *v;
  return true;
}

}  // namespace

std::string tuning_cache_path(Isa isa) {
  if (const char* env = std::getenv("VBATCH_TUNING_FILE"); env && env[0] != '\0') return env;
  std::string base;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && xdg[0] != '\0') {
    base = xdg;
  } else if (const char* home = std::getenv("HOME"); home && home[0] != '\0') {
    base = std::string(home) + "/.cache";
  } else {
    base = ".";
  }
  return base + "/vbatch/tuning-" + sanitized_hostname() + "-" + to_string(isa) + ".json";
}

bool save_tuning_profile(const TuningProfile& p, const std::string& path, std::string* err) {
  std::string why;
  if (!validate_profile(p, &why)) {
    if (err) *err = "refusing to save invalid profile: " + why;
    return false;
  }
  std::error_code ec;
  const std::filesystem::path fspath(path);
  if (fspath.has_parent_path()) std::filesystem::create_directories(fspath.parent_path(), ec);

  std::ostringstream os;
  os << "{\n  \"vbatch_tuning\": true,\n  \"version\": " << kTuningFormatVersion
     << ",\n  \"host\": \"" << sanitized_hostname() << "\",\n  \"isa\": \"" << to_string(p.isa)
     << "\",\n  \"shapes\": {";
  for (int t = 0; t < 4; ++t) {
    const KernelShape& s = p.shapes[t];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n    \"%s\": {\"mr\": %d, \"nr\": %d, \"kc\": %lld, \"mc\": %lld, "
                  "\"nc\": %lld, \"min_m\": %lld, \"min_mnk\": %s}",
                  t ? "," : "", kTypeKeys[t], s.mr, s.nr, static_cast<long long>(s.kc),
                  static_cast<long long>(s.mc), static_cast<long long>(s.nc),
                  static_cast<long long>(s.min_m), util::format_number(s.min_mnk).c_str());
    os << line;
  }
  os << "\n  }\n}\n";

  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    if (err) *err = "cannot open " + path + " for writing";
    return false;
  }
  f << os.str();
  f.flush();
  if (!f) {
    if (err) *err = "short write to " + path;
    return false;
  }
  return true;
}

std::optional<TuningProfile> load_tuning_profile(const std::string& path, std::string* why) {
  auto fail = [&](const std::string& msg) -> std::optional<TuningProfile> {
    if (why) *why = msg;
    return std::nullopt;
  };
  std::ifstream f(path);
  if (!f) return fail("cannot open " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();

  if (text.find("\"vbatch_tuning\"") == std::string::npos)
    return fail("not a vbatch tuning file");
  int version = 0;
  if (!scan_number(text, 0, text.size(), "version", &version)) return fail("missing version");
  if (version != kTuningFormatVersion)
    return fail("stale format version " + std::to_string(version) +
                " (expected " + std::to_string(kTuningFormatVersion) + ")");

  TuningProfile p;
  {
    const std::size_t ipos = text.find("\"isa\"");
    if (ipos == std::string::npos) return fail("missing isa");
    const std::size_t q1 = text.find('"', text.find(':', ipos));
    const std::size_t q2 = q1 == std::string::npos ? q1 : text.find('"', q1 + 1);
    if (q2 == std::string::npos) return fail("malformed isa");
    const auto parsed = parse_isa(text.substr(q1 + 1, q2 - q1 - 1));
    if (!parsed) return fail("unknown isa \"" + text.substr(q1 + 1, q2 - q1 - 1) + "\"");
    p.isa = *parsed;
  }

  for (int t = 0; t < 4; ++t) {
    const std::string key = std::string("\"") + kTypeKeys[t] + "\"";
    const std::size_t spos = text.find(key);
    if (spos == std::string::npos) return fail(std::string("missing shape ") + kTypeKeys[t]);
    const std::size_t open = text.find('{', spos);
    const std::size_t close = open == std::string::npos ? open : text.find('}', open);
    if (close == std::string::npos) return fail(std::string("malformed shape ") + kTypeKeys[t]);
    KernelShape& s = p.shapes[t];
    const char* bad = nullptr;
    const auto read = [&](const char* key, auto* field) {
      if (bad == nullptr && !scan_number(text, open, close, key, field)) bad = key;
    };
    read("mr", &s.mr);
    read("nr", &s.nr);
    read("kc", &s.kc);
    read("mc", &s.mc);
    read("nc", &s.nc);
    read("min_m", &s.min_m);
    read("min_mnk", &s.min_mnk);
    if (bad != nullptr)
      return fail(std::string(kTypeKeys[t]) + ": missing or malformed field " + bad);
  }

  std::string vwhy;
  if (!validate_profile(p, &vwhy)) return fail("invalid profile: " + vwhy);
  return p;
}

// ---------------------------------------------------------------------------
// Measurement primitive
// ---------------------------------------------------------------------------

template <typename T>
double benchmark_shape(const KernelShape& shape, index_t n, int reps) {
  require(n >= 1 && reps >= 1, "benchmark_shape: bad arguments");
  const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<T> a(nn), b(nn), c(nn);
  Rng rng(42);
  fill_general(rng, a.data(), n, n, n);
  fill_general(rng, b.data(), n, n, n);
  ConstMatrixView<T> av(a.data(), n, n, n);
  ConstMatrixView<T> bv(b.data(), n, n, n);
  MatrixView<T> cv(c.data(), n, n, n);

  const double flops = (is_complex_v<T> ? 8.0 : 2.0) * static_cast<double>(n) *
                       static_cast<double>(n) * static_cast<double>(n);
  auto call = [&] {
    gemm_blocked_shaped<T>(Trans::NoTrans, Trans::Trans, T(1), av, bv, T(0), cv, shape);
  };
  call();  // warm the packing buffers and the instruction cache

  const int inner = std::clamp(static_cast<int>(2e7 / std::max(flops, 1.0)), 1, 4096);
  auto now = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    for (int i = 0; i < inner; ++i) call();
    best = std::min(best, (now() - t0) / inner);
  }
  return flops / best * 1e-9;
}

template double benchmark_shape<float>(const KernelShape&, index_t, int);
template double benchmark_shape<double>(const KernelShape&, index_t, int);
template double benchmark_shape<std::complex<float>>(const KernelShape&, index_t, int);
template double benchmark_shape<std::complex<double>>(const KernelShape&, index_t, int);

}  // namespace vbatch::blas::micro
