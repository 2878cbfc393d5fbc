// Shared harness of the plain-main gate benches (EXPERIMENTS.md, "Gate
// benches"): fig_fault_overhead, fig_hetero_scaling, fig_oof_streaming,
// fig_service_coalesce, fig_service_overload, fig_stream_overlap,
// wallclock_engine and wallclock_blas. Header-only, and kept apart from
// bench_common.hpp, which pulls in google-benchmark.
//
//   * Flags — the tools' flag table (vbatch/util/flags.hpp): each gate
//     registers its flags, bound to their defaults, with lower bounds; the
//     table generates the usage line. A value whose whole token does not
//     parse or falls below its bound, a missing value, or an unknown flag
//     prints the usage line and exits 2; --help prints it and exits 0.
//   * JsonLine — one JSON object, keys in insertion order. Strings are
//     quoted and escaped, ints and bools print as-is, doubles in shortest
//     round-trip form with non-finite values as null. append_json_lines()
//     appends a gate's lines to its --out file.
//   * Snapshot — info plus factor bytes of one run; == is the bit-identity
//     check. same_outcomes() is its per-request-id form for service reports.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "vbatch/core/batch.hpp"
#include "vbatch/util/flags.hpp"

namespace gate {

using vbatch::util::Flags;
using vbatch::util::for_each_csv;

// --- JSON encoding ---------------------------------------------------------

inline std::string to_json(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(ch));
          out += esc;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

template <typename T>
  requires std::is_arithmetic_v<T>
std::string to_json(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    return std::isfinite(v) ? vbatch::util::format_number(static_cast<double>(v)) : "null";
  }
}

template <typename T>
std::string to_json(const std::vector<T>& values) {
  std::string out = "[";
  for (const T& v : values) {
    if (out.size() > 1) out += ", ";
    out += to_json(v);
  }
  return out + "]";
}

/// One encoded JSON value, implicitly built from a string, number, bool,
/// array or object.
struct Json {
  template <typename T>
  Json(const T& value) : text(to_json(value)) {}  // implicit: fields read {"key", value}
  std::string text;
};

/// One JSON object, keys in insertion order.
class JsonLine {
 public:
  struct Field {
    std::string_view key;
    Json value;
  };

  JsonLine() = default;
  JsonLine(std::initializer_list<Field> fields) {
    for (const Field& f : fields) add(f.key, f.value);
  }

  JsonLine& add(std::string_view key, const Json& value) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += to_json(key) + ": " + value.text;
    return *this;
  }

  [[nodiscard]] std::string str() const { return (body_.empty() ? "{" : body_) + "}"; }

 private:
  std::string body_;
};

inline std::string to_json(const JsonLine& obj) { return obj.str(); }

/// Appends `lines` to `path`, one object per line; warns on stderr and
/// writes nothing when the file cannot be opened for append.
inline void append_json_lines(const std::string& path, const std::vector<JsonLine>& lines) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not open %s for append\n", path.c_str());
    return;
  }
  for (const JsonLine& line : lines) std::fprintf(f, "%s\n", line.str().c_str());
  std::fclose(f);
}

// --- Bit identity ------------------------------------------------------------

/// What a run must reproduce bit for bit: the info array and the raw bytes
/// of every factor.
struct Snapshot {
  std::vector<int> info;
  std::vector<std::vector<unsigned char>> factors;

  template <typename T>
  static Snapshot of(vbatch::Batch<T>& batch) {
    Snapshot s;
    s.info.assign(batch.info().begin(), batch.info().end());
    for (int i = 0; i < batch.count(); ++i) {
      const std::vector<T> m = batch.copy_matrix(i);
      const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
      s.factors.emplace_back(bytes, bytes + m.size() * sizeof(T));
    }
    return s;
  }

  bool operator==(const Snapshot&) const = default;
};

/// Bit identity per request id across two service reports: every outcome
/// of `run` that `keep` selects needs a same-id outcome in `ref` with equal
/// info and factor bytes.
template <typename Report, typename Keep>
bool same_outcomes(const Report& run, const Report& ref, Keep keep) {
  using Outcome = typename decltype(Report::outcomes)::value_type;
  std::map<std::uint64_t, const Outcome*> by_id;
  for (const Outcome& out : ref.outcomes) by_id[out.id] = &out;
  for (const Outcome& out : run.outcomes) {
    if (!keep(out)) continue;
    const auto it = by_id.find(out.id);
    if (it == by_id.end() || out.info != it->second->info ||
        out.factors != it->second->factors)
      return false;
  }
  return true;
}

}  // namespace gate
