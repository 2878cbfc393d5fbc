// Shared harness of the plain-main gate benches (EXPERIMENTS.md, "Gate
// benches"): fig_fault_overhead, fig_hetero_scaling, fig_oof_streaming,
// fig_service_coalesce, fig_service_overload, fig_stream_overlap,
// wallclock_engine and wallclock_blas. Header-only, and kept apart from
// bench_common.hpp, which pulls in google-benchmark.
//
//   * Flags — each gate registers its flags, bound to their defaults, with
//     lower bounds; the table generates the usage line. A value whose whole
//     token does not parse or falls below its bound, a missing value, or an
//     unknown flag (--help included) prints the usage line and exits 2.
//   * JsonLine — one JSON object, keys in insertion order. Strings are
//     quoted and escaped, ints and bools print as-is, doubles in shortest
//     round-trip form with non-finite values as null. append_json_lines()
//     appends a gate's lines to its --out file.
//   * Snapshot — info plus factor bytes of one run; == is the bit-identity
//     check. same_outcomes() is its per-request-id form for service reports.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "vbatch/core/batch.hpp"

namespace gate {

/// Parses the whole of `tok` into `out`; false on an empty token, a
/// leftover character, a sign the type cannot hold, or overflow.
template <typename T>
bool parse_whole(std::string_view tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Calls `each` on every comma-separated token of `csv`; false as soon as a
/// token is empty or `each` rejects it.
template <typename F>
bool for_each_csv(std::string_view csv, F&& each) {
  for (;;) {
    const std::size_t comma = csv.find(',');
    const std::string_view tok = csv.substr(0, comma);
    if (tok.empty() || !each(tok)) return false;
    if (comma == std::string_view::npos) return true;
    csv.remove_prefix(comma + 1);
  }
}

/// A gate's flag table. Registration binds each flag to the variable that
/// holds its default; parse() overwrites only what the command line names.
class Flags {
 public:
  explicit Flags(const char* argv0) : argv0_(argv0) {}

  /// "--name N": an integer no smaller than `min`.
  template <std::integral T>
  Flags& num(const char* name, T& value, std::type_identity_t<T> min) {
    return custom(name, "N", [&value, min](std::string_view tok) {
      T v{};
      if (!parse_whole(tok, v) || v < min) return false;
      value = v;
      return true;
    });
  }

  /// "--name n1,n2,...": a non-empty integer list, every entry >= `min`.
  Flags& list(const char* name, std::vector<int>& values, int min) {
    return custom(name, "n1,n2,...", [&values, min](std::string_view csv) {
      std::vector<int> parsed;
      const bool ok = for_each_csv(csv, [&](std::string_view tok) {
        int v = 0;
        if (!parse_whole(tok, v) || v < min) return false;
        parsed.push_back(v);
        return true;
      });
      if (ok) values = std::move(parsed);
      return ok;
    });
  }

  /// "--name FILE": any string.
  Flags& text(const char* name, std::string& value) {
    return custom(name, "FILE", [&value](std::string_view tok) {
      value = tok;
      return true;
    });
  }

  /// "--name": takes no value, sets `value` to true.
  Flags& toggle(const char* name, bool& value) {
    specs_.push_back({name, nullptr, [&value](std::string_view) {
                        value = true;
                        return true;
                      }});
    return *this;
  }

  /// "--name META": `set` stores the value, or returns false to reject it.
  Flags& custom(const char* name, const char* meta, std::function<bool(std::string_view)> set) {
    specs_.push_back({name, meta, std::move(set)});
    return *this;
  }

  void parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const Spec* spec = nullptr;
      for (const Spec& s : specs_)
        if (arg == s.name) spec = &s;
      if (spec == nullptr) reject("unknown flag", arg);
      if (spec->meta == nullptr) {
        spec->set({});
        continue;
      }
      if (i + 1 >= argc) reject("missing value for", arg);
      const std::string_view value = argv[++i];
      if (!spec->set(value)) reject("bad value for " + std::string(arg) + ":", value);
    }
  }

 private:
  struct Spec {
    const char* name;
    const char* meta;  ///< nullptr = a toggle that takes no value
    std::function<bool(std::string_view)> set;
  };

  /// Prints the generated usage line (wrapped under the program name) and
  /// exits 2.
  [[noreturn]] void usage() const {
    const std::string lead = std::string("usage: ") + argv0_;
    std::string line = lead;
    std::string text;
    for (const Spec& s : specs_) {
      std::string item = std::string(" [") + s.name;
      if (s.meta != nullptr) item += std::string(" ") + s.meta;
      item += "]";
      if (line.size() + item.size() > 78 && line.size() > lead.size()) {
        text += line + "\n";
        line = std::string(lead.size(), ' ');
      }
      line += item;
    }
    std::printf("%s%s\n", text.c_str(), line.c_str());
    std::exit(2);
  }

  [[noreturn]] void reject(const std::string& why, std::string_view what) const {
    std::fprintf(stderr, "%s: %s '%.*s'\n", argv0_, why.c_str(), static_cast<int>(what.size()),
                 what.data());
    usage();
  }

  const char* argv0_;
  std::vector<Spec> specs_;
};

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
    if (!std::isfinite(v)) return "null";
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, static_cast<double>(v)).ptr);
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
