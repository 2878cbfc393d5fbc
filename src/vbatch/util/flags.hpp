// The flag table of the command-line tools (vbatch_cli, trace_replay and the
// gate benches). Header-only. Each program registers its flags bound to the
// variables that hold their defaults, with lower bounds; parse() overwrites
// only what the command line names, and the table generates the usage line.
//
//   * A value whose whole token does not parse (parse.hpp) or falls below its
//     bound, a name outside a choice, a missing value, or an unknown flag
//     prints the usage line and exits 2.
//   * --help prints the usage line and exits 0.
#pragma once

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "vbatch/util/parse.hpp"

namespace vbatch::util {

/// Calls `each` on every comma-separated token of `csv`; false as soon as a
/// token is empty or `each` rejects it.
template <typename F>
bool for_each_csv(std::string_view csv, F&& each) {
  for (const std::string_view tok : split(csv, ','))
    if (tok.empty() || !each(tok)) return false;
  return true;
}

class Flags {
 public:
  explicit Flags(const char* argv0) : argv0_(argv0) {}

  /// "--name N" (integer) or "--name X" (floating point): a number no
  /// smaller than `min`.
  template <typename T>
    requires std::integral<T> || std::floating_point<T>
  Flags& num(const char* name, T& value, std::type_identity_t<T> min) {
    return custom(name, std::integral<T> ? "N" : "X", [&value, min](std::string_view tok) {
      const std::optional<T> v = try_parse_number<T>(tok);
      if (!v || *v < min) return false;
      value = *v;
      return true;
    });
  }

  /// "--name n1,n2,...": a non-empty integer list, every entry >= `min`.
  Flags& list(const char* name, std::vector<int>& values, int min) {
    return custom(name, "n1,n2,...", [&values, min](std::string_view csv) {
      std::vector<int> parsed;
      const bool ok = for_each_csv(csv, [&](std::string_view tok) {
        const std::optional<int> v = try_parse_number<int>(tok);
        if (!v || *v < min) return false;
        parsed.push_back(*v);
        return true;
      });
      if (ok) values = std::move(parsed);
      return ok;
    });
  }

  /// "--name a|b|c": one of the listed names; stores the value paired with it.
  template <typename T>
  Flags& choice(const char* name, T& value, std::vector<std::pair<const char*, T>> options) {
    std::string meta;
    for (const auto& option : options) {
      if (!meta.empty()) meta += '|';
      meta += option.first;
    }
    return custom(name, std::move(meta), [&value, options](std::string_view tok) {
      for (const auto& [key, v] : options)
        if (tok == key) {
          value = v;
          return true;
        }
      return false;
    });
  }

  /// "--name META": any string.
  Flags& text(const char* name, std::string& value, const char* meta = "FILE") {
    return custom(name, meta, [&value](std::string_view tok) {
      value = tok;
      return true;
    });
  }

  /// "--name": takes no value, sets `value` to `to`.
  Flags& toggle(const char* name, bool& value, bool to = true) {
    specs_.push_back({name, "", [&value, to](std::string_view) {
                        value = to;
                        return true;
                      }});
    return *this;
  }

  /// "--name META": `set` stores the value, or returns false to reject it.
  Flags& custom(const char* name, std::string meta, std::function<bool(std::string_view)> set) {
    specs_.push_back({name, std::move(meta), std::move(set)});
    return *this;
  }

  void parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help") usage(0);
      const Spec* spec = nullptr;
      for (const Spec& s : specs_)
        if (arg == s.name) spec = &s;
      if (spec == nullptr) reject("unknown flag", arg);
      if (spec->meta.empty()) {
        spec->set({});
        continue;
      }
      if (i + 1 >= argc) reject("missing value for", arg);
      const std::string_view value = argv[++i];
      if (!spec->set(value)) reject("bad value for " + std::string(arg) + ":", value);
    }
  }

  /// Prints the generated usage line (wrapped under the program name) and
  /// exits with `exit_code`.
  [[noreturn]] void usage(int exit_code) const {
    const std::string lead = std::string("usage: ") + argv0_;
    std::string line = lead;
    std::string text;
    auto put = [&](const std::string& item) {
      if (line.size() + item.size() > 78 && line.size() > lead.size()) {
        text += line + "\n";
        line = std::string(lead.size(), ' ');
      }
      line += item;
    };
    for (const Spec& s : specs_) put(" [" + s.name + (s.meta.empty() ? "" : " " + s.meta) + "]");
    put(" [--help]");
    std::printf("%s%s\n", text.c_str(), line.c_str());
    std::exit(exit_code);
  }

 private:
  struct Spec {
    std::string name;
    std::string meta;  ///< empty = a toggle that takes no value
    std::function<bool(std::string_view)> set;
  };

  [[noreturn]] void reject(const std::string& why, std::string_view what) const {
    std::fprintf(stderr, "%s: %s '%.*s'\n", argv0_, why.c_str(), static_cast<int>(what.size()),
                 what.data());
    usage(2);
  }

  const char* argv0_;
  std::vector<Spec> specs_;
};

}  // namespace vbatch::util
