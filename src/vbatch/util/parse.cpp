#include "vbatch/util/parse.hpp"

#include <charconv>
#include <cmath>
#include <type_traits>

#include "vbatch/util/error.hpp"

namespace vbatch::util {

template <typename T>
std::optional<T> try_parse_number(std::string_view token) noexcept {
  T out{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(out)) return std::nullopt;
  }
  return out;
}

template <typename T>
T parse_number(std::string_view token, std::string_view what) {
  if (const std::optional<T> v = try_parse_number<T>(token)) return *v;
  const char* kind = std::is_floating_point_v<T> ? "a finite number"
                     : std::is_unsigned_v<T>     ? "a non-negative integer"
                                                 : "an integer";
  throw_error(Status::InvalidArgument, std::string(what) + " must be " + kind + " (got '" +
                                           std::string(token) + "')");
}

std::string format_number(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  for (std::size_t at; (at = text.find(sep)) != std::string_view::npos;
       text.remove_prefix(at + 1))
    fields.push_back(text.substr(0, at));
  fields.push_back(text);
  return fields;
}

std::optional<std::pair<std::string_view, std::string_view>> split_kv(std::string_view field) {
  const std::size_t eq = field.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;
  return std::pair{field.substr(0, eq), field.substr(eq + 1)};
}

#define VBATCH_PARSE_NUMBER(T)                                               \
  template std::optional<T> try_parse_number<T>(std::string_view) noexcept; \
  template T parse_number<T>(std::string_view, std::string_view);
VBATCH_PARSE_NUMBER(int)
VBATCH_PARSE_NUMBER(long)
VBATCH_PARSE_NUMBER(long long)
VBATCH_PARSE_NUMBER(unsigned)
VBATCH_PARSE_NUMBER(unsigned long)
VBATCH_PARSE_NUMBER(unsigned long long)
VBATCH_PARSE_NUMBER(float)
VBATCH_PARSE_NUMBER(double)
#undef VBATCH_PARSE_NUMBER

}  // namespace vbatch::util
