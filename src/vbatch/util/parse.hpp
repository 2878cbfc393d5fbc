// Strict text input: the one place that decides how a number is read from
// and written to text (docs/api.md, "Text inputs"). The service trace, the
// fault spec, the DevicePool list, VBATCH_ADMISSION, the tuning profile, the
// numeric environment variables and the tools' flag table (flags.hpp) all
// read numbers through parse_number; the formatters write them through
// format_number, so whatever they print reads back bit for bit.
//
// A number is one whole token in decimal or exponent form: no leading '+',
// no hex, no whitespace, nothing left over. Integer fields read as integers
// ("2.0" and "1e1" are not integers), unsigned fields refuse a '-', and a
// floating-point value must be finite.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vbatch::util {

/// Reads the whole of `token` as a T; nullopt on an empty token, a leftover
/// character, a sign T cannot hold, overflow, or a non-finite value.
/// Instantiated for int, long, long long, their unsigned forms, float and
/// double.
template <typename T>
[[nodiscard]] std::optional<T> try_parse_number(std::string_view token) noexcept;

/// try_parse_number that throws Status::InvalidArgument instead, naming the
/// field and the token: "<what> must be an integer (got '<token>')".
template <typename T>
[[nodiscard]] T parse_number(std::string_view token, std::string_view what);

/// The shortest text that reads back to exactly `v` (std::to_chars).
[[nodiscard]] std::string format_number(double v);

/// Splits `text` at every `sep`, keeping empty fields for the caller to
/// judge: "a,,b" gives three fields and "" one empty field. The views point
/// into `text`.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char sep);

/// Splits "key=value" at its first '='; nullopt when there is no '=' or the
/// key is empty. The value may be empty.
[[nodiscard]] std::optional<std::pair<std::string_view, std::string_view>> split_kv(
    std::string_view field);

}  // namespace vbatch::util
