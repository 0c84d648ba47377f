#ifndef FDX_UTIL_STRING_UTIL_H_
#define FDX_UTIL_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fdx {

/// Splits `text` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view text);

/// Parses the value of an integer command-line flag (`flag` is its name,
/// e.g. "--workers"): the whole of `text` must be a decimal integer in
/// [min, max]. The error names the flag, the range and the bad value.
Result<int64_t> ParseIntFlag(std::string_view flag, std::string_view text,
                             int64_t min, int64_t max);

/// Parses the value of a number command-line flag (`flag` is its name,
/// e.g. "--lambda"): the whole of `text` must be a finite number in
/// [min, max]. The error names the flag, the range (a bound at the
/// limit of double goes unstated) and the bad value.
Result<double> ParseNumberFlag(std::string_view flag, std::string_view text,
                               double min, double max);

/// When `arg` is `flag=VALUE`, points `*value` at VALUE and returns true.
bool FlagValue(std::string_view arg, std::string_view flag,
               std::string_view* value);

/// Command-line helpers around ParseIntFlag / ParseNumberFlag: when
/// `arg` is `flag=VALUE`, store the parsed VALUE in `*out` (or the error
/// in `*error`) and return true; for any other argument they return
/// false and touch nothing.
template <typename T>
bool ConsumeIntFlag(std::string_view arg, std::string_view flag, int64_t min,
                    int64_t max, T* out, Status* error) {
  std::string_view value;
  if (!FlagValue(arg, flag, &value)) return false;
  Result<int64_t> parsed = ParseIntFlag(flag, value, min, max);
  if (parsed.ok()) {
    *out = static_cast<T>(parsed.value());
  } else {
    *error = parsed.status();
  }
  return true;
}
bool ConsumeNumberFlag(std::string_view arg, std::string_view flag,
                       double min, double max, double* out, Status* error);

/// Formats a double with fixed precision (used by report tables).
std::string FormatDouble(double value, int precision);

/// Locale-free %.17g rendering of a double: parsing the text back gives
/// the same bits for every finite value. The codec of persisted doubles
/// (options keys, session snapshots, chunk-store dictionaries).
std::string ExactDouble(double value);

/// Parses all of `text` as an unsigned integer or a double: no sign on
/// unsigned types, no whitespace, no trailing bytes, no overflow.
template <typename T>
bool ParseExact(std::string_view text, T* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return !text.empty() && ec == std::errc() &&
         ptr == text.data() + text.size();
}

}  // namespace fdx

#endif  // FDX_UTIL_STRING_UTIL_H_
