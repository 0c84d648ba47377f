#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace fdx {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

Result<int64_t> ParseIntFlag(std::string_view flag, std::string_view text,
                             int64_t min, int64_t max) {
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || ptr != text.data() + text.size() ||
      value < min || value > max) {
    return Status::InvalidArgument(
        std::string(flag) + " must be an integer in [" + std::to_string(min) +
        ", " + std::to_string(max) + "], got \"" + std::string(text) + "\"");
  }
  return value;
}

Result<double> ParseNumberFlag(std::string_view flag, std::string_view text,
                               double min, double max) {
  double value = 0.0;
  if (ParseExact(text, &value) && std::isfinite(value) && value >= min &&
      value <= max) {
    return value;
  }
  std::string range;
  if (max < std::numeric_limits<double>::max()) {
    range = " in [" + ExactDouble(min) + ", " + ExactDouble(max) + "]";
  } else if (min > std::numeric_limits<double>::lowest()) {
    range = " >= " + ExactDouble(min);
  }
  return Status::InvalidArgument(std::string(flag) +
                                 " must be a finite number" + range +
                                 ", got \"" + std::string(text) + "\"");
}

bool FlagValue(std::string_view arg, std::string_view flag,
               std::string_view* value) {
  if (arg.size() <= flag.size() || arg.substr(0, flag.size()) != flag ||
      arg[flag.size()] != '=') {
    return false;
  }
  *value = arg.substr(flag.size() + 1);
  return true;
}

bool ConsumeNumberFlag(std::string_view arg, std::string_view flag,
                       double min, double max, double* out, Status* error) {
  std::string_view value;
  if (!FlagValue(arg, flag, &value)) return false;
  Result<double> parsed = ParseNumberFlag(flag, value, min, max);
  if (parsed.ok()) {
    *out = parsed.value();
  } else {
    *error = parsed.status();
  }
  return true;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return std::string(buf);
}

std::string ExactDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace fdx
