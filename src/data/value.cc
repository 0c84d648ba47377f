#include "data/value.h"

#include <charconv>
#include <cstdio>

namespace fdx {

double Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return 0.0;
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return AsString();
  }
  return "";
}

Value Value::Parse(std::string_view text) {
  if (text.empty()) return Value::Null();
  const char* const end = text.data() + text.size();
  int64_t integer = 0;
  const auto as_int = std::from_chars(text.data(), end, integer);
  if (as_int.ec == std::errc() && as_int.ptr == end) return Value(integer);
  double real = 0.0;
  const auto as_double = std::from_chars(text.data(), end, real);
  if (as_double.ec == std::errc() && as_double.ptr == end) return Value(real);
  return Value(std::string(text));
}

bool Value::EqualsStrict(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  if (type() != other.type()) {
    // Allow int/double cross-type numeric equality so CSV round trips
    // (e.g. "3" vs "3.0") do not break dependencies.
    if ((type() == ValueType::kInt && other.type() == ValueType::kDouble) ||
        (type() == ValueType::kDouble && other.type() == ValueType::kInt)) {
      return ToNumeric() == other.ToNumeric();
    }
    return false;
  }
  return data_ == other.data_;
}

bool Value::LessThan(const Value& other) const {
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type());
  }
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return AsInt() < other.AsInt();
    case ValueType::kDouble:
      return AsDouble() < other.AsDouble();
    case ValueType::kString:
      return AsString() < other.AsString();
  }
  return false;
}

}  // namespace fdx
