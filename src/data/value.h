#ifndef FDX_DATA_VALUE_H_
#define FDX_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace fdx {

/// Runtime type of a Value.
enum class ValueType {
  kNull = 0,
  kInt,
  kDouble,
  kString,
};

/// A dynamically typed cell value. Relations in this library are mixed
/// typed (categorical, numerical, text), matching the paper's claim that
/// the pair transform supports heterogeneous data (§3.1): all the
/// discovery algorithms only ever compare cells for equality.
class Value {
 public:
  /// Null (missing) value.
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors. Preconditions: matching type().
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric view: ints widen to double; null and string are 0. Used by
  /// the raw-data GL baseline which standardizes encoded columns.
  double ToNumeric() const;

  /// Renders the value; null renders as the empty string.
  std::string ToString() const;

  /// Parses a CSV field: empty -> null, integer, double, else string.
  /// The one type-inference rule: every CSV reader types its cells here.
  static Value Parse(std::string_view text);

  /// Strict equality: same type and same payload. Two nulls are NOT
  /// equal — a missing value matches nothing, so missing data weakens
  /// rather than fabricates dependencies.
  bool EqualsStrict(const Value& other) const;

  /// Ordering used for sorting columns; nulls sort first, then by type,
  /// then by payload.
  bool LessThan(const Value& other) const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

}  // namespace fdx

#endif  // FDX_DATA_VALUE_H_
