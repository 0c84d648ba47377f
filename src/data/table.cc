#include "data/table.h"

#include <bit>
#include <cassert>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "util/thread_pool.h"

namespace fdx {

int Schema::Find(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Table::Table(Schema schema, std::vector<std::vector<Value>> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  assert(columns_.size() == schema_.size());
}

void Table::ReplaceSchema(Schema schema) {
  assert(schema.size() == columns_.size() || num_rows() == 0);
  columns_.resize(schema.size());
  schema_ = std::move(schema);
}

void Table::AppendRow(std::vector<Value> row) {
  assert(row.size() == columns_.size());
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
}

Table Table::ShuffleRows(Rng* rng) const {
  std::vector<size_t> order(num_rows());
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  Table out(schema_);
  out.columns_.assign(num_columns(), {});
  for (size_t c = 0; c < num_columns(); ++c) {
    out.columns_[c].reserve(num_rows());
    for (size_t r : order) out.columns_[c].push_back(columns_[c][r]);
  }
  return out;
}

Table Table::Head(size_t n) const {
  const size_t rows = std::min(n, num_rows());
  Table out(schema_);
  out.columns_.assign(num_columns(), {});
  for (size_t c = 0; c < num_columns(); ++c) {
    out.columns_[c].assign(columns_[c].begin(), columns_[c].begin() + rows);
  }
  return out;
}

Table Table::SelectColumns(const std::vector<size_t>& cols) const {
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (size_t c : cols) names.push_back(schema_.name(c));
  Table out{Schema(std::move(names))};
  out.columns_.clear();
  for (size_t c : cols) out.columns_.push_back(columns_[c]);
  return out;
}

uint64_t NumericKey(double value) {
  if (value != value) return 0x7ff8000000000000;  // the quiet NaN
  if (value == 0.0) return 0;  // -0.0 joins 0.0
  return std::bit_cast<uint64_t>(value);
}

namespace {

/// Encodes one column: codes by first appearance, separate dictionaries
/// for strings (keyed on the table's own bytes) and numbers (NumericKey).
/// Returns the cardinality.
size_t EncodeColumn(const std::vector<Value>& column,
                    std::vector<int32_t>* codes, size_t* null_count) {
  std::unordered_map<std::string_view, int32_t> string_dict;
  std::unordered_map<uint64_t, int32_t> numeric_dict;
  codes->resize(column.size());
  int32_t next = 0;
  for (size_t r = 0; r < column.size(); ++r) {
    const Value& v = column[r];
    if (v.is_null()) {
      (*codes)[r] = EncodedTable::kNullCode;
      ++*null_count;
      continue;
    }
    if (v.type() == ValueType::kString) {
      const auto [it, inserted] = string_dict.try_emplace(v.AsString(), next);
      (*codes)[r] = it->second;
      if (inserted) ++next;
    } else {
      const auto [it, inserted] =
          numeric_dict.try_emplace(NumericKey(v.ToNumeric()), next);
      (*codes)[r] = it->second;
      if (inserted) ++next;
    }
  }
  return static_cast<size_t>(next);
}

}  // namespace

EncodedTable EncodedTable::Encode(const Table& table) {
  EncodedTable out;
  out.schema_ = table.schema();
  out.num_rows_ = table.num_rows();
  const size_t k = table.num_columns();
  out.codes_.resize(k);
  out.cardinalities_.assign(k, 0);
  out.null_counts_.assign(k, 0);
  // Allocated on the caller's thread, filled on the pool (see ReadCsv):
  // the codes outlive the pool tasks, so they stay out of the pool
  // threads' malloc arenas.
  for (auto& codes : out.codes_) codes.reserve(out.num_rows_);
  ParallelForChunks(0, k, k, 0, [&](size_t, size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      out.cardinalities_[c] = EncodeColumn(table.column(c), &out.codes_[c],
                                           &out.null_counts_[c]);
    }
  });
  return out;
}

}  // namespace fdx
