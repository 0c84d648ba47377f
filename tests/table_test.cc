#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "data/table.h"
#include "scoped_threads.h"

namespace fdx {
namespace {

Table MakeTable() {
  Table t{Schema({"a", "b", "c"})};
  t.AppendRow({Value(int64_t{1}), Value(std::string("x")), Value::Null()});
  t.AppendRow({Value(int64_t{2}), Value(std::string("y")), Value(1.5)});
  t.AppendRow({Value(int64_t{1}), Value(std::string("x")), Value(1.5)});
  return t;
}

TEST(SchemaTest, FindByName) {
  Schema s({"alpha", "beta"});
  EXPECT_EQ(s.Find("alpha"), 0);
  EXPECT_EQ(s.Find("beta"), 1);
  EXPECT_EQ(s.Find("gamma"), -1);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.name(1), "beta");
}

TEST(TableTest, DimensionsAndCells) {
  Table t = MakeTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.cell(0, 0).AsInt(), 1);
  EXPECT_TRUE(t.cell(0, 2).is_null());
  t.set_cell(0, 2, Value(9.0));
  EXPECT_DOUBLE_EQ(t.cell(0, 2).AsDouble(), 9.0);
}

TEST(TableTest, ShuffleRowsPreservesRowIntegrity) {
  Table t = MakeTable();
  Rng rng(5);
  Table shuffled = t.ShuffleRows(&rng);
  EXPECT_EQ(shuffled.num_rows(), 3u);
  // Each original (a, b) pairing must survive as a row.
  std::set<std::string> original, after;
  for (size_t r = 0; r < 3; ++r) {
    original.insert(t.cell(r, 0).ToString() + "|" + t.cell(r, 1).ToString());
    after.insert(shuffled.cell(r, 0).ToString() + "|" +
                 shuffled.cell(r, 1).ToString());
  }
  EXPECT_EQ(original, after);
}

TEST(TableTest, HeadTruncates) {
  Table t = MakeTable();
  EXPECT_EQ(t.Head(2).num_rows(), 2u);
  EXPECT_EQ(t.Head(99).num_rows(), 3u);
  EXPECT_EQ(t.Head(0).num_rows(), 0u);
}

TEST(TableTest, SelectColumns) {
  Table t = MakeTable();
  Table sel = t.SelectColumns({2, 0});
  EXPECT_EQ(sel.num_columns(), 2u);
  EXPECT_EQ(sel.schema().name(0), "c");
  EXPECT_EQ(sel.schema().name(1), "a");
  EXPECT_EQ(sel.cell(1, 1).AsInt(), 2);
}

TEST(EncodedTableTest, CodesAndCardinalities) {
  Table t = MakeTable();
  EncodedTable e = EncodedTable::Encode(t);
  EXPECT_EQ(e.num_rows(), 3u);
  EXPECT_EQ(e.num_columns(), 3u);
  // Column a: values 1, 2, 1 -> codes 0, 1, 0.
  EXPECT_EQ(e.code(0, 0), e.code(2, 0));
  EXPECT_NE(e.code(0, 0), e.code(1, 0));
  EXPECT_EQ(e.Cardinality(0), 2u);
  // Column c has a null.
  EXPECT_EQ(e.code(0, 2), EncodedTable::kNullCode);
  EXPECT_EQ(e.NullCount(2), 1u);
  EXPECT_EQ(e.Cardinality(2), 1u);  // 1.5 twice
  EXPECT_EQ(e.code(1, 2), e.code(2, 2));
}

TEST(EncodedTableTest, NumericCrossTypeShareCodes) {
  Table t{Schema({"x"})};
  t.AppendRow({Value(int64_t{3})});
  t.AppendRow({Value(3.0)});
  EncodedTable e = EncodedTable::Encode(t);
  EXPECT_EQ(e.code(0, 0), e.code(1, 0));
  EXPECT_EQ(e.Cardinality(0), 1u);
}

TEST(TableTest, AdoptsFilledColumns) {
  std::vector<std::vector<Value>> columns(2);
  columns[0] = {Value(int64_t{1}), Value(int64_t{2})};
  columns[1] = {Value(std::string("x")), Value::Null()};
  const Table t(Schema({"a", "b"}), std::move(columns));
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.cell(1, 0).AsInt(), 2);
  EXPECT_TRUE(t.cell(1, 1).is_null());
}

TEST(EncodedTableTest, ParallelEncodeIsIndependentOfThreadCount) {
  const size_t rows = 50000;
  Table t{Schema({"int", "real", "text", "mixed", "sparse"})};
  for (size_t r = 0; r < rows; ++r) {
    const double real = r % 17 == 0 ? std::nan("") : (r % 13) * 0.5 - 3.0;
    t.AppendRow({Value(static_cast<int64_t>(r * 7919 % 997)),
                 Value(r % 19 == 0 ? -0.0 : real),
                 Value("s" + std::to_string(r * 31 % 101)),
                 r % 2 == 0 ? Value(static_cast<int64_t>(r % 5))
                            : Value(static_cast<double>(r % 7)),
                 r % 11 == 0 ? Value(std::string("z")) : Value::Null()});
  }
  EncodedTable reference;
  {
    ScopedThreads one(1);
    reference = EncodedTable::Encode(t);
  }
  // The serial codes follow first appearance of each distinct value;
  // "mixed" merges ints and doubles (0..4 vs 0..6 -> 7 values).
  EXPECT_EQ(reference.Cardinality(0), 997u);
  EXPECT_EQ(reference.Cardinality(1), 14u);  // 13 halves + one NaN
  EXPECT_EQ(reference.Cardinality(2), 101u);
  EXPECT_EQ(reference.Cardinality(3), 7u);
  EXPECT_EQ(reference.Cardinality(4), 1u);
  EXPECT_EQ(reference.NullCount(4), rows - (rows + 10) / 11);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    int32_t next = 0;
    std::map<std::string, int32_t> first;
    for (size_t r = 0; r < rows; ++r) {
      const int32_t code = reference.code(r, c);
      if (t.cell(r, c).is_null()) {
        ASSERT_EQ(code, EncodedTable::kNullCode);
        continue;
      }
      const Value& v = t.cell(r, c);
      std::string key = "s" + v.ToString();
      if (v.type() != ValueType::kString) {
        // Numbers: by value (0.0 for -0.0), every NaN alike.
        const double x = v.ToNumeric() + 0.0;
        key = std::isnan(x) ? "nan" : "n" + std::to_string(x);
      }
      const auto [it, inserted] = first.try_emplace(key, next);
      if (inserted) ++next;
      ASSERT_EQ(code, it->second) << "row " << r << " col " << c;
    }
  }
  for (size_t threads : {2, 4, 8}) {
    ScopedThreads scoped(threads);
    const EncodedTable encoded = EncodedTable::Encode(t);
    EXPECT_EQ(encoded.columns(), reference.columns()) << threads;
    EXPECT_EQ(encoded.cardinalities(), reference.cardinalities()) << threads;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(encoded.NullCount(c), reference.NullCount(c)) << threads;
    }
  }
}

TEST(EncodedTableTest, EmptyTable) {
  Table t{Schema({"x"})};
  EncodedTable e = EncodedTable::Encode(t);
  EXPECT_EQ(e.num_rows(), 0u);
  EXPECT_EQ(e.Cardinality(0), 0u);
}

}  // namespace
}  // namespace fdx
