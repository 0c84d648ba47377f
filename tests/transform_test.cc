#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "core/pairs.h"
#include "core/transform.h"
#include "core/transform_kernels.h"
#include "data/csv.h"
#include "linalg/stats.h"
#include "store/chunked_table.h"
#include "store/stream_transform.h"
#include "synth/generator.h"
#include "util/reservoir.h"
#include "scoped_threads.h"

namespace fdx {
namespace {

Table TableFromCsv(const std::string& text) {
  auto t = ParseCsv(text);
  EXPECT_TRUE(t.ok());
  return *t;
}

// ---------------------------------------------------------------------------
// Scalar reference implementation of Algorithm 2, kept verbatim from the
// pre-packed engine (std::stable_sort + materialized pair vectors +
// double-by-double accumulation). The packed kernels must reproduce it
// *bitwise*: same pair order, same integer counts, same derived doubles.

std::vector<std::pair<size_t, size_t>> RefPairsForAttribute(
    const EncodedTable& encoded, const std::vector<size_t>& shuffled,
    size_t attr, size_t max_pairs, uint64_t attr_seed) {
  std::vector<size_t> order = shuffled;
  const auto& codes = encoded.column_codes(attr);
  std::stable_sort(order.begin(), order.end(),
                   [&codes](size_t a, size_t b) { return codes[a] < codes[b]; });
  const size_t n = order.size();
  std::vector<std::pair<size_t, size_t>> pairs;
  if (n < 2) return pairs;
  if (max_pairs == 0 || max_pairs >= n) {
    pairs.reserve(n);
    for (size_t j = 0; j + 1 < n; ++j) pairs.emplace_back(order[j], order[j + 1]);
    pairs.emplace_back(order[n - 1], order[0]);
    return pairs;
  }
  // Sampled variant: the engine draws max_pairs sorted positions from a
  // seeded reservoir (Algorithm R) and emits them ascending.
  pairs.reserve(max_pairs);
  ReservoirSampler sampler(max_pairs, attr_seed);
  sampler.AddRange(0, static_cast<uint32_t>(n));
  for (uint32_t j : sampler.Sorted()) {
    const size_t next = j + 1 == n ? 0 : j + 1;
    pairs.emplace_back(order[j], order[next]);
  }
  return pairs;
}

uint8_t RefEqualCodes(int32_t a, int32_t b) {
  return (a != EncodedTable::kNullCode && a == b) ? 1 : 0;
}

struct RefSetup {
  EncodedTable encoded;
  std::vector<size_t> shuffled;
  std::vector<uint64_t> attr_seeds;
};

RefSetup MakeRefSetup(const Table& table, const TransformOptions& options) {
  RefSetup setup;
  setup.encoded = EncodedTable::Encode(table);
  Rng rng(options.seed);
  setup.shuffled.resize(table.num_rows());
  std::iota(setup.shuffled.begin(), setup.shuffled.end(), 0);
  rng.Shuffle(&setup.shuffled);
  setup.attr_seeds.resize(table.num_columns());
  for (size_t attr = 0; attr < setup.attr_seeds.size(); ++attr) {
    setup.attr_seeds[attr] = rng.engine()();
  }
  return setup;
}

Matrix RefTransform(const Table& table, const TransformOptions& options) {
  const RefSetup setup = MakeRefSetup(table, options);
  const size_t k = table.num_columns();
  const size_t n = table.num_rows();
  const size_t per_attr =
      (options.max_pairs_per_attribute == 0 ||
       options.max_pairs_per_attribute >= n)
          ? n
          : options.max_pairs_per_attribute;
  Matrix out(per_attr * k, k);
  for (size_t attr = 0; attr < k; ++attr) {
    const auto pairs = RefPairsForAttribute(
        setup.encoded, setup.shuffled, attr, options.max_pairs_per_attribute,
        setup.attr_seeds[attr]);
    size_t row = attr * per_attr;
    for (const auto& [a, b] : pairs) {
      double* out_row = out.RowPtr(row++);
      for (size_t c = 0; c < k; ++c) {
        out_row[c] =
            RefEqualCodes(setup.encoded.code(a, c), setup.encoded.code(b, c));
      }
    }
  }
  return out;
}

struct RefMomentsResult {
  std::vector<uint64_t> counts;
  std::vector<uint64_t> co_counts;
  size_t total = 0;
  Vector mean;
  Matrix cov;
};

RefMomentsResult RefMoments(const Table& table,
                            const TransformOptions& options) {
  const RefSetup setup = MakeRefSetup(table, options);
  const size_t k = table.num_columns();
  RefMomentsResult ref;
  ref.counts.assign(k, 0);
  ref.co_counts.assign(k * k, 0);
  std::vector<uint64_t> pass_counts(k, 0);
  std::vector<uint64_t> pass_co_counts(k * k, 0);
  std::vector<Matrix> pass_cov(k);
  std::vector<size_t> ones;
  for (size_t attr = 0; attr < k; ++attr) {
    const auto pairs = RefPairsForAttribute(
        setup.encoded, setup.shuffled, attr, options.max_pairs_per_attribute,
        setup.attr_seeds[attr]);
    std::fill(pass_counts.begin(), pass_counts.end(), 0);
    std::fill(pass_co_counts.begin(), pass_co_counts.end(), 0);
    for (const auto& [a, b] : pairs) {
      ones.clear();
      for (size_t c = 0; c < k; ++c) {
        if (RefEqualCodes(setup.encoded.code(a, c), setup.encoded.code(b, c))) {
          ones.push_back(c);
        }
      }
      for (size_t x : ones) {
        ++ref.counts[x];
        ++pass_counts[x];
        for (size_t y : ones) {
          if (y < x) continue;
          ++ref.co_counts[x * k + y];
          ++pass_co_counts[x * k + y];
        }
      }
    }
    ref.total += pairs.size();
    if (options.pooled_covariance && !pairs.empty()) {
      Matrix cov(k, k);
      const double inv_pass = 1.0 / static_cast<double>(pairs.size());
      for (size_t x = 0; x < k; ++x) {
        const double mean_x = static_cast<double>(pass_counts[x]) * inv_pass;
        for (size_t y = x; y < k; ++y) {
          const double mean_y = static_cast<double>(pass_counts[y]) * inv_pass;
          const double exy =
              static_cast<double>(pass_co_counts[x * k + y]) * inv_pass;
          const double value = exy - mean_x * mean_y;
          cov(x, y) = value;
          cov(y, x) = value;
        }
      }
      pass_cov[attr] = std::move(cov);
    }
  }
  ref.mean.assign(k, 0.0);
  const double inv_n = 1.0 / static_cast<double>(ref.total);
  for (size_t c = 0; c < k; ++c) {
    ref.mean[c] = static_cast<double>(ref.counts[c]) * inv_n;
  }
  if (options.pooled_covariance) {
    Matrix pooled(k, k);
    size_t passes = 0;
    for (size_t attr = 0; attr < k; ++attr) {
      if (pass_cov[attr].empty()) continue;
      pooled = pooled.Add(pass_cov[attr]);
      ++passes;
    }
    ref.cov = pooled.Scale(1.0 / static_cast<double>(passes));
    return ref;
  }
  ref.cov = Matrix(k, k);
  for (size_t x = 0; x < k; ++x) {
    for (size_t y = x; y < k; ++y) {
      const double exy =
          static_cast<double>(ref.co_counts[x * k + y]) * inv_n;
      const double value = exy - ref.mean[x] * ref.mean[y];
      ref.cov(x, y) = value;
      ref.cov(y, x) = value;
    }
  }
  return ref;
}

/// A table with ties (small domain) and ~15% nulls, the adversarial
/// regime for the sort's stability and the null-never-matches rule.
Table NoisyTiedTable(size_t rows, size_t cols, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("a" + std::to_string(c));
  Table t{Schema(std::move(names))};
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBernoulli(0.15)) {
        row.emplace_back();  // null
      } else {
        row.emplace_back(Value(rng.NextInt(0, 3)));  // heavy ties
      }
    }
    t.AppendRow(std::move(row));
  }
  return t;
}

/// Integer moments of a materialized 0/1 sample matrix, in the
/// PairTransformCounts layout (upper triangle + diagonal).
TransformCounts CountsOfMatrix(const Matrix& samples) {
  const size_t k = samples.cols();
  TransformCounts out;
  out.counts.assign(k, 0);
  out.co_counts.assign(k * k, 0);
  out.num_samples = samples.rows();
  for (size_t r = 0; r < samples.rows(); ++r) {
    for (size_t x = 0; x < k; ++x) {
      if (samples(r, x) == 0.0) continue;
      ++out.counts[x];
      for (size_t y = x; y < k; ++y) {
        if (samples(r, y) != 0.0) ++out.co_counts[x * k + y];
      }
    }
  }
  return out;
}

/// The production counts must be exactly the moments of the reference
/// sample matrix.
void ExpectCountsMatchReferenceMatrix(const Table& table,
                                      const TransformOptions& options) {
  const TransformCounts ref = CountsOfMatrix(RefTransform(table, options));
  auto counts = PairTransformCounts(table, options);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(counts->num_samples, ref.num_samples);
  EXPECT_EQ(counts->counts, ref.counts);
  EXPECT_EQ(counts->co_counts, ref.co_counts);
}

TEST(TransformTest, OutputIsBinaryWithExpectedShape) {
  Table t = TableFromCsv("a,b\n1,x\n2,y\n1,x\n3,z\n");
  const Matrix dt = RefTransform(t, {});
  // Algorithm 2: n pairs per attribute.
  EXPECT_EQ(dt.rows(), 4u * 2u);
  EXPECT_EQ(dt.cols(), 2u);
  for (size_t i = 0; i < dt.rows(); ++i) {
    for (size_t j = 0; j < dt.cols(); ++j) {
      const double v = dt(i, j);
      EXPECT_TRUE(v == 0.0 || v == 1.0);
    }
  }
  auto counts = PairTransformCounts(t);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->num_samples, 4u * 2u);
  ExpectCountsMatchReferenceMatrix(t, {});
}

TEST(TransformTest, RejectsDegenerateInputs) {
  Table empty{Schema({"a"})};
  EXPECT_FALSE(PairTransformCounts(empty).ok());
  Table one_row{Schema({"a"})};
  one_row.AppendRow({Value(int64_t{1})});
  EXPECT_FALSE(PairTransformCounts(one_row).ok());
  EXPECT_FALSE(PairTransformMoments(empty).ok());
}

TEST(TransformTest, ConstantColumnAlwaysAgrees) {
  Table t = TableFromCsv("c,v\nk,1\nk,2\nk,3\nk,4\n");
  auto counts = PairTransformCounts(t);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->counts[0], counts->num_samples);
  ExpectCountsMatchReferenceMatrix(t, {});
}

TEST(TransformTest, NullNeverAgrees) {
  Table t = TableFromCsv("a\n\n\n\n\n");  // all nulls
  auto counts = PairTransformCounts(t);
  ASSERT_TRUE(counts.ok());
  EXPECT_GT(counts->num_samples, 0u);
  EXPECT_EQ(counts->counts[0], 0u);
  ExpectCountsMatchReferenceMatrix(t, {});
}

TEST(TransformTest, FdImpliesConditionalAgreement) {
  // On clean data with FD x -> y, any pair that agrees on x agrees on y.
  // Checked sample by sample on the reference matrix, whose moments the
  // production counts reproduce exactly.
  SyntheticConfig config;
  config.num_tuples = 400;
  config.num_attributes = 6;
  config.seed = 3;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  const Matrix dt = RefTransform(ds->clean, {});
  for (const auto& fd : ds->true_fds) {
    for (size_t i = 0; i < dt.rows(); ++i) {
      bool lhs_agrees = true;
      for (size_t x : fd.lhs) {
        if (dt(i, x) == 0.0) {
          lhs_agrees = false;
          break;
        }
      }
      if (lhs_agrees) {
        EXPECT_DOUBLE_EQ(dt(i, fd.rhs), 1.0);
      }
    }
  }
  ExpectCountsMatchReferenceMatrix(ds->clean, {});
}

TEST(TransformTest, MomentsMatchMaterializedTransform) {
  Table t = TableFromCsv("a,b,c\n1,x,p\n2,y,p\n1,x,q\n3,y,q\n2,x,p\n");
  TransformOptions options;
  options.seed = 99;
  const Matrix dt = RefTransform(t, options);
  auto moments = PairTransformMoments(t, options);
  ASSERT_TRUE(moments.ok());
  EXPECT_EQ(moments->num_samples, dt.rows());
  Vector mean = ColumnMeans(dt);
  auto cov = Covariance(dt);
  ASSERT_TRUE(cov.ok());
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(moments->mean[j], mean[j], 1e-12);
  }
  EXPECT_LT(moments->cov.Subtract(*cov).MaxAbs(), 1e-12);
}

TEST(TransformTest, SamplingCapLimitsRows) {
  SyntheticConfig config;
  config.num_tuples = 1000;
  config.num_attributes = 5;
  config.seed = 4;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  TransformOptions options;
  options.max_pairs_per_attribute = 100;
  auto counts = PairTransformCounts(ds->clean, options);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->num_samples, 100u * 5u);
  ExpectCountsMatchReferenceMatrix(ds->clean, options);
}

TEST(TransformTest, DeterministicForSeed) {
  SyntheticConfig config;
  config.num_tuples = 100;
  config.num_attributes = 4;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  TransformOptions options;
  options.seed = 21;
  auto a = PairTransformMoments(ds->clean, options);
  auto b = PairTransformMoments(ds->clean, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->cov.Subtract(b->cov).MaxAbs(), 1e-15);
}

TEST(TransformTest, PooledCovarianceRemovesPassArtifact) {
  // Independent attributes: the concatenated estimator shows a uniform
  // negative coupling (the per-pass mean shift of the sorted column);
  // the pooled estimator does not.
  Table t{Schema({"a", "b", "c", "d"})};
  Rng rng(6);
  for (int i = 0; i < 4000; ++i) {
    t.AppendRow({Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 9)),
                 Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 9))});
  }
  TransformOptions concatenated;
  auto plain = PairTransformMoments(t, concatenated);
  ASSERT_TRUE(plain.ok());
  TransformOptions pooled = concatenated;
  pooled.pooled_covariance = true;
  auto within = PairTransformMoments(t, pooled);
  ASSERT_TRUE(within.ok());
  double plain_offdiag = 0.0, pooled_offdiag = 0.0;
  for (size_t x = 0; x < 4; ++x) {
    for (size_t y = x + 1; y < 4; ++y) {
      plain_offdiag += std::fabs(plain->cov(x, y));
      pooled_offdiag += std::fabs(within->cov(x, y));
    }
  }
  EXPECT_GT(plain_offdiag, 5.0 * pooled_offdiag);
}

TEST(TransformTest, PooledCovarianceKeepsFdSignal) {
  SyntheticConfig config;
  config.num_tuples = 1000;
  config.num_attributes = 8;
  config.seed = 7;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  TransformOptions pooled;
  pooled.pooled_covariance = true;
  auto moments = PairTransformMoments(ds->clean, pooled);
  ASSERT_TRUE(moments.ok());
  // Every planted FD keeps positive covariance between its determinant
  // and dependent indicators.
  for (const auto& fd : ds->true_fds) {
    for (size_t x : fd.lhs) {
      EXPECT_GT(moments->cov(x, fd.rhs), 0.0)
          << "cov(" << x << "," << fd.rhs << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-vs-scalar exact equivalence. k sweeps across the uint64 word
// boundaries (1, 63, 64, 65, 130) and n = 130 puts every column
// bit-vector at just over two words per pass, so partial trailing words,
// nulls, and tie groups are all exercised.

class PackedEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PackedEquivalenceTest, MatrixMomentsAndCountsMatchScalarBitwise) {
  const size_t k = GetParam();
  const size_t n = 130;
  const Table t = NoisyTiedTable(n, k, /*seed=*/1000 + k);
  for (size_t max_pairs : {size_t{0}, size_t{37}, size_t{64}}) {
    TransformOptions options;
    options.seed = 17 + k;
    options.max_pairs_per_attribute = max_pairs;

    ExpectCountsMatchReferenceMatrix(t, options);

    const RefMomentsResult ref = RefMoments(t, options);
    auto counts = PairTransformCounts(t, options);
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(counts->num_samples, ref.total);
    EXPECT_EQ(counts->counts, ref.counts);
    EXPECT_EQ(counts->co_counts, ref.co_counts);

    auto moments = PairTransformMoments(t, options);
    ASSERT_TRUE(moments.ok());
    EXPECT_EQ(moments->num_samples, ref.total);
    for (size_t c = 0; c < k; ++c) {
      EXPECT_EQ(moments->mean[c], ref.mean[c]);
    }
    EXPECT_EQ(moments->cov.Subtract(ref.cov).MaxAbs(), 0.0)
        << "k=" << k << " max_pairs=" << max_pairs;
  }
}

TEST_P(PackedEquivalenceTest, PooledCovarianceMatchesScalarBitwise) {
  const size_t k = GetParam();
  const Table t = NoisyTiedTable(130, k, /*seed=*/2000 + k);
  TransformOptions options;
  options.seed = 29 + k;
  options.pooled_covariance = true;
  const RefMomentsResult ref = RefMoments(t, options);
  auto moments = PairTransformMoments(t, options);
  ASSERT_TRUE(moments.ok());
  EXPECT_EQ(moments->cov.Subtract(ref.cov).MaxAbs(), 0.0) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, PackedEquivalenceTest,
                         ::testing::Values(1, 63, 64, 65, 130));

TEST(TransformTest, CountingSortMatchesStableSort) {
  // The radix pass must reproduce std::stable_sort's permutation exactly:
  // nulls first, codes ascending, shuffle preserved inside tie groups.
  const Table t = NoisyTiedTable(257, 3, /*seed=*/7);
  const EncodedTable encoded = EncodedTable::Encode(t);
  Rng rng(123);
  std::vector<uint32_t> shuffled(t.num_rows());
  std::iota(shuffled.begin(), shuffled.end(), 0);
  rng.Shuffle(&shuffled);
  for (size_t attr = 0; attr < t.num_columns(); ++attr) {
    std::vector<uint32_t> order;
    std::vector<uint32_t> buckets;
    StableSortByCodes(encoded.column_codes(attr), encoded.Cardinality(attr),
                      shuffled, &order, &buckets);
    std::vector<uint32_t> expected = shuffled;
    const auto& codes = encoded.column_codes(attr);
    std::stable_sort(
        expected.begin(), expected.end(),
        [&codes](uint32_t a, uint32_t b) { return codes[a] < codes[b]; });
    EXPECT_EQ(order, expected) << "attr " << attr;
  }
}

TEST(TransformTest, AttributePassEnumeratesWithoutMaterializing) {
  const Table t = NoisyTiedTable(97, 2, /*seed=*/11);
  const EncodedTable encoded = EncodedTable::Encode(t);
  std::vector<uint32_t> shuffled(t.num_rows());
  std::iota(shuffled.begin(), shuffled.end(), 0);
  AttributePass pass;
  pass.Reset(encoded.column_codes(0), encoded.Cardinality(0), shuffled,
             /*max_pairs=*/0, /*seed=*/1);
  EXPECT_EQ(pass.num_pairs(), t.num_rows());
  size_t calls = 0;
  size_t last_index = 0;
  pass.ForEachPair([&](size_t i, size_t a, size_t b) {
    EXPECT_LT(a, t.num_rows());
    EXPECT_LT(b, t.num_rows());
    last_index = i;
    ++calls;
  });
  EXPECT_EQ(calls, pass.num_pairs());
  EXPECT_EQ(last_index, pass.num_pairs() - 1);

  pass.Reset(encoded.column_codes(1), encoded.Cardinality(1), shuffled,
             /*max_pairs=*/13, /*seed=*/2);
  EXPECT_TRUE(pass.sampled());
  EXPECT_EQ(pass.num_pairs(), 13u);
}

TEST(TransformTest, PackedRejectsDegenerateInputs) {
  Table empty{Schema({"a"})};
  EXPECT_FALSE(PairTransformCounts(empty).ok());
  Table no_columns{Schema(std::vector<std::string>{})};
  EXPECT_FALSE(PairTransformCounts(no_columns).ok());
  EXPECT_FALSE(PairTransformMoments(no_columns).ok());
}

TEST(TransformTest, ProfileRecordsStageTimings) {
  // Every engine that fills TransformProfile (perfbench's
  // core.transform.* and store.transform.* metrics) must time each of
  // its three stages: the in-memory pass loop, the store's resident
  // branch, and its wave schedule.
  const Table t = NoisyTiedTable(2000, 6, /*seed=*/3);
  auto store = ChunkedTable::Create(t.schema(), /*dir=*/"");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->AppendBatch(t).ok());
  // Two decoded columns' worth: below the six the resident branch needs,
  // so the passes run in waves.
  const uint64_t wave_budget = 2 * t.num_rows() * sizeof(int32_t);
  for (const std::string engine :
       {"in-memory", "stream-resident", "stream-wave"}) {
    TransformProfile profile;
    StreamTransformOptions stream;
    stream.transform.profile = &profile;
    if (engine == "stream-wave") stream.column_cache_bytes = wave_budget;
    auto moments = engine == "in-memory"
                       ? PairTransformMoments(t, stream.transform)
                       : StreamTransformMoments(*store, stream);
    ASSERT_TRUE(moments.ok()) << engine;
    EXPECT_GT(profile.sort_seconds, 0.0) << engine;
    EXPECT_GT(profile.pack_seconds, 0.0) << engine;
    EXPECT_GT(profile.accumulate_seconds, 0.0) << engine;
  }
}

// ---------------------------------------------------------------------------
// Pack-block boundaries. Both engines pack each pass in blocks of
// kPackBlockPairs pairs (the out-of-core waves fan the blocks out over
// threads), so row counts around one and two blocks, nulls whose sorted
// run ends exactly at a block edge, sampled passes, every wave size the
// budget can plan and every thread count must all reproduce the scalar
// reference bit-for-bit.

constexpr size_t kBlockTestColumns = 16;

/// n x 16 with heavy ties. Column c < 8 is null on its first
/// kNullRuns[c] rows: its own pass sorts nulls first, so the null run
/// ends at pair index kNullRuns[c] - 1, on a block edge for the runs
/// around 64 and kPackBlockPairs. Column 8 is null on the rows next to
/// multiples of the block size; the rest are tied small domains, two of
/// them functions of column 9.
Table BlockEdgeTable(size_t n) {
  constexpr size_t B = kPackBlockPairs;
  const size_t null_runs[] = {0, 1, 63, 64, 65, B - 1, B, B + 1};
  std::vector<std::string> names;
  for (size_t c = 0; c < kBlockTestColumns; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  Table t{Schema(std::move(names))};
  Rng rng(n);
  std::vector<Value> row(kBlockTestColumns);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < 8; ++c) {
      const int domain = static_cast<int>(c) + 2;
      row[c] = r < null_runs[c] ? Value::Null()
                                : Value(rng.NextInt(0, domain));
    }
    row[8] = r % B == 0 || r % B == B - 1 ? Value::Null()
                                          : Value(rng.NextInt(0, 5));
    const int64_t key = rng.NextInt(0, 40);
    row[9] = Value(key);
    row[10] = Value(key % 7);
    row[11] = Value(key / 3 + (rng.NextBernoulli(0.05) ? 1 : 0));
    for (size_t c = 12; c < kBlockTestColumns; ++c) {
      row[c] = Value(rng.NextInt(0, 3));
    }
    t.AppendRow(row);
  }
  return t;
}

void ExpectMomentsMatchRef(const TransformedMoments& moments,
                           const RefMomentsResult& ref,
                           const std::string& label) {
  EXPECT_EQ(moments.num_samples, ref.total) << label;
  ASSERT_EQ(moments.mean.size(), ref.mean.size()) << label;
  for (size_t c = 0; c < ref.mean.size(); ++c) {
    EXPECT_EQ(moments.mean[c], ref.mean[c]) << label << " mean[" << c << "]";
  }
  for (size_t x = 0; x < ref.cov.rows(); ++x) {
    for (size_t y = 0; y < ref.cov.cols(); ++y) {
      ASSERT_EQ(moments.cov(x, y), ref.cov(x, y))
          << label << " cov(" << x << "," << y << ")";
    }
  }
}

/// The smallest cache budget for which the wave planner picks waves of
/// `w` passes, or 0 when no budget below the resident threshold (all
/// decoded columns) does.
uint64_t BudgetForWave(StreamTransformOptions options, size_t n, size_t k,
                       size_t w) {
  const auto planned = [&](uint64_t budget) {
    options.column_cache_bytes = budget;
    return WaveSize(options, n, k);
  };
  uint64_t lo = 1;
  uint64_t hi = static_cast<uint64_t>(n) * k * sizeof(int32_t) - 1;
  if (planned(hi) < w) return 0;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (planned(mid) >= w) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return planned(lo) == w ? lo : 0;
}

TEST(TransformTest, PackBlockBoundariesMatchReferenceAtEveryWaveAndThread) {
  constexpr size_t B = kPackBlockPairs;
  const size_t k = kBlockTestColumns;
  for (size_t n : {size_t{2}, size_t{63}, size_t{64}, size_t{65}, B - 1, B,
                   B + 1, 2 * B + 37}) {
    const Table table = BlockEdgeTable(n);
    auto store = ChunkedTable::Create(table.schema(), /*dir=*/"");
    ASSERT_TRUE(store.ok());
    // Chunks of 1000 rows (the last one short), so chunk edges fall
    // inside pack blocks.
    for (size_t lo = 0; lo < n; lo += 1000) {
      Table batch{table.schema()};
      std::vector<Value> row(k);
      for (size_t r = lo; r < std::min(n, lo + 1000); ++r) {
        for (size_t c = 0; c < k; ++c) row[c] = table.cell(r, c);
        batch.AppendRow(row);
      }
      ASSERT_TRUE(store->AppendBatch(batch).ok());
    }
    // Unsampled, then sampled down to about two thirds of the pairs
    // (two blocks, the second partial, at n = 2B + 37).
    for (size_t max_pairs : {size_t{0}, std::max<size_t>(1, n - n / 3 - 1)}) {
      TransformOptions transform;
      transform.seed = 3 + n;
      transform.max_pairs_per_attribute = max_pairs;
      const RefMomentsResult ref = RefMoments(table, transform);
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        const ScopedThreads scoped(threads);
        const std::string at = "n=" + std::to_string(n) +
                               " max_pairs=" + std::to_string(max_pairs) +
                               " threads=" + std::to_string(threads);
        auto memory = PairTransformMoments(table, transform);
        ASSERT_TRUE(memory.ok()) << at;
        ExpectMomentsMatchRef(*memory, ref, at + " in-memory");

        // Waves of 1, 2 and the most passes a budget below the resident
        // threshold allows; a wave of all k passes is the resident path
        // (budget 0), since each pass's pair order already costs a column.
        StreamTransformOptions stream;
        stream.transform = transform;
        std::vector<size_t> waves = {1, 2};
        stream.column_cache_bytes = n * k * sizeof(int32_t) - 1;
        waves.push_back(WaveSize(stream, n, k));
        if (n >= B - 1) {
          EXPECT_GE(waves.back(), 2u) << at << ": no multi-pass wave fits";
        }
        std::vector<uint64_t> budgets = {0};
        for (size_t w : waves) {
          const uint64_t budget = BudgetForWave(stream, n, k, w);
          if (budget != 0) budgets.push_back(budget);
        }
        for (uint64_t budget : budgets) {
          stream.column_cache_bytes = budget;
          const std::string label =
              at + (budget == 0 ? std::string(" resident")
                                : " wave=" +
                                      std::to_string(WaveSize(stream, n, k)));
          auto streamed = StreamTransformMoments(*store, stream);
          ASSERT_TRUE(streamed.ok())
              << label << ": " << streamed.status().message();
          ExpectMomentsMatchRef(*streamed, ref, label);
        }
      }
    }
  }
}

TEST(TransformTest, SortedColumnHasHighAgreement) {
  // The sort-and-shift construction makes pairs agree on the sorted
  // attribute far more often than random pairing would.
  Table t{Schema({"x"})};
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    t.AppendRow({Value(rng.NextInt(0, 9))});
  }
  auto moments = PairTransformMoments(t);
  ASSERT_TRUE(moments.ok());
  // Random pairs agree w.p. ~0.1; sorted adjacent pairs ~0.99.
  EXPECT_GT(moments->mean[0], 0.9);
}

}  // namespace
}  // namespace fdx
