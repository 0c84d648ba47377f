// Bit-identity of the runtime-dispatched SIMD kernels: every level's
// gather / pack / popcount output must equal the scalar fallback's
// exactly (integer kernels, so "close" is not a thing — bytes or bust),
// and the full transform pipeline must produce identical integer
// moments at every dispatch level.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/transform.h"
#include "data/table.h"
#include "linalg/simd.h"
#include "util/rng.h"

namespace fdx {
namespace {

/// Restores the ambient dispatch level even when a test fails mid-way.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { ambient_ = ActiveSimdLevel(); }
  void TearDown() override { SetSimdLevel(ambient_); }

  /// Levels to cross-check: scalar always, plus the detected level when
  /// it differs. On a machine without vector support this degenerates
  /// to {scalar} and the test still passes (vacuous cross-check).
  static std::vector<SimdLevel> LevelsToTest() {
    std::vector<SimdLevel> levels = {SimdLevel::kScalar};
    if (DetectedSimdLevel() != SimdLevel::kScalar) {
      levels.push_back(DetectedSimdLevel());
    }
    // When AVX-512 is detected, AVX2 is a distinct intermediate table.
    if (DetectedSimdLevel() == SimdLevel::kAvx512) {
      levels.push_back(SimdLevel::kAvx2);
    }
    return levels;
  }

 private:
  SimdLevel ambient_ = SimdLevel::kScalar;
};

/// Random code stream over a small alphabet with nulls and tie runs —
/// the regime the pack compare actually sees (sorted codes arrive in
/// runs; nulls sort first).
std::vector<int32_t> RandomCodes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = rng.NextBernoulli(0.2)
                   ? EncodedTable::kNullCode
                   : static_cast<int32_t>(rng.NextInt(0, 4));
  }
  return codes;
}

const size_t kSizes[] = {1, 2, 63, 64, 65, 128, 130, 257, 1000};

TEST_F(SimdTest, DetectionAndOverrideAreConsistent) {
  const SimdLevel detected = DetectedSimdLevel();
  // Override requests clamp to the detected ceiling.
  EXPECT_EQ(SetSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdOps().level, SimdLevel::kScalar);
  const SimdLevel granted = SetSimdLevel(SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(granted), static_cast<int>(detected));
  EXPECT_EQ(ActiveSimdLevel(), granted);
  // Every level resolves to a fully-populated kernel table.
  for (SimdLevel level : LevelsToTest()) {
    const SimdOps& ops = SimdOpsForLevel(level);
    EXPECT_EQ(ops.level, level) << SimdLevelName(level);
    EXPECT_NE(ops.gather_codes, nullptr);
    EXPECT_NE(ops.pack_adjacent_equal, nullptr);
    EXPECT_NE(ops.popcount_words, nullptr);
    EXPECT_NE(ops.popcount_and_words, nullptr);
  }
}

TEST_F(SimdTest, GatherMatchesScalarBitwise) {
  const SimdOps& scalar = SimdOpsForLevel(SimdLevel::kScalar);
  for (size_t n : kSizes) {
    const std::vector<int32_t> codes = RandomCodes(n, 11 + n);
    // A permutation with structure a stride-1 gather would not see.
    Rng rng(5 + n);
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    rng.Shuffle(&order);
    std::vector<int32_t> want(n);
    scalar.gather_codes(codes.data(), order.data(), n, want.data());
    for (SimdLevel level : LevelsToTest()) {
      const SimdOps& ops = SimdOpsForLevel(level);
      std::vector<int32_t> got(n, -7);
      ops.gather_codes(codes.data(), order.data(), n, got.data());
      EXPECT_EQ(got, want) << SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST_F(SimdTest, PackAdjacentEqualMatchesScalarBitwise) {
  const SimdOps& scalar = SimdOpsForLevel(SimdLevel::kScalar);
  for (size_t n : kSizes) {
    const std::vector<int32_t> g = RandomCodes(n, 31 + n);
    const size_t nwords = (n - 1) / 64 + 1;
    std::vector<uint64_t> want(nwords, 0);
    const size_t want_packed = scalar.pack_adjacent_equal(
        g.data(), n, EncodedTable::kNullCode, want.data());
    EXPECT_EQ(want_packed, ((n - 1) / 64) * 64);
    // Scalar words agree with first principles.
    for (size_t j = 0; j < want_packed; ++j) {
      const uint64_t bit = (want[j / 64] >> (j % 64)) & 1;
      const uint64_t expect =
          (g[j] != EncodedTable::kNullCode && g[j] == g[j + 1]) ? 1 : 0;
      ASSERT_EQ(bit, expect) << "n=" << n << " j=" << j;
    }
    for (SimdLevel level : LevelsToTest()) {
      const SimdOps& ops = SimdOpsForLevel(level);
      std::vector<uint64_t> got(nwords, 0);
      const size_t packed = ops.pack_adjacent_equal(
          g.data(), n, EncodedTable::kNullCode, got.data());
      EXPECT_EQ(packed, want_packed) << SimdLevelName(level) << " n=" << n;
      for (size_t w = 0; w < packed / 64; ++w) {
        EXPECT_EQ(got[w], want[w])
            << SimdLevelName(level) << " n=" << n << " word=" << w;
      }
    }
  }
}

TEST_F(SimdTest, PopcountKernelsMatchScalarExactly) {
  const SimdOps& scalar = SimdOpsForLevel(SimdLevel::kScalar);
  Rng rng(77);
  for (size_t len : {0u, 1u, 3u, 4u, 5u, 8u, 63u, 64u, 129u}) {
    std::vector<uint64_t> a(len), b(len);
    for (size_t w = 0; w < len; ++w) {
      a[w] = (static_cast<uint64_t>(rng.engine()()) << 32) ^ rng.engine()();
      b[w] = (static_cast<uint64_t>(rng.engine()()) << 32) ^ rng.engine()();
    }
    const uint64_t want_self = scalar.popcount_words(a.data(), len);
    const uint64_t want_and =
        scalar.popcount_and_words(a.data(), b.data(), len);
    for (SimdLevel level : LevelsToTest()) {
      const SimdOps& ops = SimdOpsForLevel(level);
      EXPECT_EQ(ops.popcount_words(a.data(), len), want_self)
          << SimdLevelName(level) << " len=" << len;
      EXPECT_EQ(ops.popcount_and_words(a.data(), b.data(), len), want_and)
          << SimdLevelName(level) << " len=" << len;
    }
  }
  // All-ones / all-zeros edges.
  std::vector<uint64_t> ones(130, ~uint64_t{0});
  std::vector<uint64_t> zeros(130, 0);
  for (SimdLevel level : LevelsToTest()) {
    const SimdOps& ops = SimdOpsForLevel(level);
    EXPECT_EQ(ops.popcount_words(ones.data(), 130), 130u * 64u);
    EXPECT_EQ(ops.popcount_and_words(ones.data(), zeros.data(), 130), 0u);
  }
}

/// A table with ties (tiny domain) and ~20% nulls — the adversarial
/// regime for the null-never-matches rule in the vector compare.
Table NoisyTiedTable(size_t rows, size_t cols, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("a" + std::to_string(c));
  Table t{Schema(std::move(names))};
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBernoulli(0.2)) {
        row.emplace_back();  // null
      } else {
        row.emplace_back(Value(rng.NextInt(0, 3)));
      }
    }
    t.AppendRow(std::move(row));
  }
  return t;
}

TEST_F(SimdTest, FullTransformIsBitIdenticalAcrossLevels) {
  // End-to-end: integer moments at every dispatch level must equal the
  // scalar run exactly, across word-boundary row counts and both the
  // exact and sampled pair regimes. The pooled covariance is built from
  // each pass's own counts, so it pins every pass, not only the totals.
  for (size_t rows : {63u, 64u, 65u, 130u, 300u}) {
    const Table t = NoisyTiedTable(rows, 5, 900 + rows);
    for (size_t max_pairs : {size_t{0}, size_t{40}}) {
      TransformOptions options;
      options.seed = 17;
      options.max_pairs_per_attribute = max_pairs;
      TransformOptions pooled = options;
      pooled.pooled_covariance = true;
      SetSimdLevel(SimdLevel::kScalar);
      auto scalar_counts = PairTransformCounts(t, options);
      auto scalar_pooled = PairTransformMoments(t, pooled);
      ASSERT_TRUE(scalar_counts.ok());
      ASSERT_TRUE(scalar_pooled.ok());
      for (SimdLevel level : LevelsToTest()) {
        SetSimdLevel(level);
        auto counts = PairTransformCounts(t, options);
        auto pooled_moments = PairTransformMoments(t, pooled);
        ASSERT_TRUE(counts.ok()) << SimdLevelName(level);
        ASSERT_TRUE(pooled_moments.ok()) << SimdLevelName(level);
        EXPECT_EQ(counts->counts, scalar_counts->counts)
            << SimdLevelName(level) << " rows=" << rows
            << " max_pairs=" << max_pairs;
        EXPECT_EQ(counts->co_counts, scalar_counts->co_counts)
            << SimdLevelName(level);
        EXPECT_EQ(counts->num_samples, scalar_counts->num_samples);
        EXPECT_EQ(pooled_moments->cov.Subtract(scalar_pooled->cov).MaxAbs(),
                  0.0)
            << SimdLevelName(level) << " rows=" << rows
            << " max_pairs=" << max_pairs;
      }
    }
  }
}

}  // namespace
}  // namespace fdx
