#ifndef FDX_CORE_TRANSFORM_KERNELS_H_
#define FDX_CORE_TRANSFORM_KERNELS_H_

#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "core/pairs.h"
#include "core/transform.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "util/rng.h"
#include "util/status.h"

/// Shared internals of the pair-difference transform. Two engines
/// consume these: the in-memory PairTransform* entry points
/// (core/transform.cc) and the out-of-core streaming transform
/// (store/stream_transform.cc). Everything that determines the *result*
/// of a transform — shape checks, randomness ordering, equality
/// semantics, bit layout, the resident-column pass loop, and the
/// integer→double moment expressions — lives here, so the two engines
/// cannot drift apart: bit-identical inputs produce bit-identical
/// moments (and identical errors) on either path.
namespace fdx {

/// Equality indicator with strict null semantics: a null matches nothing.
inline uint64_t EqualCodes(int32_t a, int32_t b) {
  return (a != EncodedTable::kNullCode && a == b) ? 1 : 0;
}

/// Number of pairs one attribute pass emits for an n-row table.
inline size_t PairsPerAttribute(size_t n, size_t max_pairs) {
  return (max_pairs == 0 || max_pairs >= n) ? n : max_pairs;
}

/// Per-attribute RNG seeds, forked serially from the parent stream so the
/// sampled pair selection of one attribute never depends on how many
/// passes ran before it (or on which thread runs it).
inline std::vector<uint64_t> ForkAttributeSeeds(Rng* rng, size_t k) {
  std::vector<uint64_t> seeds(k);
  for (size_t attr = 0; attr < k; ++attr) seeds[attr] = rng->engine()();
  return seeds;
}

/// Rejects inputs no transform can run on. Every entry point, in-memory
/// and out-of-core, calls this, so both reject with the same message.
Status CheckTransformShape(size_t num_rows, size_t num_columns);

/// The canonical randomness preamble of every transform: one Rng seeded
/// with `seed` shuffles the row identity permutation, then forks the k
/// per-attribute seeds — in that exact order. Any engine that wants to
/// reproduce a transform must consume the stream this way.
inline void PrepareTransformStreams(uint64_t seed, size_t n, size_t k,
                                    std::vector<uint32_t>* shuffled,
                                    std::vector<uint64_t>* attr_seeds) {
  Rng rng(seed);
  shuffled->resize(n);
  std::iota(shuffled->begin(), shuffled->end(), uint32_t{0});
  rng.Shuffle(shuffled);
  *attr_seeds = ForkAttributeSeeds(&rng, k);
}

/// Pairs per pack block. Both pass loops pack a pass block by block, so
/// one packing thread's gather scratch is kPackBlockPairs + 1 codes
/// (64 KiB), and the out-of-core waves fan (pass x block) tasks out over
/// the pool. A multiple of 64, so every block but a pass's last fills
/// whole words.
inline constexpr size_t kPackBlockPairs = size_t{1} << 14;

/// Packs the equality bits of pairs [lo, hi) of `pass` for the column
/// whose dictionary codes are `codes` into `words`, the column's word
/// array advanced to word lo / 64 (`lo` must be a multiple of 64). Every
/// word of the range is written in full, the last one zero-padded, so the
/// destination needs no clearing and disjoint blocks can pack
/// concurrently. The pass's wrap pair (order[n-1], order[0]) belongs to
/// its last block.
///
/// Unsampled passes gather the block's codes in sorted order, plus the
/// successor of its last pair, into `gathered` (caller-owned scratch,
/// reused across calls) and pack them through the runtime-dispatched
/// SIMD kernels, scalar fallback included. Sampled passes walk their
/// sorted positions scalar: those pairs are a sparse subset, not an
/// adjacent sweep. Either way the bits are the exact integers, so the
/// output is bit-identical at every dispatch level and block tiling.
inline void PackPassBlock(const int32_t* codes, const AttributePass& pass,
                          size_t lo, size_t hi, uint64_t* words,
                          std::vector<int32_t>* gathered) {
  if (!pass.sampled()) {
    const std::vector<uint32_t>& order = pass.order();
    const size_t m = hi - lo + 1;  // the block's codes and one successor
    gathered->resize(m);
    int32_t* g = gathered->data();
    const SimdOps& ops = ActiveSimdOps();
    if (hi < order.size()) {
      ops.gather_codes(codes, order.data() + lo, m, g);
    } else {
      ops.gather_codes(codes, order.data() + lo, m - 1, g);
      g[m - 1] = codes[order[0]];  // the wrap pair's successor
    }
    const size_t packed =
        ops.pack_adjacent_equal(g, m, EncodedTable::kNullCode, words);
    if (packed + 1 < m) {
      uint64_t tail = 0;
      for (size_t j = packed; j + 1 < m; ++j) {
        tail |= EqualCodes(g[j], g[j + 1]) << (j - packed);
      }
      words[packed / 64] = tail;
    }
    return;
  }
  uint64_t word = 0;
  pass.ForEachPair(lo, hi, [&](size_t i, size_t a, size_t b) {
    const size_t bit = i - lo;
    word |= EqualCodes(codes[a], codes[b]) << (bit & 63);
    if ((bit & 63) == 63) {
      words[bit / 64] = word;
      word = 0;
    }
  });
  if ((hi - lo) % 64 != 0) words[(hi - lo) / 64] = word;
}

/// Pass-local covariance from one pass's integer moments. Used by the
/// pooled estimator: each attribute pass contributes its own covariance,
/// reduced across passes in attribute order.
inline Matrix PassCovarianceFromCounts(const uint64_t* pass_counts,
                                       const uint64_t* pass_co_counts,
                                       size_t k, size_t num_pairs) {
  Matrix cov(k, k);
  const double inv_pass = 1.0 / static_cast<double>(num_pairs);
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
  return cov;
}

/// Reduces the per-pass pooled covariances in attribute order (the order
/// is part of the determinism contract: floating-point addition is not
/// associative).
inline Matrix ReducePooledCovariance(const std::vector<Matrix>& pass_cov) {
  Matrix pooled;
  size_t pooled_passes = 0;
  for (const Matrix& cov : pass_cov) {
    if (cov.empty()) continue;
    if (pooled.empty()) {
      pooled = Matrix(cov.rows(), cov.cols());
    }
    pooled = pooled.Add(cov);
    ++pooled_passes;
  }
  if (pooled_passes == 0) return pooled;
  return pooled.Scale(1.0 / static_cast<double>(pooled_passes));
}

/// Assembles the final mean/covariance from the accumulated integer
/// moments (the non-pooled estimator). Both engines funnel through these
/// exact expressions so their doubles agree bitwise.
inline TransformedMoments MomentsFromCounts(
    const std::vector<uint64_t>& counts,
    const std::vector<uint64_t>& co_counts, size_t total, size_t k) {
  TransformedMoments moments;
  moments.num_samples = total;
  moments.mean.assign(k, 0.0);
  const double inv_n = 1.0 / static_cast<double>(total);
  for (size_t c = 0; c < k; ++c) {
    moments.mean[c] = static_cast<double>(counts[c]) * inv_n;
  }
  moments.cov = Matrix(k, k);
  for (size_t x = 0; x < k; ++x) {
    for (size_t y = x; y < k; ++y) {
      const double exy = static_cast<double>(co_counts[x * k + y]) * inv_n;
      const double cov = exy - moments.mean[x] * moments.mean[y];
      moments.cov(x, y) = cov;
      moments.cov(y, x) = cov;
    }
  }
  return moments;
}

/// Per-thread stage timings, merged into the caller's TransformProfile
/// under a mutex when a thread's share of the passes is done (profiling
/// only; results never depend on it).
struct StageTimes {
  double sort = 0.0;
  double pack = 0.0;
  double accumulate = 0.0;

  void MergeInto(TransformProfile* profile, std::mutex* mu) const {
    if (profile == nullptr) return;
    std::lock_guard<std::mutex> lock(*mu);
    profile->sort_seconds += sort;
    profile->pack_seconds += pack;
    profile->accumulate_seconds += accumulate;
  }
};

/// The resident-column pass loop, shared by the in-memory transform
/// and the out-of-core transform whenever every column fits in memory.
/// `columns[c]` holds column c's dense dictionary codes (kNullCode for
/// nulls) and `cardinalities[c]` its distinct non-null values;
/// `shuffled` and `attr_seeds` come from PrepareTransformStreams.
///
/// Runs every attribute pass (sort, pack, popcount) in parallel over
/// attributes, holding one pass of bits per thread, and merges integer
/// counts commutatively into `counts` / `co_counts` / `total` (assigned,
/// not added to). When `pass_cov` is non-null (pooled covariance, sized
/// k), each pass also stores its own covariance in its attribute's slot
/// for the caller to reduce in attribute order. Polls
/// `options.deadline` between passes (kTimeout on expiry).
Status AccumulatePasses(const std::vector<std::vector<int32_t>>& columns,
                        const std::vector<size_t>& cardinalities,
                        const std::vector<uint32_t>& shuffled,
                        const std::vector<uint64_t>& attr_seeds,
                        const TransformOptions& options,
                        std::vector<uint64_t>* counts,
                        std::vector<uint64_t>* co_counts, size_t* total,
                        std::vector<Matrix>* pass_cov);

}  // namespace fdx

#endif  // FDX_CORE_TRANSFORM_KERNELS_H_
