#include "core/transform.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "core/pairs.h"
#include "core/transform_kernels.h"
#include "linalg/bitmatrix.h"
#include "util/thread_pool.h"

namespace fdx {

Status CheckTransformShape(size_t num_rows, size_t num_columns) {
  if (num_columns == 0 || num_rows < 2) {
    return Status::InvalidArgument(
        "pair transform needs >= 2 rows and >= 1 column");
  }
  if (num_rows > UINT32_MAX) {
    // The pair layer streams 4-byte row indices (see core/pairs.h).
    return Status::InvalidArgument("pair transform caps at 2^32 - 1 rows");
  }
  return Status::OK();
}

namespace {

/// Shared preamble of every in-memory entry point: validates the shape,
/// encodes, shuffles, and forks the per-attribute seeds.
struct TransformSetup {
  EncodedTable encoded;
  std::vector<uint32_t> shuffled;
  std::vector<uint64_t> attr_seeds;
};

Result<TransformSetup> PrepareTransform(const Table& table,
                                        const TransformOptions& options) {
  const size_t k = table.num_columns();
  const size_t n = table.num_rows();
  FDX_RETURN_IF_ERROR(CheckTransformShape(n, k));
  TransformSetup setup;
  setup.encoded = EncodedTable::Encode(table);
  PrepareTransformStreams(options.seed, n, k, &setup.shuffled,
                          &setup.attr_seeds);
  return setup;
}

inline bool CheckDeadline(const TransformOptions& options,
                          std::atomic<bool>* expired) {
  if (options.deadline != nullptr &&
      (expired->load(std::memory_order_relaxed) ||
       options.deadline->Expired())) {
    expired->store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace

Status AccumulatePasses(const std::vector<std::vector<int32_t>>& columns,
                        const std::vector<size_t>& cardinalities,
                        const std::vector<uint32_t>& shuffled,
                        const std::vector<uint64_t>& attr_seeds,
                        const TransformOptions& options,
                        std::vector<uint64_t>* counts,
                        std::vector<uint64_t>* co_counts, size_t* total,
                        std::vector<Matrix>* pass_cov) {
  const size_t k = columns.size();
  const size_t num_chunks =
      std::min(ResolveThreadCount(options.threads), k);
  std::vector<std::vector<uint64_t>> chunk_counts(
      num_chunks, std::vector<uint64_t>(k, 0));
  std::vector<std::vector<uint64_t>> chunk_co_counts(
      num_chunks, std::vector<uint64_t>(k * k, 0));
  std::vector<size_t> chunk_totals(num_chunks, 0);
  std::atomic<bool> expired{false};
  std::mutex profile_mu;

  ParallelForChunks(
      0, k, num_chunks, options.threads,
      [&](size_t chunk, size_t lo, size_t hi) {
        AttributePass pass;
        BitMatrix bits;
        StageTimes local;
        Stopwatch watch;
        std::vector<int32_t> gathered;
        std::vector<uint64_t> pass_counts(k, 0);
        std::vector<uint64_t> pass_co_counts(k * k, 0);
        for (size_t attr = lo; attr < hi; ++attr) {
          if (CheckDeadline(options, &expired)) break;
          watch.Reset();
          pass.Reset(columns[attr], cardinalities[attr], shuffled,
                     options.max_pairs_per_attribute, attr_seeds[attr]);
          local.sort += watch.ElapsedSeconds();
          watch.Reset();
          bits.Reset(pass.num_pairs(), k);
          for (size_t col = 0; col < k; ++col) {
            for (size_t lo = 0; lo < pass.num_pairs(); lo += kPackBlockPairs) {
              PackPassBlock(columns[col].data(), pass, lo,
                            std::min(pass.num_pairs(), lo + kPackBlockPairs),
                            bits.column_words(col) + lo / 64, &gathered);
            }
          }
          local.pack += watch.ElapsedSeconds();
          watch.Reset();
          std::fill(pass_counts.begin(), pass_counts.end(), 0);
          std::fill(pass_co_counts.begin(), pass_co_counts.end(), 0);
          bits.AccumulateMoments(pass_counts.data(), pass_co_counts.data());
          for (size_t c = 0; c < k; ++c) {
            chunk_counts[chunk][c] += pass_counts[c];
          }
          for (size_t c = 0; c < k * k; ++c) {
            chunk_co_counts[chunk][c] += pass_co_counts[c];
          }
          chunk_totals[chunk] += pass.num_pairs();
          local.accumulate += watch.ElapsedSeconds();
          if (pass_cov != nullptr && pass.num_pairs() > 0) {
            // Pass-local covariance from the pass's integer moments;
            // summed across passes after the join.
            (*pass_cov)[attr] = PassCovarianceFromCounts(
                pass_counts.data(), pass_co_counts.data(), k,
                pass.num_pairs());
          }
        }
        local.MergeInto(options.profile, &profile_mu);
      });

  if (expired.load(std::memory_order_relaxed)) {
    return Status::Timeout("pair transform: time budget exhausted");
  }
  counts->assign(k, 0);
  co_counts->assign(k * k, 0);
  *total = 0;
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    for (size_t c = 0; c < k; ++c) (*counts)[c] += chunk_counts[chunk][c];
    for (size_t c = 0; c < k * k; ++c) {
      (*co_counts)[c] += chunk_co_counts[chunk][c];
    }
    *total += chunk_totals[chunk];
  }
  if (*total == 0) {
    return Status::InvalidArgument("pair transform produced no samples");
  }
  return Status::OK();
}

Result<TransformCounts> PairTransformCounts(const Table& table,
                                            const TransformOptions& options) {
  FDX_ASSIGN_OR_RETURN(TransformSetup setup, PrepareTransform(table, options));
  TransformCounts out;
  FDX_RETURN_IF_ERROR(AccumulatePasses(
      setup.encoded.columns(), setup.encoded.cardinalities(), setup.shuffled,
      setup.attr_seeds, options, &out.counts, &out.co_counts,
      &out.num_samples, /*pass_cov=*/nullptr));
  return out;
}

Result<TransformedMoments> PairTransformMoments(
    const Table& table, const TransformOptions& options) {
  FDX_ASSIGN_OR_RETURN(TransformSetup setup, PrepareTransform(table, options));
  const size_t k = setup.encoded.num_columns();
  std::vector<Matrix> pass_cov;
  if (options.pooled_covariance) pass_cov.assign(k, Matrix());
  std::vector<uint64_t> counts;
  std::vector<uint64_t> co_counts;
  size_t total = 0;
  FDX_RETURN_IF_ERROR(AccumulatePasses(
      setup.encoded.columns(), setup.encoded.cardinalities(), setup.shuffled,
      setup.attr_seeds, options, &counts, &co_counts, &total,
      options.pooled_covariance ? &pass_cov : nullptr));

  TransformedMoments moments = MomentsFromCounts(counts, co_counts, total, k);
  if (options.pooled_covariance) {
    moments.cov = ReducePooledCovariance(pass_cov);
  }
  return moments;
}

}  // namespace fdx
