#include "store/stream_transform.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "core/pairs.h"
#include "core/transform_kernels.h"
#include "linalg/bitmatrix.h"
#include "util/file_io.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fdx {
namespace {

/// Whether every decoded column fits the cache budget at once (always,
/// when unbounded) — the test that picks the resident pass loop over
/// waves.
bool AllColumnsFit(const StreamTransformOptions& options, size_t n,
                   size_t k) {
  return options.column_cache_bytes == 0 ||
         static_cast<uint64_t>(n) * k * sizeof(int32_t) <=
             options.column_cache_bytes;
}

Status CheckRssCeiling(const StreamTransformOptions& options,
                       const ChunkedTable& table) {
  if (options.rss_limit_bytes == 0) return Status::OK();
  const uint64_t rss = CurrentRssBytes();
  // Resident pages of the store's chunk mappings are clean and
  // file-backed — the kernel drops them under memory pressure — so
  // counting them against the ceiling would fail runs whose actual
  // footprint fits. Subtract them: what remains is anonymous memory the
  // process genuinely owes.
  const uint64_t mapped = table.MappedResidentBytes();
  const uint64_t owned = rss > mapped ? rss - mapped : 0;
  if (owned <= options.rss_limit_bytes) return Status::OK();
  return Status::Unavailable(
      "stream transform: resident set " + std::to_string(owned) +
      " bytes exceeds the memory ceiling of " +
      std::to_string(options.rss_limit_bytes) + " bytes");
}

}  // namespace

size_t WaveSize(const StreamTransformOptions& options, size_t n, size_t k) {
  const uint64_t pairs = static_cast<uint64_t>(
      PairsPerAttribute(n, options.transform.max_pairs_per_attribute));
  const uint64_t column_bytes = static_cast<uint64_t>(n) * 4;
  const uint64_t bits_bytes = (pairs + 63) / 64 * 8 * k;
  // The pair order, plus the sampled positions when the pass samples.
  const uint64_t order_bytes = column_bytes + (pairs < n ? pairs * 4 : 0);
  const uint64_t accum_bytes = (static_cast<uint64_t>(k) * k + k) * 8;
  const uint64_t per_pass = bits_bytes + order_bytes + accum_bytes;
  // One decoded column, and each packing thread's block gather scratch.
  const uint64_t threads = ResolveThreadCount(options.transform.threads);
  const uint64_t scratch_bytes =
      threads * (std::min<uint64_t>(pairs, kPackBlockPairs) + 1) * 4;
  const uint64_t reserved = column_bytes + scratch_bytes;
  const uint64_t budget = options.column_cache_bytes > reserved
                              ? options.column_cache_bytes - reserved
                              : 0;
  const uint64_t fit = per_pass == 0 ? k : budget / per_pass;
  return static_cast<size_t>(
      std::min<uint64_t>(k, std::max<uint64_t>(1, fit)));
}

namespace {

/// The wave schedule of the memory-bounded path. Passes are grouped
/// into waves sized by WaveSize; per wave:
///
///   1. sort — each pass's attribute column is decoded and the pass
///      Reset (a serial counting sort). Only one decoded column is ever
///      resident: every decode fills the same buffer, its chunks in
///      parallel on the pool.
///   2. pack — every column is decoded once and packed into all of the
///      wave's bit matrices, fanned out over (pass x block) tasks of
///      kPackBlockPairs pairs, so even a one-pass wave fills every core.
///      The sweep starts at the last sort column, still decoded, and
///      wraps around: one decode per wave saved.
///   3. accumulate — per-pass popcounts run in parallel into per-pass
///      integer buffers, then merge serially in attribute order.
///
/// Counts are integers (commutative merges), pack blocks write disjoint
/// words, and pooled pass covariances land in per-attribute slots
/// reduced in attribute order, so the result is bit-identical to the
/// in-memory transform at any thread count and wave size.
Status AccumulateWaves(const ChunkedTable& table,
                       const StreamTransformOptions& options,
                       const std::vector<uint32_t>& shuffled,
                       const std::vector<uint64_t>& attr_seeds,
                       std::vector<uint64_t>* counts,
                       std::vector<uint64_t>* co_counts, size_t* total,
                       std::vector<Matrix>* pass_cov) {
  const size_t k = table.num_columns();
  const size_t n = table.num_rows();
  counts->assign(k, 0);
  co_counts->assign(k * k, 0);
  *total = 0;
  const size_t wave = WaveSize(options, n, k);
  const size_t threads = ResolveThreadCount(options.transform.threads);
  const size_t pairs =
      PairsPerAttribute(n, options.transform.max_pairs_per_attribute);
  const size_t blocks = (pairs + kPackBlockPairs - 1) / kPackBlockPairs;
  const Deadline* deadline = options.transform.deadline;

  StageTimes times;
  Stopwatch watch;
  std::vector<int32_t> codes;
  std::vector<AttributePass> passes(wave);
  std::vector<BitMatrix> bits(wave);
  std::vector<std::vector<uint64_t>> pass_counts(
      wave, std::vector<uint64_t>(k, 0));
  std::vector<std::vector<uint64_t>> pass_co_counts(
      wave, std::vector<uint64_t>(k * k, 0));
  std::vector<std::vector<int32_t>> gathered(std::min(threads, wave * blocks));

  for (size_t wave_lo = 0; wave_lo < k; wave_lo += wave) {
    const size_t wave_hi = std::min(k, wave_lo + wave);
    const size_t w = wave_hi - wave_lo;
    if (deadline != nullptr && deadline->Expired()) {
      return Status::Timeout("pair transform: time budget exhausted");
    }
    FDX_RETURN_IF_ERROR(CheckRssCeiling(options, table));

    watch.Reset();
    for (size_t i = 0; i < w; ++i) {
      const size_t attr = wave_lo + i;
      FDX_RETURN_IF_ERROR(table.ReadColumnCodes(attr, &codes, threads));
      passes[i].Reset(codes, table.Cardinality(attr), shuffled,
                      options.transform.max_pairs_per_attribute,
                      attr_seeds[attr]);
      bits[i].Reset(passes[i].num_pairs(), k);
    }
    times.sort += watch.ElapsedSeconds();

    watch.Reset();
    const size_t tasks = w * blocks;
    for (size_t step = 0; step < k; ++step) {
      if (deadline != nullptr && deadline->Expired()) {
        return Status::Timeout("pair transform: time budget exhausted");
      }
      const size_t col = (wave_hi - 1 + step) % k;
      if (step > 0) {
        FDX_RETURN_IF_ERROR(table.ReadColumnCodes(col, &codes, threads));
      }
      ParallelForChunks(
          0, tasks, std::min(threads, tasks), threads,
          [&](size_t chunk, size_t lo, size_t hi) {
            for (size_t task = lo; task < hi; ++task) {
              const size_t i = task / blocks;
              const size_t pair_lo = task % blocks * kPackBlockPairs;
              const size_t pair_hi =
                  std::min(pairs, pair_lo + kPackBlockPairs);
              PackPassBlock(codes.data(), passes[i], pair_lo, pair_hi,
                            bits[i].column_words(col) + pair_lo / 64,
                            &gathered[chunk]);
            }
          });
    }
    times.pack += watch.ElapsedSeconds();

    watch.Reset();
    ParallelFor(0, w, threads, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        std::fill(pass_counts[i].begin(), pass_counts[i].end(), 0);
        std::fill(pass_co_counts[i].begin(), pass_co_counts[i].end(), 0);
        bits[i].AccumulateMoments(pass_counts[i].data(),
                                  pass_co_counts[i].data());
      }
    });
    for (size_t i = 0; i < w; ++i) {
      const size_t attr = wave_lo + i;
      for (size_t c = 0; c < k; ++c) (*counts)[c] += pass_counts[i][c];
      for (size_t c = 0; c < k * k; ++c) {
        (*co_counts)[c] += pass_co_counts[i][c];
      }
      *total += passes[i].num_pairs();
      if (pass_cov != nullptr && passes[i].num_pairs() > 0) {
        (*pass_cov)[attr] = PassCovarianceFromCounts(
            pass_counts[i].data(), pass_co_counts[i].data(), k,
            passes[i].num_pairs());
      }
    }
    times.accumulate += watch.ElapsedSeconds();
  }
  std::mutex profile_mu;
  times.MergeInto(options.transform.profile, &profile_mu);
  if (*total == 0) {
    return Status::InvalidArgument("pair transform produced no samples");
  }
  return Status::OK();
}

/// Accumulates every attribute pass of a ChunkedTable. When every
/// decoded column fits the budget it decodes them once and hands them
/// to the in-memory engine's own pass loop (AccumulatePasses);
/// otherwise the passes run in waves. Counts are integers merged
/// commutatively and pooled pass covariances are stored per attribute,
/// so both paths produce the same bits.
Status AccumulateStream(const ChunkedTable& table,
                        const StreamTransformOptions& options,
                        const std::vector<uint32_t>& shuffled,
                        const std::vector<uint64_t>& attr_seeds,
                        std::vector<uint64_t>* counts,
                        std::vector<uint64_t>* co_counts, size_t* total,
                        std::vector<Matrix>* pass_cov) {
  const size_t k = table.num_columns();
  if (!AllColumnsFit(options, table.num_rows(), k)) {
    return AccumulateWaves(table, options, shuffled, attr_seeds, counts,
                           co_counts, total, pass_cov);
  }
  std::vector<std::vector<int32_t>> columns(k);
  std::vector<size_t> cardinalities(k);
  for (size_t c = 0; c < k; ++c) {
    FDX_RETURN_IF_ERROR(
        table.ReadColumnCodes(c, &columns[c], options.transform.threads));
    cardinalities[c] = table.Cardinality(c);
  }
  FDX_RETURN_IF_ERROR(CheckRssCeiling(options, table));
  return AccumulatePasses(columns, cardinalities, shuffled, attr_seeds,
                          options.transform, counts, co_counts, total,
                          pass_cov);
}

}  // namespace

Result<TransformedMoments> StreamTransformMoments(
    const ChunkedTable& table, const StreamTransformOptions& options) {
  const size_t k = table.num_columns();
  const size_t n = table.num_rows();
  // Shape validation is the in-memory check itself, so both engines
  // reject with the same message; then the canonical randomness preamble.
  FDX_RETURN_IF_ERROR(CheckTransformShape(n, k));
  std::vector<uint32_t> shuffled;
  std::vector<uint64_t> attr_seeds;
  PrepareTransformStreams(options.transform.seed, n, k, &shuffled,
                          &attr_seeds);
  std::vector<Matrix> pass_cov;
  if (options.transform.pooled_covariance) pass_cov.assign(k, Matrix());
  std::vector<uint64_t> counts;
  std::vector<uint64_t> co_counts;
  size_t total = 0;
  FDX_RETURN_IF_ERROR(AccumulateStream(
      table, options, shuffled, attr_seeds, &counts, &co_counts, &total,
      options.transform.pooled_covariance ? &pass_cov : nullptr));

  TransformedMoments moments = MomentsFromCounts(counts, co_counts, total, k);
  if (options.transform.pooled_covariance) {
    moments.cov = ReducePooledCovariance(pass_cov);
  }
  return moments;
}

}  // namespace fdx
