#ifndef FDX_STORE_STREAM_TRANSFORM_H_
#define FDX_STORE_STREAM_TRANSFORM_H_

#include <cstdint>

#include "core/transform.h"
#include "store/chunked_table.h"

namespace fdx {

/// Schedule of the memory-bounded path (cache budget smaller than the
/// full column set). Both schedules run the same kernels on the same
/// integer counts, so they produce bit-identical results at any thread
/// count — they differ only in I/O order and parallelism.
enum class BoundedSchedule {
  /// Waves of attribute passes sized to the cache budget: each wave's
  /// passes are sorted with one column decoded ahead, then every column
  /// streams through once and is packed into all of the wave's passes
  /// in parallel. Each column is decoded once per wave instead of once
  /// per pass, and pack/popcount work fans out across threads.
  kWave,
  /// One pass at a time over an LRU column cache (the original serial
  /// schedule), kept as a reference implementation.
  kSerial,
};

/// Knobs of the out-of-core pair transform. The embedded TransformOptions
/// mean exactly what they mean in-memory — same seed derivation, same
/// sampling, same pooled-covariance estimator, same deadline polling —
/// because both engines run the shared code in core/transform_kernels.h.
struct StreamTransformOptions {
  TransformOptions transform;
  /// Budget for the resident working set (decoded columns at 4
  /// bytes/row, plus per-pass state on the wave schedule). When every
  /// column fits, the columns are decoded once and handed to the
  /// in-memory engine's own pass loop (AccumulatePasses): the same
  /// parallel loop, per-thread merge and deadline polling, not a copy of
  /// them. Otherwise the bounded schedule below kicks in. 0 means
  /// unbounded (keep all columns). Results are bit-identical either
  /// way — the budget only changes I/O.
  uint64_t column_cache_bytes = 0;
  /// How to schedule passes when the cache budget binds.
  BoundedSchedule bounded_schedule = BoundedSchedule::kWave;
  /// Process-RSS ceiling polled between attribute passes; a breach
  /// returns kUnavailable (the caller chose the ceiling, the input
  /// simply does not fit under it). Clean file-backed pages of the
  /// store's chunk mappings are subtracted from the polled figure —
  /// the kernel reclaims those under pressure, so they are page cache,
  /// not footprint. 0 disables the check.
  uint64_t rss_limit_bytes = 0;
};

/// PairTransformCounts over a ChunkedTable. Bit-identical to running the
/// in-memory transform on the concatenation of every appended batch, at
/// any chunk size, cache budget, and thread count.
Result<TransformCounts> StreamTransformCounts(
    const ChunkedTable& table, const StreamTransformOptions& options = {});

/// PairTransformMoments over a ChunkedTable (same equivalence contract).
Result<TransformedMoments> StreamTransformMoments(
    const ChunkedTable& table, const StreamTransformOptions& options = {});

}  // namespace fdx

#endif  // FDX_STORE_STREAM_TRANSFORM_H_
