#ifndef FDX_STORE_STREAM_TRANSFORM_H_
#define FDX_STORE_STREAM_TRANSFORM_H_

#include <cstdint>

#include "core/transform.h"
#include "store/chunked_table.h"

namespace fdx {

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
  /// them. Otherwise passes run in waves sized to the budget (see
  /// stream_transform.cc). 0 means unbounded (keep all columns). Results
  /// are bit-identical either way — the budget only changes I/O.
  uint64_t column_cache_bytes = 0;
  /// Process-RSS ceiling polled between attribute passes; a breach
  /// returns kUnavailable (the caller chose the ceiling, the input
  /// simply does not fit under it). Clean file-backed pages of the
  /// store's chunk mappings are subtracted from the polled figure —
  /// the kernel reclaims those under pressure, so they are page cache,
  /// not footprint. 0 disables the check.
  uint64_t rss_limit_bytes = 0;
};

/// Attribute passes per wave of the bounded schedule for an n x k table
/// under `options.column_cache_bytes`. The budget is charged, off the
/// top, one decoded column and every packing thread's block gather
/// scratch; then, per pass, its pair order (and sampled positions), its
/// k-column bit matrix and its integer accumulators. At least one pass
/// always runs: a budget too small for even that degrades to waves of
/// one rather than failing.
size_t WaveSize(const StreamTransformOptions& options, size_t n, size_t k);

/// PairTransformMoments over a ChunkedTable. Bit-identical to running the
/// in-memory transform on the concatenation of every appended batch, at
/// any chunk size, cache budget, and thread count.
Result<TransformedMoments> StreamTransformMoments(
    const ChunkedTable& table, const StreamTransformOptions& options = {});

}  // namespace fdx

#endif  // FDX_STORE_STREAM_TRANSFORM_H_
