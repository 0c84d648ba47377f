#ifndef FDX_SERVICE_SNAPSHOT_H_
#define FDX_SERVICE_SNAPSHOT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/fdx.h"
#include "data/table.h"
#include "util/status.h"

namespace fdx {

/// Durable on-disk form of one fdxd session (see DESIGN.md §13): what a
/// restarted daemon needs besides the rows — id, schema, and the
/// options. The rows live in the session's chunk store, whose manifest
/// also carries the session's content fingerprint; the snapshot is
/// written once, at open.
///
/// The options are stored as their canonical options key (the codec
/// ParseOptionsKey inverts) plus the two unkeyed fields a session keeps,
/// `threads` and `time_budget_seconds`, as exact decimal strings. A
/// checksum over id, schema, key and those two fields detects any edit
/// or corruption of them.
struct SessionSnapshot {
  std::string id;  ///< registry id, e.g. "s-3"
  Schema schema;
  FdxOptions options;
};

/// Renders one session to its snapshot file contents (single-line JSON).
std::string EncodeSessionSnapshot(const std::string& id, const Schema& schema,
                                  const FdxOptions& options);

/// Parses and *verifies* a snapshot: the version must be the current
/// one, the checksum must match, and the options key must parse. Any
/// mismatch — truncation, manual edits, a snapshot from an older
/// release — fails loudly instead of reviving a session that would
/// serve different bytes than before the crash.
Result<SessionSnapshot> DecodeSessionSnapshot(const std::string& text);

/// ResultCache spill: (key, payload) pairs, LRU-first so re-inserting
/// in order reproduces the recency order.
std::string EncodeCacheSnapshot(
    const std::vector<std::pair<std::string, std::string>>& entries);
Result<std::vector<std::pair<std::string, std::string>>> DecodeCacheSnapshot(
    const std::string& text);

}  // namespace fdx

#endif  // FDX_SERVICE_SNAPSHOT_H_
