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
/// restarted daemon needs besides the rows — id, schema, the full
/// FdxOptions, and the canonical options key. The rows live in the
/// session's chunk store, whose manifest also carries the session's
/// content fingerprint; the snapshot is written once, at open.
///
/// Encoding rules (all deliberate, all verified on decode):
///  - Doubles are JSON *strings* rendered with %.17g. JsonWriter's
///    Number() is %.12g, which would silently perturb options across a
///    restart; strings keep every bit.
///  - The transform seed (uint64) is a string too — values above 2^53
///    do not survive a double round-trip.
struct SessionSnapshot {
  std::string id;            ///< registry id, e.g. "s-3"
  Schema schema;
  FdxOptions options;
  std::string options_key;   ///< CanonicalOptionsKey at encode time
};

/// Renders one session to its snapshot file contents (single-line JSON).
std::string EncodeSessionSnapshot(const std::string& id, const Schema& schema,
                                  const FdxOptions& options,
                                  const std::string& options_key);

/// Parses and *verifies* a snapshot: the version must be the current
/// one, and the decoded options must reproduce the stored canonical
/// options key. Any mismatch — codec drift, truncation, manual edits,
/// a snapshot from an older release — fails loudly instead of reviving
/// a session that would serve different bytes than before the crash.
Result<SessionSnapshot> DecodeSessionSnapshot(const std::string& text);

/// ResultCache spill: (key, payload) pairs, LRU-first so re-inserting
/// in order reproduces the recency order.
std::string EncodeCacheSnapshot(
    const std::vector<std::pair<std::string, std::string>>& entries);
Result<std::vector<std::pair<std::string, std::string>>> DecodeCacheSnapshot(
    const std::string& text);

}  // namespace fdx

#endif  // FDX_SERVICE_SNAPSHOT_H_
