#ifndef FDX_STORE_CHUNK_CODEC_H_
#define FDX_STORE_CHUNK_CODEC_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace fdx {

/// Per-column compression of chunk payloads. A codec transforms one
/// column's `int32` storage codes into a byte string and back; the
/// chunked store records the codec name in `manifest.json` and keeps
/// chunk fingerprints over the *uncompressed* serialization, so a raw
/// store and a compressed store of the same data carry identical
/// fingerprints (and the service's content hashes don't depend on the
/// storage codec).
///
/// Decoding is strict: a decoder must consume exactly `size` bytes and
/// produce exactly `n` codes, and must fail with kIOError (never crash
/// or truncate silently) on malformed input — compressed chunks are
/// still covered by the corrupt-store-fails-loudly contract.
class ChunkCodec {
 public:
  virtual ~ChunkCodec() = default;

  /// Codec name as recorded in the manifest (e.g. "varint").
  virtual const char* name() const = 0;

  /// Appends the encoding of `codes[0..n)` to `*out`.
  virtual void EncodeColumn(const int32_t* codes, size_t n,
                            std::string* out) const = 0;

  /// Decodes exactly `n` codes from `data[0..size)` into `out[0..n)`.
  virtual Status DecodeColumn(const char* data, size_t size, size_t n,
                              int32_t* out) const = 0;
};

/// Looks up a codec by manifest name. Returns nullptr for "none" (the
/// raw format has no codec) and an error for unknown names, so callers
/// distinguish "store is uncompressed" from "store needs a codec this
/// build doesn't have".
Result<const ChunkCodec*> FindChunkCodec(const std::string& name);

}  // namespace fdx

#endif  // FDX_STORE_CHUNK_CODEC_H_
