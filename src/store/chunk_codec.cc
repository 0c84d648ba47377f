#include "store/chunk_codec.h"

namespace fdx {
namespace {

/// Zigzag-delta varint: each code is stored as the zigzagged difference
/// from its predecessor, LEB128-encoded. Dictionary codes are assigned
/// in first-appearance order, so low-cardinality columns (the common
/// case for FD mining) are dominated by small deltas and compress to
/// one byte per row; sorted or run-heavy regions do even better. The
/// transform is exactly invertible on any int32 sequence (nulls are
/// kNullCode = -1, just another small delta), so the decoded codes are
/// bit-identical to the raw format's.
class VarintDeltaCodec final : public ChunkCodec {
 public:
  const char* name() const override { return "varint"; }

  void EncodeColumn(const int32_t* codes, size_t n,
                    std::string* out) const override {
    int64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t delta = static_cast<int64_t>(codes[i]) - prev;
      prev = codes[i];
      // Zigzag so small negative deltas stay small.
      uint64_t z = (static_cast<uint64_t>(delta) << 1) ^
                   static_cast<uint64_t>(delta >> 63);
      while (z >= 0x80) {
        out->push_back(static_cast<char>(z | 0x80));
        z >>= 7;
      }
      out->push_back(static_cast<char>(z));
    }
  }

  Status DecodeColumn(const char* data, size_t size, size_t n,
                      int32_t* out) const override {
    size_t pos = 0;
    int64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t z = 0;
      unsigned shift = 0;
      for (;;) {
        if (pos >= size) {
          return Status::IOError(
              "varint codec: column payload truncated at code " +
              std::to_string(i) + " of " + std::to_string(n));
        }
        const uint64_t byte = static_cast<unsigned char>(data[pos++]);
        // An int32 delta zigzags into at most 33 bits = 5 LEB bytes.
        if (shift >= 35) {
          return Status::IOError(
              "varint codec: overlong varint at code " + std::to_string(i));
        }
        z |= (byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
      }
      const int64_t delta =
          static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
      const int64_t value = prev + delta;
      if (value < INT32_MIN || value > INT32_MAX) {
        return Status::IOError(
            "varint codec: decoded code out of int32 range at code " +
            std::to_string(i));
      }
      prev = value;
      out[i] = static_cast<int32_t>(value);
    }
    if (pos != size) {
      return Status::IOError("varint codec: " + std::to_string(size - pos) +
                             " trailing bytes after the last code");
    }
    return Status::OK();
  }
};

const VarintDeltaCodec kVarintCodec;

}  // namespace

Result<const ChunkCodec*> FindChunkCodec(const std::string& name) {
  if (name.empty() || name == "none") {
    return static_cast<const ChunkCodec*>(nullptr);
  }
  if (name == "varint") return static_cast<const ChunkCodec*>(&kVarintCodec);
  return Status::InvalidArgument("store: unknown chunk codec '" + name +
                                 "' (want none|varint)");
}

}  // namespace fdx
