#ifndef FDX_UTIL_FINGERPRINT_H_
#define FDX_UTIL_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace fdx {

/// Streaming 128-bit content fingerprint (two independent FNV-1a lanes
/// over a length-prefixed byte stream). Used by the service's result
/// cache to key discovery results by dataset content: equal streams
/// produce equal digests, and the length prefixes make the framing
/// unambiguous ("ab" + "c" never collides with "a" + "bc").
///
/// This is a content hash, not a cryptographic one — cache keys only
/// need collision resistance against accidental collisions, and 128
/// bits of FNV keeps the hot path allocation- and dependency-free.
class Fingerprint {
 public:
  Fingerprint();

  /// Mixes `len` raw bytes into the digest, framed by their length.
  void Update(const void* data, size_t len);

  /// Update delivered in pieces, for bytes no one buffer holds at once:
  /// BeginUpdate(len) frames them, then UpdatePart calls must supply
  /// exactly `len` bytes in order. The digest equals Update's.
  void BeginUpdate(size_t len);
  void UpdatePart(const void* data, size_t len);

  /// Mixes a string (length-prefixed, so field boundaries survive).
  void UpdateString(const std::string& text);

  /// Mixes an integer (fixed 8-byte little-endian encoding).
  void UpdateU64(uint64_t value);

  /// Mixes a double by bit pattern (so -0.0 and 0.0 stay distinct and
  /// the digest never depends on locale or formatting).
  void UpdateDouble(double value);

  /// Current digest as 32 lowercase hex characters.
  std::string Hex() const;

  /// Low lane of the digest (for tests and cheap comparisons).
  uint64_t lo() const { return lo_; }
  uint64_t hi() const { return hi_; }

 private:
  void Mix(const unsigned char* bytes, size_t len);

  uint64_t lo_;
  uint64_t hi_;
};

}  // namespace fdx

#endif  // FDX_UTIL_FINGERPRINT_H_
