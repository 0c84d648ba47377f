#include "util/fingerprint.h"

#include <cstdio>
#include <cstring>

namespace fdx {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;
/// Second lane starts from a different offset so the two 64-bit streams
/// are decorrelated; both use the standard FNV prime.
constexpr uint64_t kFnvOffset2 = 14695981039346656037ull;

}  // namespace

Fingerprint::Fingerprint() : lo_(kFnvOffset), hi_(kFnvOffset2) {}

void Fingerprint::Mix(const unsigned char* bytes, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    lo_ = (lo_ ^ bytes[i]) * kFnvPrime;
    hi_ = (hi_ ^ bytes[i]) * kFnvPrime;
    hi_ ^= hi_ >> 29;  // extra diffusion keeps the lanes independent
  }
}

void Fingerprint::Update(const void* data, size_t len) {
  BeginUpdate(len);
  UpdatePart(data, len);
}

void Fingerprint::BeginUpdate(size_t len) {
  unsigned char frame[8];
  for (size_t i = 0; i < 8; ++i) {
    frame[i] = static_cast<unsigned char>((static_cast<uint64_t>(len) >>
                                           (8 * i)) & 0xff);
  }
  Mix(frame, sizeof(frame));
}

void Fingerprint::UpdatePart(const void* data, size_t len) {
  Mix(static_cast<const unsigned char*>(data), len);
}

void Fingerprint::UpdateString(const std::string& text) {
  Update(text.data(), text.size());
}

void Fingerprint::UpdateU64(uint64_t value) {
  unsigned char bytes[8];
  for (size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xff);
  }
  Update(bytes, sizeof(bytes));
}

void Fingerprint::UpdateDouble(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  UpdateU64(bits);
}

std::string Fingerprint::Hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi_),
                static_cast<unsigned long long>(lo_));
  return buf;
}

}  // namespace fdx
