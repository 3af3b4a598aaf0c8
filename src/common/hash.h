#ifndef TELEKIT_COMMON_HASH_H_
#define TELEKIT_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace telekit {

// 64-bit FNV-1a, for fingerprints and checksums that are stored in files
// or names: a hash starts from kFnv1aOffset, and each function folds more
// bytes into `h` and returns the result.

constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Folds n bytes.
inline uint64_t Fnv1a(const char* data, size_t n, uint64_t h = kFnv1aOffset) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Folds the bytes of `s` (not its length).
inline uint64_t Fnv1aStr(const std::string& s, uint64_t h) {
  return Fnv1a(s.data(), s.size(), h);
}

/// Folds the 8 bytes of `v`, least significant first.
inline uint64_t Fnv1aU64(uint64_t v, uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace telekit

#endif  // TELEKIT_COMMON_HASH_H_
