// Non-cryptographic 64-bit content hashing.
//
// The splice simulator compares cell payloads billions of times; it
// keys those comparisons on a 64-bit hash of each 48-byte cell instead
// of byte-wise comparison. A 64-bit hash over <10^7 cells makes an
// accidental collision (~1e-5 via birthday bound) negligible next to
// the effects being measured, and the slow path re-verifies bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace cksum::util {

/// FNV-1a 64-bit parameters: the state starts at the offset basis and
/// absorbs each byte as h = (h ^ byte) * prime.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a 64-bit. Simple, stable reference hash.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept;

/// Mixed 64-bit hash (FNV-1a core with a murmur-style finalizer) —
/// stronger avalanche than raw FNV for short inputs like 48-byte cells.
std::uint64_t hash64(std::span<const std::uint8_t> data) noexcept;

/// Convenience overload for string data.
std::uint64_t hash64(std::string_view text) noexcept;

/// Murmur3-style finalizer; useful to hash integers / combine hashes.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// hash64 of `len` bytes whose FNV-1a state is `fnv`: for code that
/// runs the FNV-1a chain inline beside other per-byte work.
constexpr std::uint64_t hash64_finish(std::uint64_t fnv,
                                      std::size_t len) noexcept {
  return mix64(fnv ^ (len * 0x9e3779b97f4a7c15ULL));
}

/// Order-dependent combination of two hashes.
constexpr std::uint64_t combine_hash(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace cksum::util
