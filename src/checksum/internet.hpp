// The Internet (IP/TCP/UDP) checksum — RFC 1071 / RFC 1141.
//
// A 16-bit ones-complement sum of the data taken as big-endian 16-bit
// words, with an odd trailing byte padded on the right with zero. The
// transmitted check field is the ones-complement (bit inverse) of the
// sum, so a valid packet sums to 0xFFFF.
//
// Properties exercised by the paper and preserved here:
//  * The sum is position-independent: the sum of a packet equals the
//    ones-complement sum of the sums of its pieces (with a byte-swap
//    rule for pieces starting at odd offsets).
//  * The value space has "two zeros": 0x0000 and 0xFFFF are congruent
//    (the sum is arithmetic mod 65535). Congruence comparisons must
//    canonicalise; see `ones_canonical`.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace cksum::alg {

/// End-around-carry addition of two ones-complement 16-bit values.
constexpr std::uint16_t ones_add(std::uint16_t a, std::uint16_t b) noexcept {
  std::uint32_t sum = static_cast<std::uint32_t>(a) + b;
  sum = (sum & 0xffffu) + (sum >> 16);
  return static_cast<std::uint16_t>((sum & 0xffffu) + (sum >> 16));
}

/// Ones-complement negation (bit inverse).
constexpr std::uint16_t ones_neg(std::uint16_t a) noexcept {
  return static_cast<std::uint16_t>(~a);
}

/// Canonical representative of the congruence class mod 65535:
/// maps 0xFFFF ("negative zero") to 0x0000. Two ones-complement sums
/// are congruent iff their canonical forms are equal.
constexpr std::uint16_t ones_canonical(std::uint16_t a) noexcept {
  return a == 0xffffu ? static_cast<std::uint16_t>(0) : a;
}

/// Byte-swap a 16-bit sum. Per RFC 1071, the sum of a block that
/// starts at an odd byte offset within the containing message equals
/// the byte-swapped sum of the block computed standalone.
constexpr std::uint16_t ones_swap(std::uint16_t a) noexcept {
  return static_cast<std::uint16_t>((a << 8) | (a >> 8));
}

/// Incremental ones-complement summation.
///
/// Feed arbitrary chunks via update(); the object tracks byte parity so
/// odd-length chunks compose correctly. fold() returns the running
/// 16-bit sum (not inverted).
class InternetSum {
 public:
  /// Add a chunk of message bytes.
  void update(util::ByteView data) noexcept;

  /// Add a precomputed 16-bit sum of a block whose length parity is
  /// `block_odd_length`. The block is assumed to start at the current
  /// parity position (i.e. blocks are concatenated in order).
  void update_sum(std::uint16_t block_sum, bool block_odd_length) noexcept;

  /// Add one big-endian 16-bit word (e.g. a pseudo-header field).
  void update_word(std::uint16_t word) noexcept;

  /// Current 16-bit ones-complement sum.
  std::uint16_t fold() const noexcept;

  /// Current check-field value: the inverse of the folded sum.
  std::uint16_t checksum() const noexcept { return ones_neg(fold()); }

  /// Parity of the total byte count consumed so far.
  bool odd() const noexcept { return odd_; }

  void reset() noexcept {
    acc_ = 0;
    odd_ = false;
  }

 private:
  std::uint64_t acc_ = 0;
  bool odd_ = false;
};

/// One-shot ones-complement sum of a buffer (not inverted).
std::uint16_t internet_sum(util::ByteView data) noexcept;

/// One-shot checksum field value: ~internet_sum(data).
inline std::uint16_t internet_checksum(util::ByteView data) noexcept {
  return ones_neg(internet_sum(data));
}

/// Combine the sums of two adjacent blocks A then B into the sum of
/// their concatenation. `a_odd_length` is the length parity of block A
/// (if odd, B's sum must be byte-swapped before adding — RFC 1071 §2B).
constexpr std::uint16_t internet_combine(std::uint16_t sum_a,
                                         std::uint16_t sum_b,
                                         bool a_odd_length) noexcept {
  return ones_add(sum_a, a_odd_length ? ones_swap(sum_b) : sum_b);
}

/// Incremental update per RFC 1141: the new message sum after a 16-bit
/// word `old_word` at an even offset is replaced by `new_word`.
constexpr std::uint16_t internet_update_word(std::uint16_t old_sum,
                                             std::uint16_t old_word,
                                             std::uint16_t new_word) noexcept {
  // old_sum - old_word + new_word in ones-complement arithmetic.
  return ones_add(ones_add(old_sum, ones_neg(old_word)), new_word);
}

}  // namespace cksum::alg
