// Fletcher's checksum, 8-bit flavour (as used by ISO TP4 and studied
// by the paper in both ones-complement (mod 255) and twos-complement
// (mod 256) arithmetic).
//
// Two running bytes are kept: A is the plain sum of the data bytes and
// B is the sum of each byte weighted by its position from the END of
// the message (last byte weight 1). Computing `A += d; B += A` left to
// right produces exactly that end-weighting. The check field is two
// bytes chosen so the received message satisfies A ≡ 0 and B ≡ 0
// ("sum-to-zero inversion", as the paper's implementation does).
//
// Block composition rule (paper §5.2): a block with local sums (a, b)
// ending `E` bytes before the end of the message contributes
// (a, b + E·a). This is what lets the splice simulator evaluate
// Fletcher over a splice from per-cell partial sums, and is the source
// of the "cell colouring" effect the paper analyses.
//
// The whole-block sums are kern::fletcher_block
// (checksum/kernels/kernel.hpp); this header holds the vocabulary and
// the composition and check-byte algebra on top of them.
#pragma once

#include <cstdint>
#include <utility>

#include "util/bytes.hpp"

namespace cksum::alg {

/// Arithmetic flavour: ones-complement (mod 255, two zeros: 0x00 and
/// 0xFF are congruent) or twos-complement (mod 256).
enum class FletcherMod : std::uint32_t { kOnes255 = 255, kTwos256 = 256 };

constexpr std::uint32_t modulus(FletcherMod m) noexcept {
  return static_cast<std::uint32_t>(m);
}

/// The two Fletcher running sums, kept canonical (< modulus).
struct FletcherPair {
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  friend bool operator==(const FletcherPair&, const FletcherPair&) = default;
};

/// Pack (a, b) into the 16-bit value A<<8 | B (for histogramming).
constexpr std::uint16_t fletcher_value(FletcherPair p) noexcept {
  return static_cast<std::uint16_t>((p.a << 8) | p.b);
}

/// Sums of the concatenation X ++ Y from the blocks' own sums.
/// Every byte of X gains |Y| extra weight in the B term.
FletcherPair fletcher_combine(FletcherPair x, FletcherPair y,
                              std::size_t y_len, FletcherMod mod) noexcept;

/// Contribution of a block to a message in which `tail_len` bytes
/// follow the block: (a, b + tail_len·a).
FletcherPair fletcher_shift(FletcherPair x, std::size_t tail_len,
                            FletcherMod mod) noexcept;

/// Solve for the two check bytes X, Y to be stored at message indices
/// p, p+1 (message length L) so that the full message sums to zero in
/// both terms. `rest` is (A, B) over the full message with zeros at
/// the check positions; `u` = L - p is the from-end weight of X.
/// Returns {X, Y}, each canonical (< modulus).
std::pair<std::uint8_t, std::uint8_t> fletcher_check_bytes(
    FletcherPair rest, std::size_t u, FletcherMod mod) noexcept;

/// A received message is valid iff both sums are congruent to zero.
bool fletcher_verify(util::ByteView msg, FletcherMod mod) noexcept;

/// Whether a pair is congruent to zero (valid) under `mod`.
constexpr bool fletcher_is_zero(FletcherPair p) noexcept {
  return p.a == 0 && p.b == 0;
}

}  // namespace cksum::alg
