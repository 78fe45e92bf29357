// Koopman's large-block modular addition checksums (arXiv 2302.13432).
//
// Where Fletcher and Adler digest one byte per step, these algorithms
// digest the message as 64-bit big-endian *blocks* and reduce modulo a
// prime chosen near the top of the sum's value space, which buys both
// speed (an eighth of the loop iterations) and detection strength (a
// prime modulus has none of the 0x00/0xFF aliasing classes that
// ones-complement moduli like 255 and 65535 suffer from — the run
// pathology the paper measures on PBM and word-processor data).
//
// Two family members are implemented:
//
//   dual sum   (koopman_dual_*)   two Fletcher-style running sums
//              A += block, B += A, both mod 65521 (the largest prime
//              below 2^16); check value is the 32-bit (B<<16)|A.
//              Position-sensitive like Fletcher, so it sees swapped
//              and displaced blocks.
//   single sum (koopman_single_*) one running sum of the blocks mod
//              4294967291 (2^32 - 5, the largest prime below 2^32);
//              32-bit check value. Position-independent across blocks
//              — the 64-bit-grain analogue of the Internet sum.
//
// The final partial block, when the message length is not a multiple
// of 8, is zero-padded on the right (equivalently: treated as the
// high-order bytes of a 64-bit block). That convention makes the
// block count ceil(len / 8) and keeps the combine algebra exact at
// block-aligned split points:
//
//   dual:   A = Ax + Ay,  B = Bx + n_y * Ax + By   (mod 65521)
//           where n_y = block count of the second fragment — the
//           Fletcher composition rule lifted from bytes to blocks, so
//           the splice evaluator's partial-sum trick applies.
//   single: S = Sx + Sy                            (mod 2^32 - 5)
//
// Combination is exact only when the first fragment's byte length is
// a multiple of 8 (otherwise the tail of X and the head of Y would
// share a block); the streaming classes below buffer up to 7 bytes so
// arbitrary-chunk updates still produce whole-message results.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace cksum::alg {

/// Bytes per modular-addition block.
inline constexpr std::size_t kKoopmanBlockBytes = 8;

/// Dual-sum modulus: the largest prime below 2^16.
inline constexpr std::uint32_t kKoopmanDualMod = 65521;

/// Single-sum modulus: 2^32 - 5, the largest prime below 2^32.
inline constexpr std::uint64_t kKoopmanSingleMod = 4294967291ull;

/// Number of (zero-padded) 64-bit blocks in `len` bytes.
constexpr std::uint64_t koopman_block_count(std::size_t len) noexcept {
  return (static_cast<std::uint64_t>(len) + kKoopmanBlockBytes - 1) /
         kKoopmanBlockBytes;
}

/// The two dual-sum running sums, kept canonical (< 65521).
struct KoopmanDualPair {
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  friend bool operator==(const KoopmanDualPair&,
                         const KoopmanDualPair&) = default;
};

/// Pack (A, B) into the 32-bit check value B<<16 | A.
constexpr std::uint32_t koopman_dual_value(KoopmanDualPair p) noexcept {
  return (p.b << 16) | p.a;
}

/// Reference dual sum: one 64-bit block per step, immediate reduction.
/// The scalar entry of kern::koopman_dual_impls(); the faster entries
/// are differentially tested against it.
KoopmanDualPair koopman_dual_naive(util::ByteView data) noexcept;

/// Reference single sum: one 64-bit block per step, immediate
/// reduction.
std::uint64_t koopman_single_naive(util::ByteView data) noexcept;

/// Dual sums of the concatenation X ++ Y from the fragments' own sums.
/// `y_blocks` is Y's (zero-padded) block count; X's byte length must
/// be a multiple of kKoopmanBlockBytes for the result to be exact.
constexpr KoopmanDualPair koopman_dual_combine(
    KoopmanDualPair x, KoopmanDualPair y, std::uint64_t y_blocks) noexcept {
  // Every block of X gains y_blocks extra B-weight once Y follows it.
  const std::uint64_t shift =
      (y_blocks % kKoopmanDualMod) * static_cast<std::uint64_t>(x.a);
  return {(x.a + y.a) % kKoopmanDualMod,
          static_cast<std::uint32_t>(
              (static_cast<std::uint64_t>(x.b) + y.b + shift) %
              kKoopmanDualMod)};
}

/// Contribution of a fragment to a message in which `tail_blocks`
/// blocks follow it: (A, B + tail_blocks * A).
KoopmanDualPair koopman_dual_shift(KoopmanDualPair x,
                                   std::uint64_t tail_blocks) noexcept;

/// Single sum of the concatenation X ++ Y (X block-aligned).
constexpr std::uint64_t koopman_single_combine(std::uint64_t x,
                                               std::uint64_t y) noexcept {
  return (x + y) % kKoopmanSingleMod;
}

/// Incremental dual sum over arbitrary chunk boundaries: up to 7
/// partial-block bytes are buffered between updates, so pair() always
/// reflects the whole-message (zero-padded) result.
class KoopmanDualSum {
 public:
  void update(util::ByteView data) noexcept;
  KoopmanDualPair pair() const noexcept;
  std::uint32_t value() const noexcept { return koopman_dual_value(pair()); }
  void reset() noexcept;

 private:
  std::uint32_t a_ = 0;
  std::uint32_t b_ = 0;
  std::uint8_t pending_[kKoopmanBlockBytes] = {};
  std::size_t npending_ = 0;
};

/// Incremental single sum with the same partial-block buffering.
class KoopmanSingleSum {
 public:
  void update(util::ByteView data) noexcept;
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  std::uint64_t sum_ = 0;
  std::uint8_t pending_[kKoopmanBlockBytes] = {};
  std::size_t npending_ = 0;
};

}  // namespace cksum::alg
