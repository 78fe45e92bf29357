// The 32-bit Fletcher checksum — "Fletcher also defined a 32-bit
// version, where 16-bit sums are kept" (paper §2). Data is consumed as
// 16-bit big-endian words (an odd trailing byte is zero-padded); the
// two running sums are kept mod 65535 (ones-complement flavour, the
// form Fletcher analysed and RFC 1146 option B generalises).
//
// Included as the paper's mentioned-but-unmeasured extension point:
// the survey example reports it beside the 16-bit sums, and the same
// positional combination law applies with word (not byte) offsets.
// The whole-block sums are kern::fletcher32_block
// (checksum/kernels/kernel.hpp).
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace cksum::alg {

struct Fletcher32Pair {
  std::uint32_t a = 0;  ///< sum of 16-bit words, mod 65535
  std::uint32_t b = 0;  ///< end-weighted word sum, mod 65535

  friend bool operator==(const Fletcher32Pair&,
                         const Fletcher32Pair&) = default;
};

/// Pack into one 32-bit value (A in the high half).
constexpr std::uint32_t fletcher32_value(Fletcher32Pair p) noexcept {
  return (p.a << 16) | p.b;
}

/// Sums of X ++ Y from block sums; `y_len_words` = number of 16-bit
/// words in Y (ceil of bytes/2).
Fletcher32Pair fletcher32_combine(Fletcher32Pair x, Fletcher32Pair y,
                                  std::size_t y_len_words) noexcept;

/// Solve for two 16-bit check words stored at word positions p, p+1 of
/// an L-word message so it sums to zero in both terms; `u` = L - p is
/// the from-end weight of the first check word.
void fletcher32_check_words(Fletcher32Pair rest, std::size_t u,
                            std::uint16_t& x, std::uint16_t& y) noexcept;

/// A message (check words in place) is valid iff both sums ≡ 0.
bool fletcher32_verify(util::ByteView msg) noexcept;

}  // namespace cksum::alg
