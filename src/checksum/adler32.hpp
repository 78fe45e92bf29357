// Adler-32 (RFC 1950): Fletcher's idea with 16-bit sums mod 65521.
// Not studied by the paper directly, but included as the natural
// modern comparison point for the distribution and speed benches.
// The streaming sum itself is kern::adler32 (checksum/kernels/kernel.hpp;
// pass 1 to start).
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace cksum::alg {

inline constexpr std::uint32_t kAdlerMod = 65521;

/// adler32(A ++ B) from adler32(A), adler32(B), |B|.
std::uint32_t adler32_combine(std::uint32_t adler_a, std::uint32_t adler_b,
                              std::size_t len_b) noexcept;

}  // namespace cksum::alg
