// CRC-32 (IEEE 802.3 / AAL5 polynomial 0x04C11DB7), reflected
// implementation with the conventional init = 0xFFFFFFFF and final
// XOR = 0xFFFFFFFF — the exact CRC used by the AAL5 CPCS trailer the
// paper's splice simulator checks.
//
// The whole-buffer CRC lives in the implementation lists of
// checksum/kernels/kernel.hpp (kern::crc32); this header keeps the
// bitwise reference those implementations are checked against, an
// O(log n) `crc32_combine` in GF(2), and a precomputed fixed-length
// combiner used by the splice simulator to evaluate the CRC of a
// splice from per-cell CRCs in a handful of 32x32 bit-matrix products.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace cksum::alg {

/// Reflected IEEE CRC-32 polynomial.
inline constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;

/// Residue of a message with its correct CRC appended big-endian, as
/// AAL5 stores it: crc32_raw over (message ++ be32(crc)) with the
/// standard pre/post conditioning yields this constant.
inline constexpr std::uint32_t kCrc32Residue = 0xC704DD7Bu;

/// Bitwise reference implementation: the independent oracle for the
/// table-driven and folding implementations. `crc` is a *finalised*
/// CRC value; pass 0 to start (zlib semantics).
std::uint32_t crc32_bitwise(std::uint32_t crc, util::ByteView data) noexcept;

/// crc32(A ++ B) from crc32(A), crc32(B) and |B| — zlib-style GF(2)
/// matrix combination, O(log |B|).
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) noexcept;

/// A 32x32 GF(2) matrix over CRC state vectors.
class Gf2Matrix {
 public:
  std::uint32_t times(std::uint32_t vec) const noexcept {
    std::uint32_t out = 0;
    for (int i = 0; vec != 0; ++i, vec >>= 1)
      if (vec & 1u) out ^= rows_[static_cast<std::size_t>(i)];
    return out;
  }

  static Gf2Matrix zero_byte_operator() noexcept;  ///< advance CRC by 1 zero byte
  static Gf2Matrix square(const Gf2Matrix& m) noexcept;
  /// Operator advancing a CRC by `len` zero bytes.
  static Gf2Matrix zeros_operator(std::size_t len) noexcept;

  std::array<std::uint32_t, 32> rows_{};  // rows_[i] = image of bit i
};

/// Precomputed combiner for a fixed second-block length: repeatedly
/// folding blocks of the same size (e.g. 48-byte ATM cells) costs one
/// matrix-vector product per block instead of a log-size ladder. The
/// matrix is flattened into nibble lookup tables (8 tables x 16
/// entries) because the splice simulator calls this millions of times.
class CrcCombiner {
 public:
  explicit CrcCombiner(std::size_t len_b) noexcept;

  /// Advance a finalised CRC through |B| zero bytes — the linear map
  /// underlying combine(). Exposed separately because the splice DFS
  /// decomposes a splice CRC into an XOR of independently-advanced
  /// per-cell CRCs (advance(a ^ b) == advance(a) ^ advance(b)).
  std::uint32_t advance(std::uint32_t crc) const noexcept {
    std::uint32_t out = 0;
    for (int t = 0; t < 8; ++t)
      out ^= nibble_[static_cast<std::size_t>(t)]
                    [(crc >> (4 * t)) & 0xfu];
    return out;
  }

  /// crc32(A ++ B) given finalised crc32(A) and crc32(B).
  /// Identical algebra to zlib's crc32_combine: advance A's register
  /// through |B| zero bytes, then XOR with B's CRC.
  std::uint32_t combine(std::uint32_t crc_a, std::uint32_t crc_b) const noexcept {
    return advance(crc_a) ^ crc_b;
  }

 private:
  std::uint32_t nibble_[8][16];
};

}  // namespace cksum::alg
