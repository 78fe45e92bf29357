// Parameterisable CRC engine, widths 1..32.
//
// The paper's headline quantitative claim is that "the 16-bit TCP
// checksum performed about as well as a 10-bit CRC" on real data. To
// reproduce that we need CRCs of arbitrary width to race against the
// Internet checksum; this engine supports any width up to 32 with any
// generator polynomial, using the reflected (LSB-first) formulation
// with init = xorout = all-ones (the CRC-32 conventions generalised).
//
// Like crc32, the engine is linear over GF(2) after conditioning is
// cancelled, so finalised values combine with the same
// zeros-operator ^ algebra; `zeros_operator`/`combine` expose that.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "util/bytes.hpp"

namespace cksum::alg {

/// Reverse the low `width` bits of `v`.
constexpr std::uint32_t reflect_bits(std::uint32_t v, int width) noexcept {
  std::uint32_t out = 0;
  for (int i = 0; i < width; ++i) {
    out = (out << 1) | (v & 1u);
    v >>= 1;
  }
  return out;
}

class GenericCrc {
 public:
  /// `poly_normal` is the generator polynomial in the usual MSB-first
  /// notation (e.g. 0x04C11DB7 for CRC-32, 0x233 for CRC-10).
  GenericCrc(int width, std::uint32_t poly_normal);

  int width() const noexcept { return width_; }
  std::uint32_t mask() const noexcept { return mask_; }
  std::uint32_t poly_reflected() const noexcept { return poly_; }

  /// Finalised CRC of a buffer.
  std::uint32_t compute(util::ByteView data) const noexcept {
    return update(0, data);
  }

  /// Streaming continuation over finalised values (zlib semantics:
  /// pass the previous finalised CRC, or 0 to start).
  std::uint32_t update(std::uint32_t crc, util::ByteView data) const noexcept;

  /// Bitwise reference (for tests).
  std::uint32_t update_bitwise(std::uint32_t crc,
                               util::ByteView data) const noexcept;

  /// crc(A ++ B) from finalised crc(A), crc(B), |B|.
  std::uint32_t combine(std::uint32_t crc_a, std::uint32_t crc_b,
                        std::size_t len_b) const noexcept;

  /// Reusable fixed-length combiner for hot loops that repeatedly
  /// append blocks of one size. The zeros-operator matrix is flattened
  /// into nibble lookup tables (8 tables x 16 entries), same as the
  /// dedicated CRC-32 CrcCombiner: one combine costs 8 loads/XORs
  /// instead of a width-long row scan.
  class Combiner {
   public:
    /// Advance a finalised CRC through len_b zero bytes (the linear
    /// part of combine; advance(a ^ b) == advance(a) ^ advance(b)).
    std::uint32_t advance(std::uint32_t crc) const noexcept {
      std::uint32_t out = 0;
      for (int t = 0; t < 8; ++t)
        out ^= nibble_[static_cast<std::size_t>(t)][(crc >> (4 * t)) & 0xfu];
      return out;
    }

    std::uint32_t combine(std::uint32_t crc_a,
                          std::uint32_t crc_b) const noexcept {
      return advance(crc_a) ^ crc_b;
    }

   private:
    friend class GenericCrc;
    explicit Combiner(const std::vector<std::uint32_t>& rows);
    std::uint32_t nibble_[8][16];
  };

  Combiner combiner(std::size_t len_b) const { return Combiner(zeros_rows(len_b)); }

  /// Number of distinct CRC values (2^width) as a double, for
  /// expected-miss-rate computations.
  double value_space() const noexcept;

 private:
  std::vector<std::uint32_t> zeros_rows(std::size_t len) const noexcept;

  int width_;
  std::uint32_t poly_;  // reflected form
  std::uint32_t mask_;
  std::array<std::uint32_t, 256> table_{};
};

/// Thread-safe memo of fixed-length Combiners for one engine. Callers
/// that fold blocks of a whole family of lengths — e.g. the splice
/// evaluator advancing cell CRCs by every suffix length 44 + 48*d, or
/// a k-sweep reusing one combiner per substitution length — build each
/// zeros-operator once instead of per use.
class CombinerCache {
 public:
  explicit CombinerCache(const GenericCrc& crc) : crc_(&crc) {}

  /// The combiner advancing by `len_b` zero bytes (built on first use).
  const GenericCrc::Combiner& get(std::size_t len_b);

 private:
  const GenericCrc* crc_;
  std::mutex mu_;
  std::map<std::size_t, GenericCrc::Combiner> memo_;
};

/// A small catalogue of standard generator polynomials by width, used
/// by the CRC-width ablation bench. Widths without a well-known
/// standard polynomial use entries from Koopman's tables.
std::uint32_t standard_poly(int width);

}  // namespace cksum::alg
