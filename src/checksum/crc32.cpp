#include "checksum/crc32.hpp"

namespace cksum::alg {

std::uint32_t crc32_bitwise(std::uint32_t crc, util::ByteView data) noexcept {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (kCrc32Poly ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

Gf2Matrix Gf2Matrix::zero_byte_operator() noexcept {
  // Operator for one zero *bit*, squared three times -> one zero byte.
  Gf2Matrix bit;
  bit.rows_[0] = kCrc32Poly;
  std::uint32_t row = 1;
  for (int i = 1; i < 32; ++i) {
    bit.rows_[static_cast<std::size_t>(i)] = row;
    row <<= 1;
  }
  Gf2Matrix two = square(bit);
  Gf2Matrix four = square(two);
  return square(four);
}

Gf2Matrix Gf2Matrix::square(const Gf2Matrix& m) noexcept {
  Gf2Matrix out;
  for (std::size_t i = 0; i < 32; ++i) out.rows_[i] = m.times(m.rows_[i]);
  return out;
}

Gf2Matrix Gf2Matrix::zeros_operator(std::size_t len) noexcept {
  // Identity, then multiply in squarings of the one-zero-byte operator
  // for each set bit of len.
  Gf2Matrix result;
  for (int i = 0; i < 32; ++i) result.rows_[static_cast<std::size_t>(i)] = 1u << i;
  Gf2Matrix power = zero_byte_operator();
  while (len != 0) {
    if (len & 1u) {
      Gf2Matrix next;
      for (std::size_t i = 0; i < 32; ++i)
        next.rows_[i] = power.times(result.rows_[i]);
      result = next;
    }
    len >>= 1;
    if (len != 0) power = square(power);
  }
  return result;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) noexcept {
  return Gf2Matrix::zeros_operator(len_b).times(crc_a) ^ crc_b;
}

CrcCombiner::CrcCombiner(std::size_t len_b) noexcept {
  const Gf2Matrix op = Gf2Matrix::zeros_operator(len_b);
  for (int t = 0; t < 8; ++t) {
    for (std::uint32_t nib = 0; nib < 16; ++nib) {
      std::uint32_t v = 0;
      for (int b = 0; b < 4; ++b)
        if (nib & (1u << b))
          v ^= op.rows_[static_cast<std::size_t>(4 * t + b)];
      nibble_[static_cast<std::size_t>(t)][nib] = v;
    }
  }
}

CrcCombiner::CrcCombiner(const CrcCombiner& first,
                         const CrcCombiner& then) noexcept {
  for (std::size_t t = 0; t < 8; ++t)
    for (std::size_t nib = 0; nib < 16; ++nib)
      nibble_[t][nib] = then.advance(first.nibble_[t][nib]);
}

std::vector<CrcCombiner> combiner_ladder(std::size_t first, std::size_t step,
                                         std::size_t count) {
  std::vector<CrcCombiner> v;
  if (count == 0) return v;
  v.reserve(count);
  const CrcCombiner by_step(step);
  v.emplace_back(first);
  while (v.size() < count) v.push_back(CrcCombiner(v.back(), by_step));
  return v;
}

}  // namespace cksum::alg
