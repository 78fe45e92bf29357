// Tableless CRC-32 via sparse polynomial convolution ("Chorba",
// arXiv 2412.16398) — best's CRC-32 on machines without
// carry-less-multiply hardware.
//
// Adding any multiple of the generator G(x) = 0x104C11DB7 to the
// message polynomial leaves the CRC unchanged, so a message word can
// be *eliminated* by XOR-ing a suitably shifted copy of a multiple of
// G over the downstream bits. With the weight-6 multiple
//
//   M(x) = x^274 + x^93 + x^75 + x^19 + x^11 + 1
//
// (found by scripts/find_sparse_multiple.py; divisibility re-proven
// from scratch by tests/test_kernels.cpp's
// ChorbaSparseMultipleDividesGenerator), clearing the 64 bits at
// stream position 64*i re-injects them at tap distances
// D = 274 - e = {181, 199, 255, 263, 274} bits downstream — all
// within words i+2 .. i+5. The whole convolution therefore runs in
// five register-resident carry words with ten shift+XOR taps per
// eliminated word (two shift subexpressions shared), no lookup
// tables and no special hardware.
//
// Bit order: the CRC bit stream is reflected, so byte b at stream
// offset j contributes bits 8j..8j+7 LSB-first — exactly the layout
// of a little-endian 64-bit load. Word i's bit k is stream position
// 64i + k, shifts toward higher stream positions are plain `<<`, and
// the initial state XORs into the low 32 bits of word 0 (expressed
// below as the initial value of the first carry word).
//
// After the convolution only the last five words (plus pending
// carries) and any sub-word tail remain; they carry the entire
// residue and are finished bitwise from state 0 (a zero prefix is
// free: the zero state stays zero). Buffers shorter than the carry
// window (the 48-byte ATM cell among them) skip the convolution and
// run slicing-by-8: the convolution only beats slicing once the window
// is in play, and a bitwise fallback there would be slower than the
// scalar byte table.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "checksum/kernels/impl.hpp"

namespace cksum::alg::kern::impl {

namespace {

/// Reflected generator: x^32 term implicit, bit i = coeff of x^(32-i).
constexpr std::uint32_t kPolyReflected = 0xEDB88320u;

std::uint32_t bitwise_bytes(const std::uint8_t* p, std::size_t n,
                            std::uint32_t s) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    s ^= p[i];
    for (int b = 0; b < 8; ++b)
      s = (s >> 1) ^ ((s & 1u) != 0 ? kPolyReflected : 0u);
  }
  return s;
}

std::uint32_t bitwise_word(std::uint64_t w, std::uint32_t s) noexcept {
  for (int j = 0; j < 8; ++j) {
    s ^= static_cast<std::uint32_t>(w >> (8 * j)) & 0xFFu;
    for (int b = 0; b < 8; ++b)
      s = (s >> 1) ^ ((s & 1u) != 0 ? kPolyReflected : 0u);
  }
  return s;
}

std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
  } else {
    std::uint64_t w = 0;
    for (int i = 7; i >= 0; --i) w = (w << 8) | p[i];
    return w;
  }
}

}  // namespace

std::uint32_t chorba_crc32(std::uint32_t crc, util::ByteView data) noexcept {
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  const std::size_t nw = n / 8;
  if (nw < 8) return slicing_crc32(crc, data);  // shorter than the window

  // Convolution. Burying the initial state in the stream (word 0's
  // low 32 bits) is the same as seeding the first carry word with it.
  std::uint64_t c0 = crc ^ 0xFFFFFFFFu, c1 = 0, c2 = 0, c3 = 0, c4 = 0;
  std::size_t i = 0;
  for (; i + 6 <= nw; ++i) {
    const std::uint64_t w = load_le64(p + 8 * i) ^ c0;
    c0 = c1;
    c1 = c2;
    c2 = c3;
    c3 = c4;
    c4 = 0;
    // Taps of w land in words i+2 .. i+5, which after the window
    // shift above are carry indices 1..4. Each tap distance D splits
    // as (w << (D & 63)) into word i + D/64 and (w >> (64 - (D & 63)))
    // spilling into the next word.
    const std::uint64_t w7 = w << 7;    // shared: D=199 low, D=263 low
    const std::uint64_t w57 = w >> 57;  // shared: D=199, D=263 spills
    c1 ^= w << 53;                      // D=181 low half
    c2 ^= (w >> 11) ^ w7 ^ (w << 63);   // D=181 spill; 199, 255 low
    c3 ^= w57 ^ (w >> 1) ^ w7 ^ (w << 18);  // 199, 255 spills; 263, 274 low
    c4 ^= w57 ^ (w >> 46);              // D=263, 274 spills
  }

  // Exactly five full words remain; fold the pending carries into
  // them and finish bitwise from state 0 (zeros prefix is free).
  const std::uint64_t carries[5] = {c0, c1, c2, c3, c4};
  std::uint32_t s = 0;
  for (std::size_t j = 0; i < nw; ++i, ++j)
    s = bitwise_word(load_le64(p + 8 * i) ^ (j < 5 ? carries[j] : 0), s);
  s = bitwise_bytes(p + 8 * nw, n - 8 * nw, s);
  return s ^ 0xFFFFFFFFu;
}

}  // namespace cksum::alg::kern::impl
