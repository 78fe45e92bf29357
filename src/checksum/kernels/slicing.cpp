// The table-slicing / deferred-reduction implementations.
//
// CRC-32 runs slicing-by-8: eight message bytes are folded per step
// through eight 256-entry tables, turning the byte-serial table walk
// into eight independent loads XORed together (arXiv 1009.5949's
// "slicing-by-N").
//
// The modular sums (Fletcher, Fletcher-32, Adler-32) are unrolled so
// the inner loop does plain integer adds and the `% m` reductions run
// only at overflow-safe block boundaries (arXiv 2302.13432). The
// unrolled step is the closed form of eight sequential `a += d;
// b += a` updates:
//
//   b += 8·a + 8·d0 + 7·d1 + ... + 1·d7
//   a += d0 + d1 + ... + d7
//
// which keeps the partial sums equal (not merely congruent) to the
// sequential ones, so the block-boundary bounds of the scalar
// formulations carry over unchanged.
#include "checksum/kernels/impl.hpp"

#include <algorithm>

#include "checksum/adler32.hpp"
#include "checksum/crc32.hpp"

namespace cksum::alg::kern::impl {

namespace {

/// Bytes between Fletcher reductions: A stays below 2^22 and B below
/// 2^37 in the 64-bit accumulators.
constexpr std::size_t kFletcherChunk = std::size_t{1} << 14;

/// 16-bit words between Fletcher-32 reductions: A < 2^31, B < 2^45.
constexpr std::size_t kFletcher32ChunkWords = std::size_t{1} << 14;

/// zlib's NMAX: the longest run for which the 32-bit Adler
/// accumulators cannot overflow between reductions.
constexpr std::size_t kAdlerChunk = 5552;

/// 64-bit blocks between Koopman dual-sum reductions. Each folded
/// block residue is < 65535·(3375+225+15+1) < 2^28, so over a run the
/// A accumulator stays below 2^16 + 2048·2^28 < 2^40 and B below
/// 2^16 + 2048·2^40 < 2^51 — both comfortably inside 64 bits.
constexpr std::size_t kKoopmanDualRun = 2048;

/// 64-bit blocks between Koopman single-sum reductions. Each folded
/// block residue 5·hi + lo is < 6·2^32 < 2^35, so a run keeps the
/// accumulator below 2^32 + 2^27·2^35 = 2^62 + 2^32.
constexpr std::size_t kKoopmanSingleRun = std::size_t{1} << 27;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tb{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (kCrc32Poly ^ (c >> 1)) : (c >> 1);
    tb.t[0][n] = c;
  }
  // Each further slice appends one more zero byte.
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = tb.t[0][n];
    for (int s = 1; s < 8; ++s) {
      c = tb.t[0][c & 0xffu] ^ (c >> 8);
      tb.t[s][n] = c;
    }
  }
  return tb;
}

}  // namespace

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

std::uint32_t slicing_crc32(std::uint32_t crc, util::ByteView data) noexcept {
  const auto& tb = kCrc32Tables;
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    c = crc32_step8(c, p);
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = tb.t[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint16_t slicing_internet_sum(util::ByteView data) noexcept {
  // Word-at-a-time with the end-around carries deferred into the top
  // of a 64-bit accumulator and folded once at the end.
  std::uint64_t acc = 0;
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + 1 < n; i += 2)
    acc += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  if (i < n) acc += static_cast<std::uint32_t>(data[i]) << 8;
  while (acc >> 16) acc = (acc & 0xffffu) + (acc >> 16);
  return static_cast<std::uint16_t>(acc);
}

FletcherPair slicing_fletcher(util::ByteView data, FletcherMod mod) noexcept {
  const std::uint64_t m = modulus(mod);
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t a = 0, b = 0;
  while (n > 0) {
    std::size_t block = std::min(n, kFletcherChunk);
    n -= block;
    while (block >= 8) {
      b += 8 * a + 8u * p[0] + 7u * p[1] + 6u * p[2] + 5u * p[3] +
           4u * p[4] + 3u * p[5] + 2u * p[6] + 1u * p[7];
      a += static_cast<std::uint64_t>(p[0]) + p[1] + p[2] + p[3] + p[4] +
           p[5] + p[6] + p[7];
      p += 8;
      block -= 8;
    }
    while (block-- > 0) {
      a += *p++;
      b += a;
    }
    a %= m;
    b %= m;
  }
  return {static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b)};
}

Fletcher32Pair slicing_fletcher32(util::ByteView data) noexcept {
  constexpr std::uint64_t m = 65535;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t a = 0, b = 0;
  while (n >= 2) {
    std::size_t words = std::min(n / 2, kFletcher32ChunkWords);
    n -= words * 2;
    while (words >= 4) {
      const std::uint32_t w0 =
          static_cast<std::uint32_t>((p[0] << 8) | p[1]);
      const std::uint32_t w1 =
          static_cast<std::uint32_t>((p[2] << 8) | p[3]);
      const std::uint32_t w2 =
          static_cast<std::uint32_t>((p[4] << 8) | p[5]);
      const std::uint32_t w3 =
          static_cast<std::uint32_t>((p[6] << 8) | p[7]);
      b += 4 * a + 4u * w0 + 3u * w1 + 2u * w2 + 1u * w3;
      a += static_cast<std::uint64_t>(w0) + w1 + w2 + w3;
      p += 8;
      words -= 4;
    }
    while (words-- > 0) {
      a += static_cast<std::uint32_t>((p[0] << 8) | p[1]);
      b += a;
      p += 2;
    }
    a %= m;
    b %= m;
  }
  if (n == 1) {
    // Odd trailing byte: zero-padded on the right, same as the scalar
    // word loop.
    a = (a + (static_cast<std::uint32_t>(*p) << 8)) % m;
    b = (b + a) % m;
  }
  return {static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b)};
}

std::uint32_t slicing_adler32(std::uint32_t adler,
                              util::ByteView data) noexcept {
  std::uint32_t a = adler & 0xffffu;
  std::uint32_t b = (adler >> 16) & 0xffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n > 0) {
    std::size_t block = std::min(n, kAdlerChunk);
    n -= block;
    while (block >= 8) {
      b += 8 * a + 8u * p[0] + 7u * p[1] + 6u * p[2] + 5u * p[3] +
           4u * p[4] + 3u * p[5] + 2u * p[6] + 1u * p[7];
      a += static_cast<std::uint32_t>(p[0]) + p[1] + p[2] + p[3] + p[4] +
           p[5] + p[6] + p[7];
      p += 8;
      block -= 8;
    }
    while (block-- > 0) {
      a += *p++;
      b += a;
    }
    a %= kAdlerMod;
    b %= kAdlerMod;
  }
  return (b << 16) | a;
}

KoopmanDualPair slicing_koopman_dual(util::ByteView data) noexcept {
  // A 64-bit big-endian block with 16-bit lanes w0..w3 is congruent to
  // w0·3375 + w1·225 + w2·15 + w3 (mod 65521), because 2^16 ≡ 15 and
  // the higher lane weights are its powers: 15² = 225, 15³ = 3375.
  // Three small multiplies replace the per-block 64-bit modulo, and
  // the `%` reductions run only at kKoopmanDualRun boundaries.
  constexpr std::uint64_t m = kKoopmanDualMod;
  const std::uint8_t* p = data.data();
  std::size_t nblocks = data.size() / kKoopmanBlockBytes;
  std::uint64_t a = 0, b = 0;
  while (nblocks > 0) {
    std::size_t run = std::min(nblocks, kKoopmanDualRun);
    nblocks -= run;
    while (run-- > 0) {
      const std::uint64_t w0 = util::load_be16(p);
      const std::uint64_t w1 = util::load_be16(p + 2);
      const std::uint64_t w2 = util::load_be16(p + 4);
      const std::uint64_t w3 = util::load_be16(p + 6);
      a += w0 * 3375 + w1 * 225 + w2 * 15 + w3;
      b += a;
      p += kKoopmanBlockBytes;
    }
    a %= m;
    b %= m;
  }
  KoopmanDualPair out{static_cast<std::uint32_t>(a),
                      static_cast<std::uint32_t>(b)};
  const std::size_t tail = data.size() % kKoopmanBlockBytes;
  if (tail > 0) {
    // Final partial block, zero-padded on the right: one naive step
    // over the remainder combined onto the block-aligned prefix.
    out = koopman_dual_combine(
        out, koopman_dual_naive(data.subspan(data.size() - tail)), 1);
  }
  return out;
}

std::uint64_t slicing_koopman_single(util::ByteView data) noexcept {
  // 2^32 ≡ 5 (mod 2^32 - 5), so a block hi·2^32 + lo folds to
  // 5·hi + lo; the full modulo runs once per kKoopmanSingleRun blocks.
  constexpr std::uint64_t m = kKoopmanSingleMod;
  const std::uint8_t* p = data.data();
  std::size_t nblocks = data.size() / kKoopmanBlockBytes;
  std::uint64_t s = 0;
  while (nblocks > 0) {
    std::size_t run = std::min(nblocks, kKoopmanSingleRun);
    nblocks -= run;
    while (run-- > 0) {
      const std::uint64_t hi = util::load_be32(p);
      const std::uint64_t lo = util::load_be32(p + 4);
      s += hi * 5 + lo;
      p += kKoopmanBlockBytes;
    }
    s %= m;
  }
  const std::size_t tail = data.size() % kKoopmanBlockBytes;
  if (tail > 0)
    s = koopman_single_combine(
        s, koopman_single_naive(data.subspan(data.size() - tail)));
  return s;
}

}  // namespace cksum::alg::kern::impl
