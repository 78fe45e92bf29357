// Burst-error injection and the §2 detection-guarantee properties.
#include <gtest/gtest.h>

#include <bit>

#include "checksum/checksum.hpp"
#include "core/error_inject.hpp"
#include "util/rng.hpp"

namespace cksum::core {
namespace {

using util::ByteView;
using util::Bytes;

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Bytes b(n);
  util::Rng rng(seed);
  rng.fill(b);
  return b;
}

TEST(ErrorInject, BurstFlipsExactlyPatternBits) {
  Bytes data(8, 0);
  BurstSpec spec;
  spec.bit_offset = 3;
  spec.length_bits = 5;
  spec.pattern = 0b10011;  // window bits 0,1,4
  apply_burst(data, spec);
  // Bits 3,4 and 7 (MSB-first numbering) of byte 0.
  EXPECT_EQ(data[0], 0b00011001);
  for (std::size_t i = 1; i < data.size(); ++i) EXPECT_EQ(data[i], 0);
}

TEST(ErrorInject, ApplyTwiceRestores) {
  Bytes data = random_bytes(1, 64);
  const Bytes original = data;
  util::Rng rng(2);
  const BurstSpec spec = random_burst(rng, 64 * 8, 17);
  apply_burst(data, spec);
  EXPECT_NE(data, original);
  apply_burst(data, spec);
  EXPECT_EQ(data, original);
}

TEST(ErrorInject, RandomBurstSpansExactlyItsLength) {
  util::Rng rng(3);
  for (unsigned len = 1; len <= 64; ++len) {
    const BurstSpec spec = random_burst(rng, 1024, len);
    EXPECT_EQ(spec.length_bits, len);
    EXPECT_TRUE(spec.pattern & 1ULL);
    EXPECT_TRUE(spec.pattern & (1ULL << (len - 1)));
    if (len < 64) {
      EXPECT_EQ(spec.pattern >> len, 0u);
    }
    EXPECT_LE(spec.bit_offset + len, 1024u);
  }
}

// §2: the Internet checksum catches every burst of <= 15 bits.
class TcpBurstGuarantee : public ::testing::TestWithParam<unsigned> {};

TEST_P(TcpBurstGuarantee, AllBurstsDetected) {
  const unsigned len = GetParam();
  const Bytes data = random_bytes(4, 64);
  const std::uint16_t good = alg::internet_sum(ByteView(data));
  util::Rng rng(5 + len);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes corrupted = data;
    apply_burst(corrupted, random_burst(rng, 64 * 8, len));
    // Detection = congruence class changes.
    EXPECT_NE(alg::ones_canonical(alg::internet_sum(ByteView(corrupted))),
              alg::ones_canonical(good));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, TcpBurstGuarantee,
                         ::testing::Values(1u, 2u, 3u, 7u, 8u, 9u, 15u));

TEST(TcpBurst, SixteenBitBurstsOnlyMissOnZeroSwap) {
  // A 16-bit aligned burst that rewrites 0x0000 <-> 0xFFFF is the one
  // undetectable 16-bit burst.
  Bytes data = random_bytes(6, 64);
  data[10] = 0x00;
  data[11] = 0x00;
  const std::uint16_t good =
      alg::ones_canonical(alg::internet_sum(ByteView(data)));
  Bytes swapped = data;
  swapped[10] = 0xff;
  swapped[11] = 0xff;
  EXPECT_EQ(alg::ones_canonical(alg::internet_sum(ByteView(swapped))), good);

  // Any other aligned 16-bit rewrite is caught.
  util::Rng rng(7);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes corrupted = data;
    const std::uint16_t nv = static_cast<std::uint16_t>(rng.below(65536));
    if (nv == 0x0000 || nv == 0xffff) continue;
    corrupted[10] = static_cast<std::uint8_t>(nv >> 8);
    corrupted[11] = static_cast<std::uint8_t>(nv);
    EXPECT_NE(alg::ones_canonical(alg::internet_sum(ByteView(corrupted))),
              good);
  }
}

// §2: CRC-32 detects every burst spanning up to 32 bits: a burst
// spanning exactly 32 positions is x^k times a degree-31 polynomial,
// which the degree-32 generator can never divide. (The first
// undetectable burst length is 33 bits — the generator itself.)
class CrcBurstGuarantee : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrcBurstGuarantee, AllBurstsDetected) {
  const unsigned len = GetParam();
  const Bytes data = random_bytes(8, 128);
  const std::uint32_t good = alg::kern::crc32(ByteView(data));
  util::Rng rng(9 + len);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes corrupted = data;
    apply_burst(corrupted, random_burst(rng, 128 * 8, len));
    EXPECT_NE(alg::kern::crc32(ByteView(corrupted)), good);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CrcBurstGuarantee,
                         ::testing::Values(1u, 2u, 8u, 16u, 31u, 32u));

TEST(CrcDoubleBit, DetectedUpToLargeSeparations) {
  // "all 2-bit errors less than 2048 bits apart" — IEEE CRC-32's
  // actual guarantee window is far larger; verify a superset.
  const Bytes data = random_bytes(10, 1024);
  const std::uint32_t good = alg::kern::crc32(ByteView(data));
  util::Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes corrupted = data;
    const std::size_t gap = 1 + rng.below(4000);
    const std::size_t first = rng.below(1024 * 8 - gap - 1);
    apply_double_bit(corrupted, first, gap);
    EXPECT_NE(alg::kern::crc32(ByteView(corrupted)), good);
  }
}

TEST(CrcOddErrors, AlwaysDetected) {
  // Odd numbers of bit errors are always caught (the generator has
  // the (x+1) factor).
  const Bytes data = random_bytes(12, 256);
  const std::uint32_t good = alg::kern::crc32(ByteView(data));
  util::Rng rng(13);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes corrupted = data;
    const int flips = 1 + 2 * static_cast<int>(rng.below(6));  // 1,3,...,11
    for (int f = 0; f < flips; ++f) {
      const std::size_t bit = rng.below(256 * 8);
      corrupted[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
    }
    // Re-flipping the same bit twice makes the count even; tolerate by
    // checking parity of actual changes.
    std::size_t changed_bits = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
      changed_bits += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(data[i] ^ corrupted[i])));
    if (changed_bits % 2 == 0) continue;
    EXPECT_NE(alg::kern::crc32(ByteView(corrupted)), good);
  }
}

// Fletcher: every single burst shorter than 16 bits is detected
// (twos-complement version, per the paper's §2).
class FletcherBurstGuarantee : public ::testing::TestWithParam<unsigned> {};

TEST_P(FletcherBurstGuarantee, AllBurstsDetected) {
  const unsigned len = GetParam();
  const Bytes data = random_bytes(14, 64);
  const auto good = alg::kern::fletcher_block(ByteView(data),
                                        alg::FletcherMod::kTwos256);
  util::Rng rng(15 + len);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes corrupted = data;
    apply_burst(corrupted, random_burst(rng, 64 * 8, len));
    EXPECT_NE(alg::kern::fletcher_block(ByteView(corrupted),
                                  alg::FletcherMod::kTwos256),
              good);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FletcherBurstGuarantee,
                         ::testing::Values(1u, 2u, 7u, 11u, 15u));

}  // namespace
}  // namespace cksum::core
