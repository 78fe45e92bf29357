// 32-bit Fletcher (16-bit running sums mod 65535).
#include <gtest/gtest.h>

#include "checksum/fletcher32.hpp"
#include "checksum/kernels/kernel.hpp"
#include "util/rng.hpp"

namespace cksum::alg {
namespace {

using kern::fletcher32_block;
using util::ByteView;
using util::Bytes;

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Bytes b(n);
  util::Rng rng(seed);
  rng.fill(b);
  return b;
}

/// Direct evaluation of the definition.
Fletcher32Pair reference(ByteView data) {
  std::uint64_t a = 0, b = 0;
  const std::size_t words = (data.size() + 1) / 2;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint32_t hi = data[2 * w];
    const std::uint32_t lo = 2 * w + 1 < data.size() ? data[2 * w + 1] : 0;
    const std::uint32_t word = (hi << 8) | lo;
    a += word;
    b += static_cast<std::uint64_t>(words - w) * word;
  }
  return {static_cast<std::uint32_t>(a % 65535),
          static_cast<std::uint32_t>(b % 65535)};
}

TEST(Fletcher32, MatchesDefinition) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Bytes data = random_bytes(seed, 31 + seed * 57);
    EXPECT_EQ(fletcher32_block(ByteView(data)), reference(ByteView(data)));
  }
}

TEST(Fletcher32, EmptyIsZero) {
  EXPECT_EQ(fletcher32_block(ByteView{}), (Fletcher32Pair{0, 0}));
}

TEST(Fletcher32, OddLengthZeroPads) {
  const Bytes odd = {0xab};
  const Bytes even = {0xab, 0x00};
  EXPECT_EQ(fletcher32_block(ByteView(odd)), fletcher32_block(ByteView(even)));
}

class Fletcher32Combine : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fletcher32Combine, MatchesConcatenationAtEvenSplits) {
  // Combination is defined for word-aligned blocks.
  const Bytes data = random_bytes(42, 200);
  const std::size_t split = GetParam();
  const auto x = fletcher32_block(ByteView(data).first(split));
  const auto y = fletcher32_block(ByteView(data).subspan(split));
  const std::size_t y_words = (data.size() - split + 1) / 2;
  EXPECT_EQ(fletcher32_combine(x, y, y_words),
            fletcher32_block(ByteView(data)))
      << "split=" << split;
}

INSTANTIATE_TEST_SUITE_P(EvenSplits, Fletcher32Combine,
                         ::testing::Values(0, 2, 48, 96, 100, 198, 200));

TEST(Fletcher32, CheckWordsSumToZero) {
  for (const std::size_t pos : {0u, 14u, 58u}) {
    Bytes msg = random_bytes(7, 120);
    const std::size_t words = msg.size() / 2;
    const std::size_t p = pos;  // check words at word positions p, p+1
    ASSERT_LT(p + 1, words);
    msg[2 * p] = msg[2 * p + 1] = 0;
    msg[2 * p + 2] = msg[2 * p + 3] = 0;
    const auto rest = fletcher32_block(ByteView(msg));
    std::uint16_t x = 0, y = 0;
    fletcher32_check_words(rest, words - p, x, y);
    util::store_be16(msg.data() + 2 * p, x);
    util::store_be16(msg.data() + 2 * p + 2, y);
    EXPECT_TRUE(fletcher32_verify(ByteView(msg))) << "word pos " << p;
  }
}

TEST(Fletcher32, DetectsWordSwaps) {
  Bytes a = {0x12, 0x34, 0x56, 0x78};
  Bytes b = {0x56, 0x78, 0x12, 0x34};
  EXPECT_NE(fletcher32_block(ByteView(a)), fletcher32_block(ByteView(b)));
}

TEST(Fletcher32, SingleByteCorruptionAlwaysDetected) {
  Bytes data = random_bytes(9, 96);
  const auto good = fletcher32_block(ByteView(data));
  util::Rng rng(10);
  for (int t = 0; t < 500; ++t) {
    Bytes corrupted = data;
    const std::size_t at = rng.below(corrupted.size());
    const auto flip = static_cast<std::uint8_t>(1 + rng.below(255));
    // Skip the 0x0000 <-> 0xFFFF word congruence (the mod-65535 "two
    // zeros", inherited from ones-complement arithmetic).
    corrupted[at] ^= flip;
    const std::uint16_t before = util::load_be16(
        data.data() + (at & ~std::size_t{1}));
    const std::uint16_t after = util::load_be16(
        corrupted.data() + (at & ~std::size_t{1}));
    if ((before == 0x0000 && after == 0xffff) ||
        (before == 0xffff && after == 0x0000))
      continue;
    EXPECT_NE(fletcher32_block(ByteView(corrupted)), good);
  }
}

TEST(Fletcher32, LargeBufferNoOverflow) {
  const Bytes data(8 * 1024 * 1024, 0xff);
  const auto p = fletcher32_block(ByteView(data));
  EXPECT_LT(p.a, 65535u);
  EXPECT_LT(p.b, 65535u);
}

}  // namespace
}  // namespace cksum::alg
