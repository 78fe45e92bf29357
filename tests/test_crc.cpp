// CRC-32 and the generic CRC engine: known vectors, engine agreement,
// streaming, and the GF(2) combination algebra the splice simulator
// depends on.
#include <gtest/gtest.h>

#include "checksum/crc32.hpp"
#include "checksum/generic_crc.hpp"
#include "checksum/kernels/kernel.hpp"
#include "util/rng.hpp"

namespace cksum::alg {
namespace {

using kern::crc32;
using util::ByteView;
using util::Bytes;

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Bytes b(n);
  util::Rng rng(seed);
  rng.fill(b);
  return b;
}

ByteView sv(const char* s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s), strlen(s));
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(sv("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(sv("")), 0x00000000u);
  EXPECT_EQ(crc32(sv("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(sv("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(sv("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

// The bitwise oracle against the scalar entry of the CRC-32
// implementation list; tests/test_kernels.cpp carries every other
// entry to the scalar one.
TEST(Crc32, EnginesAgree) {
  auto* scalar = kern::crc32_impls().scalar().fn;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Bytes data = random_bytes(seed, 1 + seed * 97);
    EXPECT_EQ(scalar(0, ByteView(data)), crc32_bitwise(0, ByteView(data)));
  }
}

TEST(Crc32, EnginesAgreeWithNonzeroSeedCrc) {
  const Bytes a = random_bytes(1, 31);
  const Bytes b = random_bytes(2, 57);
  const auto seed_crc = crc32(ByteView(a));
  EXPECT_EQ(crc32_bitwise(seed_crc, ByteView(b)),
            kern::crc32_impls().scalar().fn(seed_crc, ByteView(b)));
}

TEST(Crc32, StreamingMatchesOneShot) {
  const Bytes data = random_bytes(7, 500);
  std::uint32_t crc = 0;
  crc = crc32(crc, ByteView(data).first(13));
  crc = crc32(crc, ByteView(data).subspan(13, 200));
  crc = crc32(crc, ByteView(data).subspan(213));
  EXPECT_EQ(crc, crc32(ByteView(data)));
}

class Crc32Combine : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Crc32Combine, MatchesConcatenation) {
  const std::size_t len_b = GetParam();
  const Bytes a = random_bytes(10, 100);
  const Bytes b = random_bytes(11, len_b);
  Bytes ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(crc32_combine(crc32(ByteView(a)), crc32(ByteView(b)), len_b),
            crc32(ByteView(ab)));
}

INSTANTIATE_TEST_SUITE_P(Lengths, Crc32Combine,
                         ::testing::Values(0, 1, 2, 7, 44, 48, 255, 4096));

TEST(Crc32Combine, PrecomputedCombinerMatchesGeneral) {
  const CrcCombiner comb(48);
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next());
    const auto b = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(comb.combine(a, b), crc32_combine(a, b, 48));
  }
}

TEST(Crc32Combine, FoldingCellsMatchesWholeBuffer) {
  // Exactly the splice simulator's usage: fold 48-byte cell CRCs, then
  // a 44-byte partial.
  const Bytes data = random_bytes(5, 48 * 6 + 44);
  const CrcCombiner c48(48), c44(44);
  std::uint32_t crc = 0;
  for (int i = 0; i < 6; ++i) {
    const auto cell_crc = crc32(ByteView(data).subspan(48 * i, 48));
    crc = (i == 0) ? cell_crc : c48.combine(crc, cell_crc);
  }
  crc = c44.combine(crc, crc32(ByteView(data).subspan(48 * 6, 44)));
  EXPECT_EQ(crc, crc32(ByteView(data)));
}

TEST(Crc32, DetectsAllSingleBitErrorsInACell) {
  Bytes data = random_bytes(9, 48);
  const auto good = crc32(ByteView(data));
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      data[i] ^= static_cast<std::uint8_t>(1 << b);
      EXPECT_NE(crc32(ByteView(data)), good);
      data[i] ^= static_cast<std::uint8_t>(1 << b);
    }
  }
}

TEST(Crc32, DetectsAllBurstErrorsUpTo32Bits) {
  Bytes data = random_bytes(12, 64);
  const auto good = crc32(ByteView(data));
  util::Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes corrupted = data;
    const std::size_t bit0 = rng.below(64 * 8 - 32);
    const std::uint32_t pattern =
        static_cast<std::uint32_t>(rng.next()) | 1u;  // burst starts dirty
    for (int b = 0; b < 32; ++b) {
      if (pattern & (1u << b)) {
        const std::size_t bit = bit0 + static_cast<std::size_t>(b);
        corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
    EXPECT_NE(crc32(ByteView(corrupted)), good);
  }
}

// ---- GenericCrc ----

TEST(GenericCrc, Width32MatchesCrc32) {
  const GenericCrc g(32, 0x04C11DB7);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Bytes data = random_bytes(seed, 10 + seed * 77);
    EXPECT_EQ(g.compute(ByteView(data)), crc32(ByteView(data)));
  }
}

TEST(GenericCrc, Crc16X25KnownVector) {
  // CRC-16/X-25: poly 0x1021 reflected, init/xorout all ones.
  const GenericCrc g(16, 0x1021);
  EXPECT_EQ(g.compute(sv("123456789")), 0x906Eu);
}

TEST(GenericCrc, Crc8DarcStyle) {
  // Width < 8 exercises the narrow-register path. Compare table vs
  // bitwise engines (no canonical published vector for this variant).
  const GenericCrc g(5, 0x15);
  const Bytes data = random_bytes(6, 100);
  EXPECT_EQ(g.update(0, ByteView(data)), g.update_bitwise(0, ByteView(data)));
}

class GenericCrcWidths : public ::testing::TestWithParam<int> {};

TEST_P(GenericCrcWidths, TableMatchesBitwise) {
  const int width = GetParam();
  const GenericCrc g(width, standard_poly(width));
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Bytes data = random_bytes(seed + 50, 64 + seed * 13);
    EXPECT_EQ(g.update(0, ByteView(data)),
              g.update_bitwise(0, ByteView(data)))
        << "width=" << width;
  }
}

TEST_P(GenericCrcWidths, StreamingMatchesOneShot) {
  const int width = GetParam();
  const GenericCrc g(width, standard_poly(width));
  const Bytes data = random_bytes(60, 300);
  std::uint32_t crc = 0;
  crc = g.update(crc, ByteView(data).first(99));
  crc = g.update(crc, ByteView(data).subspan(99));
  EXPECT_EQ(crc, g.compute(ByteView(data)));
}

TEST_P(GenericCrcWidths, CombineMatchesConcatenation) {
  const int width = GetParam();
  const GenericCrc g(width, standard_poly(width));
  const Bytes a = random_bytes(70, 48);
  const Bytes b = random_bytes(71, 48);
  Bytes ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(g.combine(g.compute(ByteView(a)), g.compute(ByteView(b)), 48),
            g.compute(ByteView(ab)))
      << "width=" << width;
}

TEST_P(GenericCrcWidths, ValueStaysInRange) {
  const int width = GetParam();
  const GenericCrc g(width, standard_poly(width));
  const Bytes data = random_bytes(80, 256);
  EXPECT_EQ(g.compute(ByteView(data)) & ~g.mask(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, GenericCrcWidths,
                         ::testing::Values(3, 5, 7, 8, 10, 12, 16, 21, 24, 30,
                                           32));

TEST(GenericCrc, RejectsBadWidth) {
  EXPECT_THROW(GenericCrc(0, 0x3), std::invalid_argument);
  EXPECT_THROW(GenericCrc(33, 0x3), std::invalid_argument);
}

TEST(GenericCrc, CombinerMatchesGeneralCombine) {
  // The nibble-table Combiner and the per-call combine must agree —
  // for CRC-32 and a narrow width where rows past the register are 0.
  util::Rng rng(11);
  for (const std::size_t width : {32u, 16u, 8u}) {
    const GenericCrc g(width, standard_poly(width));
    for (const std::size_t len : {1u, 44u, 48u, 300u}) {
      const GenericCrc::Combiner comb = g.combiner(len);
      for (int i = 0; i < 50; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next()) & g.mask();
        const auto b = static_cast<std::uint32_t>(rng.next()) & g.mask();
        EXPECT_EQ(comb.combine(a, b), g.combine(a, b, len))
            << "width=" << width << " len=" << len;
        EXPECT_EQ(comb.advance(a ^ b), comb.advance(a) ^ comb.advance(b));
      }
    }
  }
}

TEST(GenericCrc, CombinerCacheReturnsStableReferences) {
  const GenericCrc g(32, standard_poly(32));
  CombinerCache cache(g);
  const GenericCrc::Combiner& c48 = cache.get(48);
  // Populating more entries must not invalidate earlier references
  // (the splice evaluator holds them across a whole corpus run).
  for (std::size_t len = 1; len < 64; ++len) cache.get(len);
  EXPECT_EQ(&c48, &cache.get(48));
  EXPECT_EQ(c48.combine(0x1234u, 0x5678u), g.combine(0x1234u, 0x5678u, 48));
}

}  // namespace
}  // namespace cksum::alg
