// Adler-32 and the util substrate (RNG, hashing, byte helpers, math).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <set>

#include "checksum/adler32.hpp"
#include "checksum/kernels/kernel.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"
#include "util/pcap.hpp"
#include "util/rng.hpp"

namespace cksum {
namespace {

using util::ByteView;
using util::Bytes;

TEST(Adler32, KnownVector) {
  const char* s = "Wikipedia";
  EXPECT_EQ(alg::kern::adler32(1, ByteView(
                reinterpret_cast<const std::uint8_t*>(s), strlen(s))),
            0x11E60398u);
}

TEST(Adler32, EmptyIsOne) { EXPECT_EQ(alg::kern::adler32(1, ByteView{}), 1u); }

TEST(Adler32, StreamingMatchesOneShot) {
  Bytes data(10000);
  util::Rng rng(1);
  rng.fill(data);
  std::uint32_t a = 1;
  a = alg::kern::adler32(a, ByteView(data).first(1234));
  a = alg::kern::adler32(a, ByteView(data).subspan(1234));
  EXPECT_EQ(a, alg::kern::adler32(1, ByteView(data)));
}

TEST(Adler32, CombineMatchesConcatenation) {
  util::Rng rng(2);
  for (int t = 0; t < 16; ++t) {
    Bytes a(rng.below(300) + 1), b(rng.below(300) + 1);
    rng.fill(a);
    rng.fill(b);
    Bytes ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(
        alg::adler32_combine(alg::kern::adler32(1, ByteView(a)),
                             alg::kern::adler32(1, ByteView(b)), b.size()),
        alg::kern::adler32(1, ByteView(ab)));
  }
}

TEST(Rng, Deterministic) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  util::Rng rng(4);
  std::array<int, 10> counts{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 - 1000);
    EXPECT_LT(c, kDraws / 10 + 1000);
  }
}

TEST(Rng, BetweenInclusive) {
  util::Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01Range) {
  util::Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, FillCoversAllBytePositions) {
  util::Rng rng(8);
  Bytes buf(13);
  rng.fill(buf);
  // Probability of any byte being zero by chance is tiny but nonzero;
  // just check the buffer isn't left untouched as a whole.
  Bytes zero(13, 0);
  EXPECT_NE(buf, zero);
}

TEST(Rng, PickWeightedHonoursWeights) {
  util::Rng rng(9);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.pick_weighted(w), 1u);
}

TEST(Rng, ChildStreamsIndependentOfConsumption) {
  util::Rng a(10);
  util::Rng b(10);
  (void)a.next();  // consume from a only
  util::Rng ca = a.child(5);
  util::Rng cb = b.child(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ca.next(), cb.next());
}

TEST(Hash, DeterministicAndLengthSensitive) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3, 0};
  EXPECT_EQ(util::hash64(ByteView(a)), util::hash64(ByteView(a)));
  EXPECT_NE(util::hash64(ByteView(a)), util::hash64(ByteView(b)));
}

TEST(Hash, NoCollisionsOnSmallCorpus) {
  std::set<std::uint64_t> seen;
  util::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    Bytes cell(48);
    rng.fill(cell);
    seen.insert(util::hash64(ByteView(cell)));
  }
  EXPECT_EQ(seen.size(), 20000u);
}

TEST(Bytes, BigEndianRoundTrip) {
  std::uint8_t buf[4];
  util::store_be16(buf, 0xBEEF);
  EXPECT_EQ(util::load_be16(buf), 0xBEEF);
  util::store_be32(buf, 0xDEADBEEF);
  EXPECT_EQ(util::load_be32(buf), 0xDEADBEEFu);
}

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x1f, 0xa0, 0xff};
  EXPECT_EQ(util::to_hex(ByteView(data)), "001fa0ff");
  EXPECT_EQ(util::from_hex("001fa0ff"), data);
  EXPECT_EQ(util::from_hex("00 1f A0 Ff"), data);
}

TEST(Bytes, FromHexRejectsGarbage) {
  EXPECT_THROW(util::from_hex("xyz"), std::invalid_argument);
  EXPECT_THROW(util::from_hex("abc"), std::invalid_argument);  // odd digits
}


TEST(Pcap, GlobalAndRecordHeaders) {
  std::ostringstream os;
  util::PcapWriter w(os);
  const Bytes pkt1 = {0x45, 0x00, 0x00, 0x04};
  const Bytes pkt2(64, 0xab);
  w.write_packet(ByteView(pkt1));
  w.write_packet(ByteView(pkt2));
  EXPECT_EQ(w.packets_written(), 2u);
  const std::string s = os.str();
  ASSERT_EQ(s.size(), 24 + (16 + 4) + (16 + 64));
  // Magic, version, linktype.
  EXPECT_EQ(static_cast<unsigned char>(s[0]), 0xd4);
  EXPECT_EQ(static_cast<unsigned char>(s[3]), 0xa1);
  EXPECT_EQ(static_cast<unsigned char>(s[4]), 2);  // version major
  EXPECT_EQ(static_cast<unsigned char>(s[20]), 101);  // LINKTYPE_RAW
  // First record: lengths 4.
  EXPECT_EQ(static_cast<unsigned char>(s[24 + 8]), 4);
  EXPECT_EQ(static_cast<unsigned char>(s[24 + 12]), 4);
  // Payload follows.
  EXPECT_EQ(static_cast<unsigned char>(s[24 + 16]), 0x45);
}

TEST(Math, BinomialKnownValues) {
  EXPECT_EQ(util::binomial(0, 0), 1u);
  EXPECT_EQ(util::binomial(6, 3), 20u);
  EXPECT_EQ(util::binomial(12, 6), 924u);
  EXPECT_EQ(util::binomial(11, 5), 462u);
  EXPECT_EQ(util::binomial(5, 9), 0u);
  EXPECT_EQ(util::binomial(52, 5), 2598960u);
}

TEST(Math, BinomialPascalIdentity) {
  for (std::uint64_t n = 1; n < 30; ++n)
    for (std::uint64_t k = 1; k <= n; ++k)
      EXPECT_EQ(util::binomial(n, k),
                util::binomial(n - 1, k - 1) + util::binomial(n - 1, k));
}

}  // namespace
}  // namespace cksum
