// Adler-32 and the util substrate (RNG, hashing, byte helpers, math).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "checksum/adler32.hpp"
#include "checksum/kernels/kernel.hpp"
#include "fsgen/generator.hpp"
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

// The sequential-subtraction pick WeightedTable must reproduce: the
// draw, the index and the generator state afterwards.
std::size_t sequential_pick(util::Rng& rng, std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return 0;
  double x = rng.uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

/// Picks `draws` times from `table` and from sequential_pick on twin
/// generators; every index and the generators' next output agree.
void expect_matches_sequential(const util::WeightedTable& table,
                               std::uint64_t seed, int draws) {
  util::Rng a(seed), b(seed);
  for (int i = 0; i < draws; ++i)
    ASSERT_EQ(table.pick(a), sequential_pick(b, table.weights()))
        << "seed " << seed << " draw " << i;
  EXPECT_EQ(a.next(), b.next()) << "seed " << seed;
}

TEST(WeightedTable, HonoursWeights) {
  util::Rng rng(9);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  const util::WeightedTable table(w);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.pick(rng), 1u);

  // All-zero (and empty) weights pick index 0 without drawing.
  util::Rng drawn(9), untouched(9);
  const std::vector<double> zeros = {0.0, 0.0, 0.0};
  EXPECT_EQ(util::WeightedTable(zeros).pick(drawn), 0u);
  EXPECT_EQ(util::WeightedTable({}).pick(drawn), 0u);
  EXPECT_EQ(drawn.next(), untouched.next());

  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(util::WeightedTable{negative}, std::invalid_argument);
}

TEST(WeightedTable, MatchesSequentialSubtractionOnTextTable) {
  const util::WeightedTable& table = fsgen::text_word_table();
  ASSERT_GT(table.weights().size(), 300u);
  for (std::uint64_t seed = 0; seed < 300; ++seed)
    expect_matches_sequential(table, seed, 10000);
}

TEST(WeightedTable, BoundaryDrawsMatchSequentialSubtraction) {
  // Tables built around the generator's next draw u: `prefix`, then a
  // weight that brings the cumulative sum to u (give or take `ulps`
  // steps), then the remainder to 1, so the total is exactly 1, x = u,
  // and x lands on (or a few ulps beside) a cumulative boundary — the
  // draws WeightedTable hands to the sequential fallback.
  const std::vector<std::vector<double>> prefixes = {
      {}, {0.1, 0.2}, {0.0, 0.125, 0.0}, {0.01, 0.07, 0.03, 0.11, 0.05}};
  int on_boundary = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    util::Rng peek(seed);
    const double u = peek.uniform01();
    if (u < 0.5) continue;  // keeps 1 - cumulative exact (Sterbenz)
    for (const auto& prefix : prefixes) {
      for (int ulps = -3; ulps <= 3; ++ulps) {
        std::vector<double> w = prefix;
        double sum = 0.0;
        for (double x : w) sum += x;
        double to_u = u - sum;
        for (int k = 0; k < std::abs(ulps); ++k)
          to_u = std::nextafter(to_u, ulps > 0 ? 2.0 : 0.0);
        w.push_back(to_u);
        sum += to_u;
        w.push_back(1.0 - sum);
        double total = 0.0;
        for (double x : w) total += x;
        ASSERT_EQ(total, 1.0);
        if (sum == u) ++on_boundary;
        expect_matches_sequential(util::WeightedTable(w), seed, 1);
      }
    }
  }
  EXPECT_GT(on_boundary, 100);  // draws exactly on a boundary occurred

  // Boundaries on, and within 3 ulps of, the guide's bucket edges. A
  // 4-entry table has 64 buckets (16 per entry), so with a unit total
  // edge k is exactly k/64. Each bucket a boundary touches must scan:
  // one taken for boundary-free picks the guide's index for every draw
  // on the boundary's far side, and 2·10^4 draws put ~300 in each
  // bucket. Consecutive boundaries stay within a factor of two and the
  // last one at or above 1/2, so every weight, and the running sums
  // that rebuild the boundaries, are exact (Sterbenz).
  const int edge_sets[][3] = {
      {8, 16, 32}, {12, 24, 33}, {17, 32, 63}, {20, 31, 48}};
  std::uint64_t seed = 1000;
  for (const auto& edges : edge_sets) {
    for (int ulps = -3; ulps <= 3; ++ulps) {
      std::vector<double> w;
      double prev = 0.0;
      for (const int k : edges) {
        double c = k / 64.0;
        for (int j = 0; j < std::abs(ulps); ++j)
          c = std::nextafter(c, ulps > 0 ? 2.0 : 0.0);
        w.push_back(c - prev);
        ASSERT_EQ(prev + w.back(), c);
        prev = c;
      }
      w.push_back(1.0 - prev);
      ASSERT_EQ(prev + w.back(), 1.0);
      expect_matches_sequential(util::WeightedTable(w), ++seed, 20000);
    }
  }
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
