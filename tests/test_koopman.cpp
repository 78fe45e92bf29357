// Koopman modular checksums: pinned vectors, the block-aligned combine
// algebra, streaming equivalence, and the structural properties that
// set the two sums apart from Fletcher in the splice results (prime
// moduli, position sensitivity of the dual sum, position independence
// of the single sum).
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "checksum/koopman.hpp"
#include "kernel_testgen.hpp"
#include "util/rng.hpp"

namespace cksum::alg {
namespace {

using util::Bytes;
using util::ByteView;

ByteView view_of(std::string_view s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

struct Golden {
  std::string_view text;
  std::uint16_t a, b;          // dual running sums
  std::uint32_t dual;          // packed B<<16|A
  std::uint64_t single;
};

// Hand-computed from the definition (64-bit big-endian blocks, final
// block zero-padded right, dual mod 65521, single mod 2^32-5) and
// cross-checked against an independent big-integer implementation.
constexpr Golden kGoldens[] = {
    {"", 0x0000, 0x0000, 0x00000000u, 0x00000000ull},
    {"abcde", 0x7191, 0x7191, 0x71917191u, 0x4bebf0feull},
    {"abcdefgh", 0xdef3, 0xdef3, 0xdef3def3u, 0x4c525866ull},
    {"123456789", 0xb41c, 0xc537, 0xc537b41cu, 0x48313746ull},
    {"The quick brown fox jumps over the lazy dog", 0x87b1, 0xaf62,
     0xaf6287b1u, 0x0ff0efb1ull},
};

TEST(Koopman, PinnedVectors) {
  for (const Golden& g : kGoldens) {
    const KoopmanDualPair p = koopman_dual_naive(view_of(g.text));
    EXPECT_EQ(p.a, g.a) << g.text;
    EXPECT_EQ(p.b, g.b) << g.text;
    EXPECT_EQ(koopman_dual_value(p), g.dual) << g.text;
    EXPECT_EQ(koopman_single_naive(view_of(g.text)), g.single) << g.text;
  }
}

TEST(Koopman, AllOnesBlocks) {
  // 2^64-1 ≡ 15^4-1 = 50624 (mod 65521) and ≡ 5^2-1 = 24 (mod 2^32-5):
  // the all-ones block is NOT an aliasing class under either prime
  // modulus, unlike 0xFF bytes under Fletcher-255, whose run pathology
  // (EXPERIMENTS.md §5.5) the Koopman sums therefore do not share.
  const Bytes ones8(8, 0xFF);
  const Bytes ones16(16, 0xFF);
  EXPECT_EQ(koopman_dual_value(koopman_dual_naive(ByteView(ones8))),
            0xc5c0c5c0u);
  EXPECT_EQ(koopman_single_naive(ByteView(ones8)), 0x18ull);
  const KoopmanDualPair p16 = koopman_dual_naive(ByteView(ones16));
  EXPECT_EQ(p16.a, 0x8b8f);
  EXPECT_EQ(p16.b, 0x515e);
  EXPECT_EQ(koopman_single_naive(ByteView(ones16)), 0x30ull);
  // Counting bytes 0..31: one more cross-check of the block fold.
  Bytes counting(32);
  for (std::size_t i = 0; i < counting.size(); ++i)
    counting[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(koopman_dual_value(koopman_dual_naive(ByteView(counting))),
            0x77151eefu);
  EXPECT_EQ(koopman_single_naive(ByteView(counting)), 0x3149617dull);
}

TEST(Koopman, ZeroPaddingConvention) {
  // A short tail is the high-order bytes of its block: "abc" and
  // "abc\0\0\0\0\0" digest identically (and so do all-zero messages of
  // any length — the price of the padding convention, same as
  // Fletcher's at byte grain).
  const Bytes padded = {'a', 'b', 'c', 0, 0, 0, 0, 0};
  EXPECT_EQ(koopman_dual_naive(view_of("abc")),
            koopman_dual_naive(ByteView(padded)));
  EXPECT_EQ(koopman_single_naive(view_of("abc")),
            koopman_single_naive(ByteView(padded)));
  for (const std::size_t len : {1u, 7u, 8u, 9u, 64u}) {
    const Bytes zeros(len, 0x00);
    EXPECT_EQ(koopman_dual_value(koopman_dual_naive(ByteView(zeros))), 0u)
        << len;
    EXPECT_EQ(koopman_single_naive(ByteView(zeros)), 0u) << len;
  }
}

TEST(Koopman, SumsStayCanonical) {
  for (std::size_t len = 0; len <= 96; ++len) {
    const Bytes data = cksum::testgen::random_bytes(0x4B00 + len, len);
    const KoopmanDualPair p = koopman_dual_naive(ByteView(data));
    EXPECT_LT(p.a, kKoopmanDualMod) << len;
    EXPECT_LT(p.b, kKoopmanDualMod) << len;
    EXPECT_LT(koopman_single_naive(ByteView(data)), kKoopmanSingleMod) << len;
  }
}

TEST(Koopman, CombineExactAtEveryBlockSplit) {
  const Bytes data = cksum::testgen::random_bytes(0xC04B, 261);
  const ByteView whole(data);
  const KoopmanDualPair dual_whole = koopman_dual_naive(whole);
  const std::uint64_t single_whole = koopman_single_naive(whole);
  for (std::size_t split = 0; split <= whole.size();
       split += kKoopmanBlockBytes) {
    const ByteView x = whole.first(std::min(split, whole.size()));
    const ByteView y = whole.subspan(x.size());
    const KoopmanDualPair dx = koopman_dual_naive(x);
    const KoopmanDualPair dy = koopman_dual_naive(y);
    const std::uint64_t ny = koopman_block_count(y.size());
    EXPECT_EQ(koopman_dual_combine(dx, dy, ny), dual_whole)
        << "split=" << split;
    // The shift form is the combine with Y's own sums deferred:
    // contribution of X to a message with ny blocks after it.
    const KoopmanDualPair shifted = koopman_dual_shift(dx, ny);
    EXPECT_EQ(shifted.a, dx.a) << "split=" << split;
    EXPECT_EQ((shifted.b + dy.b) % kKoopmanDualMod,
              koopman_dual_combine(dx, dy, ny).b)
        << "split=" << split;
    EXPECT_EQ(koopman_single_combine(koopman_single_naive(x),
                                     koopman_single_naive(y)),
              single_whole)
        << "split=" << split;
  }
}

TEST(Koopman, StreamingMatchesOneShotAcrossChunkings) {
  const Bytes data = cksum::testgen::random_bytes(0x57E4, 1531);
  const ByteView whole(data);
  const KoopmanDualPair dual_whole = koopman_dual_naive(whole);
  const std::uint64_t single_whole = koopman_single_naive(whole);
  for (const std::size_t chunk : {1u, 3u, 7u, 8u, 9u, 13u, 64u, 1000u}) {
    KoopmanDualSum ds;
    KoopmanSingleSum ss;
    for (std::size_t off = 0; off < whole.size(); off += chunk) {
      const ByteView piece =
          whole.subspan(off, std::min(chunk, whole.size() - off));
      ds.update(piece);
      ss.update(piece);
    }
    EXPECT_EQ(ds.pair(), dual_whole) << "chunk=" << chunk;
    EXPECT_EQ(ss.value(), single_whole) << "chunk=" << chunk;
    // pair()/value() mid-stream must not disturb the pending tail.
    ds.reset();
    ss.reset();
    ds.update(whole.first(5));
    (void)ds.pair();
    ss.update(whole.first(5));
    (void)ss.value();
    ds.update(whole.subspan(5));
    ss.update(whole.subspan(5));
    EXPECT_EQ(ds.pair(), dual_whole);
    EXPECT_EQ(ss.value(), single_whole);
  }
}

TEST(Koopman, DualSeesBlockSwapsSingleDoesNot) {
  // Swap two distinct 8-byte blocks: the single sum is unchanged by
  // construction (commutative addition over blocks) while the dual
  // sum's B term moves — the same trade Fletcher makes against the
  // Internet sum, one level up in grain.
  Bytes data = cksum::testgen::random_bytes(0x5A4B, 64);
  const KoopmanDualPair dual_before = koopman_dual_naive(ByteView(data));
  const std::uint64_t single_before = koopman_single_naive(ByteView(data));
  std::swap_ranges(data.begin(), data.begin() + 8, data.begin() + 24);
  ASSERT_NE(data, cksum::testgen::random_bytes(0x5A4B, 64));
  EXPECT_EQ(koopman_single_naive(ByteView(data)), single_before);
  EXPECT_NE(koopman_dual_naive(ByteView(data)), dual_before);
}

}  // namespace
}  // namespace cksum::alg
