// Corpus-stability goldens.
//
// Every number in EXPERIMENTS.md depends on the synthetic corpora
// being bit-stable across platforms and refactors. These tests pin a
// content hash per generator and per filesystem profile; if one
// changes, the change was either intentional (update the golden AND
// re-run the benches to refresh EXPERIMENTS.md) or a reproducibility
// regression.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>

#include "checksum/fletcher.hpp"
#include "checksum/fletcher32.hpp"
#include "checksum/kernels/kernel.hpp"
#include "core/experiments.hpp"
#include "fsgen/corpus_store.hpp"
#include "fsgen/generator.hpp"
#include "fsgen/profile.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace cksum::fsgen {
namespace {

/// Every generator at three seeds and four sizes: under any structural
/// unit (1 byte), under one cell (47), a page (4096) and a file past
/// 64 KiB (70001). pbm-image has no smaller image than 8 rows, so its
/// 1- and 47-byte files are that image.
constexpr std::uint64_t kGoldenSeeds[] = {1, 7, 0xdeadbeef};
constexpr std::size_t kGoldenSizes[] = {1, 47, 4096, 70001};

struct Golden {
  FileKind kind;
  std::uint64_t hash[std::size(kGoldenSeeds) * std::size(kGoldenSizes)];
};

constexpr Golden kGenerators[] = {
    {FileKind::kText,
     {0xf8932bbe6182cafcULL, 0xbcca78b35a0972caULL, 0xbd9c2f34226b8f76ULL,
      0x2246b633f7dc7ed1ULL, 0x4a2afc1c8a84a788ULL, 0x1334491202764585ULL,
      0x96389bf2f94015a4ULL, 0x6fc542b01754bd37ULL, 0x757a15602f31048dULL,
      0xa8c2699148ea2b43ULL, 0xef0c3227a901fdb7ULL, 0x56dc00f48d3bdff9ULL}},
    {FileKind::kCSource,
     {0x8435dbab735db1fbULL, 0x8435dbab735db1fbULL, 0x6a322ddc7d8ef3f6ULL,
      0xa80d256c26977203ULL, 0x071de347355ecb91ULL, 0x071de347355ecb91ULL,
      0x9b53112afe39fec7ULL, 0x29f51082c5205079ULL, 0xee4c8ea91de2d9c1ULL,
      0xee4c8ea91de2d9c1ULL, 0x3688d6c20f8b5467ULL, 0xd8a857250bb79822ULL}},
    {FileKind::kExecutable,
     {0xac4df23dc45cac9aULL, 0xac4df23dc45cac9aULL, 0x75ddd513ccabcb99ULL,
      0x649d7ee295f0fa44ULL, 0xac4df23dc45cac9aULL, 0xac4df23dc45cac9aULL,
      0x89bf59a1fb1f540cULL, 0x22dbda171120a780ULL, 0xac4df23dc45cac9aULL,
      0xac4df23dc45cac9aULL, 0xe509ac9d785beef4ULL, 0x58533990e70f15feULL}},
    {FileKind::kGmonProfile,
     {0x5b7ebef441074a2bULL, 0x913e3b0be2c88548ULL, 0xda192566b41bda8cULL,
      0x7be9dfe95f3d9f88ULL, 0x5b7ebef441074a2bULL, 0xf027b1ed490eeb7cULL,
      0x3e417623ed913345ULL, 0x210e90f3ed4d1406ULL, 0x5b7ebef441074a2bULL,
      0xcee6a92274204d2eULL, 0x6e99dd9cf2a158c2ULL, 0x050e2aa295a516b1ULL}},
    {FileKind::kPbmImage,
     {0xf5bb27a3467881edULL, 0xf5bb27a3467881edULL, 0xf5bb27a3467881edULL,
      0xf1da687e665568c9ULL, 0x22253a6d575a80d2ULL, 0x22253a6d575a80d2ULL,
      0x22253a6d575a80d2ULL, 0x6db0d9b3c524b57cULL, 0xa56aa992ef096124ULL,
      0xa56aa992ef096124ULL, 0xa56aa992ef096124ULL, 0xc0e6ca1868126602ULL}},
    {FileKind::kHexPostscript,
     {0xd84c5a2d8515fbf5ULL, 0xd84c5a2d8515fbf5ULL, 0x2bcb2de1d319cb7dULL,
      0x682766de0a3eaad1ULL, 0xd84c5a2d8515fbf5ULL, 0xd84c5a2d8515fbf5ULL,
      0x1bb464fabdaa2463ULL, 0x907ba3d6b4b23391ULL, 0xd84c5a2d8515fbf5ULL,
      0xd84c5a2d8515fbf5ULL, 0x0d50bdf85aab5db3ULL, 0x07187e0382966fbcULL}},
    {FileKind::kBinhex,
     {0x0d764a4ef6471ad7ULL, 0x0d764a4ef6471ad7ULL, 0x73383ae4763d8beeULL,
      0x0756db93ae91b3adULL, 0x0d764a4ef6471ad7ULL, 0x0d764a4ef6471ad7ULL,
      0xa8df6fb3c91f6f86ULL, 0x932351b0c4dffa4bULL, 0x0d764a4ef6471ad7ULL,
      0x0d764a4ef6471ad7ULL, 0x85f100462b30766fULL, 0x14381043d28b5719ULL}},
    {FileKind::kWordProcessor,
     {0xa2b6ba0df335478eULL, 0xa2b6ba0df335478eULL, 0x7c6b9ed4624e48a9ULL,
      0xc42477e47db57743ULL, 0xa2b6ba0df335478eULL, 0xa2b6ba0df335478eULL,
      0x6a9f9dfef9645cb9ULL, 0xb8d264683c0099cfULL, 0xa2b6ba0df335478eULL,
      0xa2b6ba0df335478eULL, 0x4de69280af61f139ULL, 0xb24aff59aeacbbc5ULL}},
    {FileKind::kRandom,
     {0xabd01fff84f4c188ULL, 0xd056d96abc735bdeULL, 0xa3bece718fc84922ULL,
      0x4e907ba32df41c36ULL, 0xa13506ae2984bd25ULL, 0x188dd055741f5bc4ULL,
      0xf9a764172e5c34d9ULL, 0x7d6ce85e242922dfULL, 0x6fac2e3c5d4de6fbULL,
      0xc13be83ce4b3a42aULL, 0xe7ff15f33a9e990bULL, 0xe5f6121e064ed77dULL}},
    {FileKind::kTarArchive,
     {0x2f18bd96acc9d122ULL, 0x2f18bd96acc9d122ULL, 0x899ae9d2f01dbb0bULL,
      0x7dcb975a327627beULL, 0x2f18bd96acc9d122ULL, 0x2f18bd96acc9d122ULL,
      0x37419acb3b48806fULL, 0xb4ef4c528d90ec94ULL, 0x2f18bd96acc9d122ULL,
      0x2f18bd96acc9d122ULL, 0xe1adce0f64b82b9fULL, 0xdaf6e5eaa4dbb33fULL}},
    {FileKind::kMailSpool,
     {0x41fc9ae571f588b4ULL, 0x41fc9ae571f588b4ULL, 0x17ee022ec5e342e6ULL,
      0xf2cb637fc000a815ULL, 0x1bf576da0ff5801aULL, 0x1bf576da0ff5801aULL,
      0xc42bf05bceb00c7dULL, 0x6b1e16a5c37fba02ULL, 0x9846ac16d880f50bULL,
      0x9846ac16d880f50bULL, 0x0c526bda45e27047ULL, 0x4d82db419ef3a3d9ULL}},
};

TEST(Goldens, GeneratorContentPinned) {
  for (const Golden& g : kGenerators) {
    std::size_t at = 0;
    for (const std::uint64_t seed : kGoldenSeeds)
      for (const std::size_t size : kGoldenSizes) {
        const util::Bytes f = generate_file(g.kind, seed, size);
        EXPECT_EQ(util::hash64(util::ByteView(f)), g.hash[at++])
            << name(g.kind) << " seed " << seed << " size " << size
            << ": generator output changed — if intentional, update the "
               "golden and re-run the benches (EXPERIMENTS.md numbers moved)";
      }
  }
}

TEST(Goldens, ProfileCompositionPinned) {
  // The file-kind sequence of a profile at scale 1 (first 10 files).
  const Filesystem fs(profile("sics.se:/opt"), 1.0);
  ASSERT_GE(fs.file_count(), 10u);
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    h = util::combine_hash(h, static_cast<std::uint64_t>(fs.spec(i).kind));
    h = util::combine_hash(h, fs.spec(i).seed);
    h = util::combine_hash(h, fs.spec(i).size);
  }
  // Pin the composite (value recorded when this golden was written).
  EXPECT_EQ(h, 0xaf0d129d58bbdfb7ULL) << std::hex << "0x" << h;
  // ...and the quota shape: /opt must actually contain its pathological
  // minority kinds at scale 1.
  std::size_t gmon = 0, wordproc = 0, hexps = 0;
  for (std::size_t i = 0; i < fs.file_count(); ++i) {
    gmon += fs.spec(i).kind == FileKind::kGmonProfile;
    wordproc += fs.spec(i).kind == FileKind::kWordProcessor;
    hexps += fs.spec(i).kind == FileKind::kHexPostscript;
  }
  EXPECT_GE(gmon, 3u);
  EXPECT_GE(wordproc, 2u);
  EXPECT_GE(hexps, 1u);
}

TEST(Goldens, CorpusStoreBytesPinned) {
  // Every byte of a sealed store: records, padding, section table and
  // both CRCs. The store format is versioned, so a change here is
  // either a reproducibility regression or needs a kCorpusVersion bump.
  struct StoreGolden {
    const char* what;
    alg::Algorithm transport;
    net::ChecksumPlacement placement;
    bool compress;
    std::uint64_t hash;
  };
  const StoreGolden goldens[] = {
      {"tcp header", alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader,
       false, 0xb4bbea7093ba0186ULL},
      {"f255 trailer", alg::Algorithm::kFletcher255,
       net::ChecksumPlacement::kTrailer, false, 0xffea606f23c733caULL},
      {"tcp header, compressed", alg::Algorithm::kInternet,
       net::ChecksumPlacement::kHeader, true, 0x7dd026a5d718d602ULL},
  };
  const Filesystem fs(profile("nsc05"), 0.05);
  for (const StoreGolden& g : goldens) {
    CorpusBuildParams params;
    params.profile = "nsc05";
    params.scale = 0.05;
    params.flow = core::paper_flow_config();
    params.flow.packet.transport = g.transport;
    params.flow.packet.placement = g.placement;
    params.compress = g.compress;
    const std::string path = "golden_store.ckcorp";
    std::string err;
    ASSERT_TRUE(build_corpus(params, fs, path, &err)) << g.what << ": " << err;
    const std::optional<util::Bytes> bytes =
        util::read_file(path, std::size_t{64} << 20);
    std::remove(path.c_str());
    ASSERT_TRUE(bytes.has_value()) << g.what;
    const std::uint64_t h = util::hash64(util::ByteView(*bytes));
    EXPECT_EQ(h, g.hash) << g.what << ": store bytes changed, now 0x"
                         << std::hex << h;
  }
}

}  // namespace
}  // namespace cksum::fsgen

namespace cksum::alg::kern {
namespace {

inline util::ByteView view_of(std::string_view s) {
  return util::ByteView(reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size());
}

// Published check values. Every implementation must reproduce them
// exactly; together with the differential harness in test_kernels.cpp
// this anchors the whole kernel family to the external definitions,
// not merely to each other.
//
// Sources: CRC-32 is the universal "123456789" check value (e.g.
// Williams' CRC guide, the zlib test suite); Adler-32 values come from
// zlib; the Fletcher-16 mod-255 values match the published (A, B)
// pairs, re-packed into this repo's A<<8|B layout; the Internet
// checksum vectors are the RFC 1071 §3 worked example. The mod-256
// Fletcher and big-endian word Fletcher-32 values pin this repo's
// conventions (there is no single published convention for either) and
// were derived by hand from the definition.
struct CrcGolden {
  std::string_view text;
  std::uint32_t crc;
};
constexpr CrcGolden kCrc32Goldens[] = {
    {"", 0x00000000u},
    {"123456789", 0xCBF43926u},
    {"The quick brown fox jumps over the lazy dog", 0x414FA339u},
};

struct AdlerGolden {
  std::string_view text;
  std::uint32_t adler;
};
constexpr AdlerGolden kAdler32Goldens[] = {
    {"", 0x00000001u},
    {"abc", 0x024D0127u},
    {"Wikipedia", 0x11E60398u},
};

struct InternetGolden {
  std::initializer_list<std::uint8_t> bytes;
  std::uint16_t sum;  // plain (uncomplemented) ones-complement sum
};
const InternetGolden kInternetGoldens[] = {
    // RFC 1071 §3: words 0001 f203 f4f5 f6f7 sum to 2ddf0 -> fold ddf2.
    {{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, 0xddf2u},
    // Odd tail: the trailing byte is padded on the right (RFC 1071).
    {{0x00, 0x01, 0xf2}, 0xf201u},
    {{}, 0x0000u},
};

struct FletcherGolden {
  std::string_view text;
  std::uint32_t a, b;
};
constexpr FletcherGolden kFletcher255Goldens[] = {
    {"abcde", 0xF0, 0xC8},
    {"abcdef", 0x57, 0x20},
    {"abcdefgh", 0x27, 0x06},
};
constexpr FletcherGolden kFletcher256Goldens[] = {
    {"abcde", 0xEF, 0xC3},
    {"abcdef", 0x55, 0x18},
    {"abcdefgh", 0x24, 0xF8},
};
// Big-endian 16-bit words, odd tail padded with 0x00 on the right,
// both sums mod 65535 (this repo's convention; see fletcher32.hpp).
constexpr FletcherGolden kFletcher32Goldens[] = {
    {"ab", 0x6162, 0x6162},
    {"abcd", 0xC4C6, 0x2629},
    {"abc", 0xC462, 0x25C5},
};

// Koopman large-block sums (arXiv 2302.13432): big-endian 64-bit
// blocks, partial final block zero-padded on the right; dual sums mod
// 65521 packed B<<16|A, single sum mod 2^32-5. There is no published
// test-vector suite, so these pin this repo's convention: each value
// was computed by hand from the definition in an independent
// big-integer implementation (scripts-free Python: split, pad, fold)
// and cross-checked against the streaming classes; the naive/fast/
// streaming agreement is enforced separately in test_koopman.cpp.
struct KoopmanGolden {
  std::string_view text;
  std::uint32_t dual;
  std::uint64_t single;
};
constexpr KoopmanGolden kKoopmanGoldens[] = {
    {"", 0x00000000u, 0x00000000ull},
    {"abcde", 0x71917191u, 0x4bebf0feull},
    {"abcdefgh", 0xdef3def3u, 0x4c525866ull},
    {"123456789", 0xc537b41cu, 0x48313746ull},
    {"The quick brown fox jumps over the lazy dog", 0xaf6287b1u,
     0x0ff0efb1ull},
};

/// Report an unavailable entry and say whether to skip it: it answers
/// through its safe fallback, so the vectors would pass without
/// exercising it — note it and move on rather than claim coverage.
template <typename Fn>
bool skip_unavailable(std::string_view alg, const Impl<Fn>& impl) {
  const char* why = impl.unavailable_reason();
  if (why != nullptr)
    std::fprintf(stderr, "[ goldens ] skipping %s/%s (unavailable: %s)\n",
                 std::string(alg).c_str(), std::string(impl.name).c_str(), why);
  return why != nullptr;
}

TEST(KernelGoldens, EveryKernelReproducesPublishedVectors) {
  // Every entry of every implementation list, not just the ones a
  // selection runs.
  for (const Impl<StreamFn>& k : crc32_impls().impls) {
    if (skip_unavailable("crc32", k)) continue;
    for (const CrcGolden& g : kCrc32Goldens)
      EXPECT_EQ(k.fn(0, view_of(g.text)), g.crc)
          << k.name << " crc32(\"" << g.text << "\")";
  }
  for (const Impl<StreamFn>& k : adler32_impls().impls) {
    if (skip_unavailable("adler32", k)) continue;
    for (const AdlerGolden& g : kAdler32Goldens)
      EXPECT_EQ(k.fn(1, view_of(g.text)), g.adler)
          << k.name << " adler32(\"" << g.text << "\")";
  }
  for (const Impl<InternetFn>& k : internet_impls().impls) {
    if (skip_unavailable("internet", k)) continue;
    for (const InternetGolden& g : kInternetGoldens) {
      const util::Bytes data(g.bytes);
      EXPECT_EQ(k.fn(util::ByteView(data)), g.sum) << k.name;
    }
  }
  for (const Impl<FletcherFn>& k : fletcher_impls().impls) {
    if (skip_unavailable("fletcher", k)) continue;
    for (const FletcherGolden& g : kFletcher255Goldens) {
      const FletcherPair p = k.fn(view_of(g.text), FletcherMod::kOnes255);
      EXPECT_EQ(p.a, g.a) << k.name << " f255 A(\"" << g.text << "\")";
      EXPECT_EQ(p.b, g.b) << k.name << " f255 B(\"" << g.text << "\")";
    }
    for (const FletcherGolden& g : kFletcher256Goldens) {
      const FletcherPair p = k.fn(view_of(g.text), FletcherMod::kTwos256);
      EXPECT_EQ(p.a, g.a) << k.name << " f256 A(\"" << g.text << "\")";
      EXPECT_EQ(p.b, g.b) << k.name << " f256 B(\"" << g.text << "\")";
    }
  }
  for (const Impl<Fletcher32Fn>& k : fletcher32_impls().impls) {
    if (skip_unavailable("fletcher32", k)) continue;
    for (const FletcherGolden& g : kFletcher32Goldens) {
      const Fletcher32Pair p = k.fn(view_of(g.text));
      EXPECT_EQ(p.a, g.a) << k.name << " f32 A(\"" << g.text << "\")";
      EXPECT_EQ(p.b, g.b) << k.name << " f32 B(\"" << g.text << "\")";
    }
  }
  for (const Impl<KoopmanDualFn>& k : koopman_dual_impls().impls) {
    if (skip_unavailable("koopmandual", k)) continue;
    for (const KoopmanGolden& g : kKoopmanGoldens)
      EXPECT_EQ(koopman_dual_value(k.fn(view_of(g.text))), g.dual)
          << k.name << " kdual(\"" << g.text << "\")";
  }
  for (const Impl<KoopmanSingleFn>& k : koopman_single_impls().impls) {
    if (skip_unavailable("koopmansingle", k)) continue;
    for (const KoopmanGolden& g : kKoopmanGoldens)
      EXPECT_EQ(k.fn(view_of(g.text)), g.single)
          << k.name << " ksingle(\"" << g.text << "\")";
  }
}

TEST(KernelGoldens, PackedValuesMatchRepoLayout) {
  // The histogram/packing layer on top of the pairs: A in the high
  // half. Checked once against the dispatched kernels so manifest
  // values stay pinned too.
  EXPECT_EQ(fletcher_value(kern::fletcher_block(view_of("abcde"),
                                                FletcherMod::kOnes255)),
            0xF0C8u);
  EXPECT_EQ(fletcher32_value(kern::fletcher32_block(view_of("abcd"))),
            0xC4C62629u);
}

}  // namespace
}  // namespace cksum::alg::kern
