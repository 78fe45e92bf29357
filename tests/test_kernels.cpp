// Implementation-conformance harness: every entry of every algorithm's
// implementation list must be bitwise identical to that list's scalar
// reference on every input.
//
// The sweeps run once per (algorithm, implementation) pair, all
// deterministic (seeds in kernel_testgen.hpp):
//   * exhaustive small lengths 0..256, random and adversarial bytes;
//   * randomized large buffers (up to 64 KiB + 7; 1 MiB in long mode)
//     at all 8 alignment phases of the same underlying data;
//   * every incremental resume split and every combine split of one
//     message;
//   * short pieces at every source offset, and the all-zero /
//     all-ones / class-zero-wrap planes at every alignment phase.
// Set CKSUM_KERNEL_LONG=1 for the widened soak sweep. Beside the
// sweeps, every available implementation must catch every single-bit
// error on plain buffers.
//
// The dispatch switch itself is also pinned down: what `best` and
// `scalar` resolve to, the CKSUM_KERNEL environment override (so a CI
// matrix typo fails the suite instead of silently testing the default
// selection), and the per-algorithm dispatch counters.
#include <gtest/gtest.h>

#include <bitset>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "checksum/adler32.hpp"
#include "checksum/crc32.hpp"
#include "checksum/fletcher.hpp"
#include "checksum/fletcher32.hpp"
#include "checksum/internet.hpp"
#include "checksum/kernels/cpu_features.hpp"
#include "checksum/kernels/kernel.hpp"
#include "checksum/koopman.hpp"
#include "kernel_testgen.hpp"
#include "obs/registry.hpp"

namespace cksum::alg::kern {
namespace {

using util::Bytes;
using util::ByteView;

/// Call f(list) for the implementation list of `alg`.
template <typename F>
void with_list(Alg alg, F&& f) {
  for_each_list([&](const auto& list) {
    if (list.alg == alg) f(list);
  });
}

/// Every (algorithm, implementation) pair, in list order.
struct Pair {
  Alg alg;
  std::size_t index;
  std::string name;  ///< "<alg>_<impl>", e.g. "crc32_chorba"
};

const std::vector<Pair>& pairs() {
  static const std::vector<Pair> all = [] {
    std::vector<Pair> out;
    for_each_list([&](const auto& list) {
      for (std::size_t i = 0; i < list.impls.size(); ++i)
        out.push_back({list.alg, i,
                       std::string(list.name) + "_" +
                           std::string(list.impls[i].name)});
    });
    return out;
  }();
  return all;
}

// Every output of one implementation on one buffer, flattened so one
// comparison covers the algorithm's variants: both Fletcher moduli,
// and the streaming sums from their conventional initial value and
// from a nonzero prior state (a resumed call must agree too).
std::uint64_t packed(std::uint64_t v) { return v; }
std::uint64_t packed(FletcherPair p) { return fletcher_value(p); }
std::uint64_t packed(Fletcher32Pair p) { return fletcher32_value(p); }
std::uint64_t packed(KoopmanDualPair p) { return koopman_dual_value(p); }

template <typename R>
std::vector<std::uint64_t> outputs(Alg, R (*fn)(ByteView) noexcept,
                                   ByteView data) {
  return {packed(fn(data))};
}

std::vector<std::uint64_t> outputs(Alg, FletcherFn* fn, ByteView data) {
  return {packed(fn(data, FletcherMod::kOnes255)),
          packed(fn(data, FletcherMod::kTwos256))};
}

std::vector<std::uint64_t> outputs(Alg alg, StreamFn* fn, ByteView data) {
  if (alg == Alg::kCrc32) return {fn(0u, data), fn(0xDEADBEEFu, data)};
  return {fn(1u, data), fn(0x00070003u, data)};
}

class PerImpl : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    // Unavailable entries degrade to a safe fallback when called, so
    // the sweep would pass while silently testing the fallback path —
    // skip loudly instead so the report shows what was actually
    // covered on this machine.
    with_list(pair().alg, [&](const auto& list) {
      if (const char* why = list.impls[pair().index].unavailable_reason())
        GTEST_SKIP() << pair().name << " unavailable here: " << why;
    });
  }

  const Pair& pair() const { return pairs()[GetParam()]; }

  void expect_matches_scalar(ByteView data, const std::string& context) {
    with_list(pair().alg, [&](const auto& list) {
      EXPECT_EQ(outputs(list.alg, list.impls[pair().index].fn, data),
                outputs(list.alg, list.scalar().fn, data))
          << pair().name << " " << context;
    });
  }

  /// The whole-message value recomposed from the values of its two
  /// halves at `split`: the streaming sums resume from the prefix
  /// state (`resume`) or combine independent halves; the block sums
  /// have no state object, so both go through their combine law.
  void expect_split_law(ByteView whole, std::size_t split, bool resume) {
    const ByteView x = whole.first(split);
    const ByteView y = whole.subspan(split);
    const std::string at = pair().name + " split=" + std::to_string(split);
    with_list(pair().alg, [&](const auto& list) {
      auto* f = list.impls[pair().index].fn;
      auto* ref = list.scalar().fn;
      if constexpr (std::is_same_v<decltype(f), InternetFn*>) {
        EXPECT_EQ(internet_combine(f(x), f(y), split % 2 == 1), ref(whole))
            << at;
      } else if constexpr (std::is_same_v<decltype(f), FletcherFn*>) {
        for (const FletcherMod mod :
             {FletcherMod::kOnes255, FletcherMod::kTwos256}) {
          EXPECT_EQ(fletcher_combine(f(x, mod), f(y, mod), y.size(), mod),
                    ref(whole, mod))
              << at << " mod " << modulus(mod);
        }
      } else if constexpr (std::is_same_v<decltype(f), Fletcher32Fn*>) {
        // Fletcher-32 combines in 16-bit words, so the law only
        // applies when the suffix starts on a word boundary.
        if (split % 2 == 0) {
          EXPECT_EQ(fletcher32_combine(f(x), f(y), (y.size() + 1) / 2),
                    ref(whole))
              << at;
        }
      } else if constexpr (std::is_same_v<decltype(f), KoopmanDualFn*>) {
        // The Koopman sums combine in zero-padded 64-bit blocks, so the
        // law is exact only when the suffix starts on a block boundary.
        if (split % kKoopmanBlockBytes == 0) {
          EXPECT_EQ(koopman_dual_value(koopman_dual_combine(
                        f(x), f(y), koopman_block_count(y.size()))),
                    koopman_dual_value(ref(whole)))
              << at;
        }
      } else if constexpr (std::is_same_v<decltype(f), KoopmanSingleFn*>) {
        if (split % kKoopmanBlockBytes == 0) {
          EXPECT_EQ(koopman_single_combine(f(x), f(y)), ref(whole)) << at;
        }
      } else {
        const bool crc = list.alg == Alg::kCrc32;
        const std::uint32_t init = crc ? 0u : 1u;
        std::uint32_t got;
        if (resume) {
          got = f(f(init, x), y);
        } else {
          got = crc ? crc32_combine(f(init, x), f(init, y), y.size())
                    : adler32_combine(f(init, x), f(init, y), y.size());
        }
        EXPECT_EQ(got, ref(init, whole)) << at;
      }
    });
  }
};

std::string pair_param_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  return pairs()[info.param].name;
}

TEST_P(PerImpl, ExhaustiveSmallLengths) {
  for (std::size_t len = 0; len <= 256; ++len) {
    const Bytes data =
        testgen::random_bytes(testgen::kConformanceSeed + len, len);
    expect_matches_scalar(ByteView(data), "len=" + std::to_string(len));
  }
}

TEST_P(PerImpl, EdgePatterns) {
  for (const std::size_t len : {1u, 8u, 48u, 255u, 256u, 510u, 4096u}) {
    for (const Bytes& data : testgen::edge_patterns(len)) {
      expect_matches_scalar(ByteView(data),
                            "pattern len=" + std::to_string(len) + " first=" +
                                std::to_string(data.empty() ? 0 : data[0]));
    }
  }
}

TEST_P(PerImpl, LargeBuffersAtAllAlignments) {
  // Room for the longest fixed sweep length (64 KiB + 7) at every
  // alignment phase.
  const std::size_t cap =
      testgen::long_mode() ? (1u << 20) : (1u << 16) + 8;
  const testgen::AlignedPool pool(testgen::kConformanceSeed ^ 0xA11C, cap);
  for (const std::size_t len : testgen::sweep_lengths()) {
    if (len > pool.capacity()) continue;
    for (std::size_t align = 0; align < 8; ++align) {
      expect_matches_scalar(pool.view(align, len),
                            "len=" + std::to_string(len) +
                                " align=" + std::to_string(align));
    }
  }
}

TEST_P(PerImpl, EveryResumeSplit) {
  const std::size_t n = testgen::split_message_len();
  const Bytes data = testgen::random_bytes(testgen::kConformanceSeed ^ n, n);
  for (std::size_t split = 0; split <= n; ++split)
    expect_split_law(ByteView(data), split, /*resume=*/true);
}

TEST_P(PerImpl, EveryCombineSplit) {
  const std::size_t n = testgen::split_message_len();
  const Bytes data =
      testgen::random_bytes(testgen::kConformanceSeed ^ (n + 1), n);
  for (std::size_t split = 0; split <= n; ++split)
    expect_split_law(ByteView(data), split, /*resume=*/false);
}

TEST_P(PerImpl, OffsetsAndTails) {
  // Pieces starting at every source offset: the SWAR Internet sum's
  // composition rule must reproduce the byte-swapped accumulation of
  // blocks at odd offsets (including the 0x0000 vs 0xFFFF
  // representative at every offset/length phase), and every other
  // implementation's head/tail handling sees all phases too.
  const Bytes data =
      testgen::random_bytes(testgen::kConformanceSeed ^ 0x0DD, 1024);
  for (std::size_t off = 0; off < 16; ++off) {
    for (const std::size_t len : {0u, 1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u,
                                  255u, 256u, 1000u}) {
      expect_matches_scalar(ByteView(data).subspan(off, len),
                            "off=" + std::to_string(off) +
                                " len=" + std::to_string(len));
    }
  }
  // Zero-class planes at every alignment phase: all-zero bytes, the
  // all-ones plane, and nonzero words that wrap to the class-zero
  // representative (0xfffe + 0x0001 = 0xffff). The Internet sum must
  // fold the first to 0x0000 and the others to 0xFFFF, never swapped
  // into each other by the SWAR lane repair.
  const Bytes zeros(512, 0x00);
  const Bytes ones(512, 0xff);
  Bytes wrap(512, 0x00);
  for (std::size_t i = 0; i < wrap.size(); i += 8) {
    wrap[i] = 0xff;
    wrap[i + 1] = 0xfe;
    wrap[i + 3] = 0x01;
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (const std::size_t len : {8u, 16u, 64u, 504u}) {
      const std::string at =
          "off=" + std::to_string(off) + " len=" + std::to_string(len);
      expect_matches_scalar(ByteView(zeros).subspan(off, len), "zeros " + at);
      expect_matches_scalar(ByteView(ones).subspan(off, len), "ones " + at);
      expect_matches_scalar(ByteView(wrap).subspan(off, len), "wrap " + at);
      if (pair().alg != Alg::kInternet) continue;
      auto* f = internet_impls().impls[pair().index].fn;
      EXPECT_EQ(f(ByteView(zeros).subspan(off, len)), 0x0000) << at;
      EXPECT_EQ(f(ByteView(ones).subspan(off, len)), 0xffff) << at;
      if (off % 2 == 0) {  // the wrap needs its words whole
        EXPECT_EQ(f(ByteView(wrap).subspan(off, len)), 0xffff) << at;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllImpls, PerImpl,
                         ::testing::Range<std::size_t>(0, pairs().size()),
                         pair_param_name);

TEST(Kernels, EverySingleBitFlipIsDetected) {
  // A one-bit error is a delta of ±2^k in one byte, word or 64-bit
  // block: never 0 mod 255, 256, 65535, 65521 or the prime 2^32 - 5,
  // and CRC-32's generator has more than one term. So every algorithm
  // must change value, in every output variant, on every available
  // implementation. Odd lengths and lengths off a multiple of 8 put
  // the flip in a padded word or a Koopman tail block.
  struct Case {
    std::size_t len;
    std::size_t bit_step;  ///< flip every bit_step-th bit
  };
  const Case cases[] = {{1, 1},   {2, 1},   {3, 1},    {7, 1},   {8, 1},
                        {9, 1},   {15, 1},  {17, 1},   {63, 1},  {64, 1},
                        {255, 1}, {257, 1}, {1021, 1}, {4096, 61}};
  for (const Pair& p : pairs()) {
    with_list(p.alg, [&](const auto& list) {
      const auto& impl = list.impls[p.index];
      if (!impl.available()) return;
      for (const Case& c : cases) {
        Bytes data = testgen::random_bytes(testgen::kConformanceSeed ^ c.len,
                                           c.len);
        const auto clean = outputs(list.alg, impl.fn, ByteView(data));
        for (std::size_t bit = 0; bit < 8 * c.len; bit += c.bit_step) {
          const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
          data[bit / 8] ^= mask;
          const auto hit = outputs(list.alg, impl.fn, ByteView(data));
          data[bit / 8] ^= mask;
          ASSERT_EQ(hit.size(), clean.size());
          for (std::size_t v = 0; v < clean.size(); ++v)
            EXPECT_NE(hit[v], clean[v]) << p.name << " len=" << c.len
                                        << " bit=" << bit << " variant=" << v;
        }
      }
    });
  }
}

TEST(KernelCombineProperty, FletcherMod255EdgeCases) {
  // When |Y| is a multiple of 255 the y_len·A(X) term of the combine
  // law vanishes mod 255 — exactly the regime where a combine
  // implementation that reduced y_len incorrectly (or dropped the
  // term) would still *look* right on random splits. Pin it down for
  // every implementation, including zero-length halves on either side.
  const ImplList<FletcherFn>& list = fletcher_impls();
  for (const std::size_t x_len : {0u, 1u, 254u, 255u, 256u, 300u}) {
    for (const std::size_t y_len : {0u, 1u, 255u, 510u, 1020u}) {
      Bytes data = testgen::random_bytes(
          testgen::kConformanceSeed ^ (x_len * 4099 + y_len), x_len + y_len);
      const ByteView whole(data);
      const ByteView x = whole.first(x_len);
      const ByteView y = whole.subspan(x_len);
      for (const Impl<FletcherFn>& impl : list.impls) {
        for (const FletcherMod mod :
             {FletcherMod::kOnes255, FletcherMod::kTwos256}) {
          EXPECT_EQ(fletcher_combine(impl.fn(x, mod), impl.fn(y, mod), y_len,
                                     mod),
                    list.scalar().fn(whole, mod))
              << impl.name << " |x|=" << x_len << " |y|=" << y_len
              << " mod " << modulus(mod);
        }
      }
    }
  }
}

TEST(KernelRegistry, LookupAndBestResolution) {
  // Every list starts with a probe-free scalar reference, names its
  // entries uniquely, and `best` is its last available entry.
  std::size_t lists = 0;
  for_each_list([&](const auto& list) {
    ++lists;
    SCOPED_TRACE(std::string(list.name));
    ASSERT_GE(list.impls.size(), 2u);
    EXPECT_EQ(list.scalar().name, "scalar");
    EXPECT_EQ(list.scalar().unavailable, nullptr);
    for (std::size_t i = 0; i < list.impls.size(); ++i) {
      EXPECT_NE(list.impls[i].fn, nullptr) << list.impls[i].name;
      for (std::size_t j = 0; j < i; ++j)
        EXPECT_NE(list.impls[i].name, list.impls[j].name);
      // Any unavailable entry must explain itself.
      if (!list.impls[i].available()) {
        EXPECT_NE(list.impls[i].unavailable_reason(), nullptr);
      }
    }
    EXPECT_TRUE(list.best().available());
    for (const auto* it = &list.best() + 1;
         it != list.impls.data() + list.impls.size(); ++it)
      EXPECT_FALSE(it->available()) << it->name << " outranks best";
  });
  EXPECT_EQ(lists, static_cast<std::size_t>(kNumAlgs));
}

TEST(KernelRegistry, BestResolutionPinned) {
  // `best` runs exactly the code it always has: the SWAR Internet sum,
  // slicing for the five modular sums, and for CRC-32 clmul where the
  // CPU has carry-less multiply, else chorba.
  EXPECT_EQ(internet_impls().best().name, "swar");
  EXPECT_EQ(fletcher_impls().best().name, "slicing");
  EXPECT_EQ(fletcher32_impls().best().name, "slicing");
  EXPECT_EQ(adler32_impls().best().name, "slicing");
  EXPECT_EQ(koopman_dual_impls().best().name, "slicing");
  EXPECT_EQ(koopman_single_impls().best().name, "slicing");
  const bool clmul_runs =
      impl::cpu_has_clmul() && crc32_impls().impls.back().available();
  EXPECT_EQ(crc32_impls().best().name, clmul_runs ? "clmul" : "chorba");
}

TEST(KernelRegistry, EnvSelectionHonored) {
  // When the CI matrix exports CKSUM_KERNEL, the active selection must
  // be exactly that one — a typo in the matrix must fail here rather
  // than silently testing the default.
  const char* env = std::getenv(kKernelEnv);
  if (env == nullptr) {
    EXPECT_EQ(selection_name(), "best");
    return;
  }
  ASSERT_TRUE(std::string_view(env) == "best" ||
              std::string_view(env) == "scalar")
      << "CKSUM_KERNEL names unknown selection '" << env << "'";
  EXPECT_EQ(selection_name(), env);
}

TEST(KernelRegistry, SelectKernelSwitchesDispatch) {
  const std::string before(selection_name());
  const Bytes data = testgen::random_bytes(testgen::kConformanceSeed, 777);
  const std::uint32_t want = crc32_bitwise(0u, ByteView(data));
  for (const char* sel : {"scalar", "best"}) {
    ASSERT_TRUE(select_kernel(sel));
    EXPECT_EQ(selection_name(), sel);
    const bool scalar = std::string_view(sel) == "scalar";
    for_each_list([&](const auto& list) {
      EXPECT_EQ(&list.impls[active_index(list.alg)],
                scalar ? &list.scalar() : &list.best())
          << sel << " " << list.name;
    });
    EXPECT_EQ(crc32(ByteView(data)), want) << sel;
    EXPECT_EQ(internet_sum(ByteView(data)),
              alg::internet_sum(ByteView(data)))
        << sel;
  }
  // Implementation names are not selections: they, like unknown names,
  // are refused and leave the selection unchanged (still "best").
  for (const char* bad : {"no-such-kernel", "", "slicing", "swar", "clmul"})
    EXPECT_FALSE(select_kernel(bad)) << bad;
  EXPECT_EQ(selection_name(), "best");
  ASSERT_TRUE(select_kernel(before));
  EXPECT_EQ(selection_name(), before);
}

TEST(KernelRegistry, SelectionReasonIsNonEmptyAndTracksExplicitPicks) {
  const std::string before(selection_name());
  // Whatever the current source (env, default, explicit), the reason
  // must be a non-empty sentence.
  EXPECT_FALSE(kernel_selection_reason().empty());
  ASSERT_TRUE(select_kernel("scalar"));
  EXPECT_NE(kernel_selection_reason().find("explicit"), std::string::npos);
  ASSERT_TRUE(select_kernel("best"));
  // Under best the reason names what each algorithm resolves to.
  EXPECT_NE(kernel_selection_reason().find(
                "crc32=" + std::string(crc32_impls().best().name)),
            std::string::npos);
  ASSERT_TRUE(select_kernel(before));
}

const Impl<StreamFn>& crc32_impl(std::string_view name) {
  for (const Impl<StreamFn>& impl : crc32_impls().impls)
    if (impl.name == name) return impl;
  ADD_FAILURE() << "no crc32 implementation named " << name;
  return crc32_impls().scalar();
}

TEST(ChorbaKernel, SparseMultipleDividesGenerator) {
  // Re-prove from scratch that the chorba implementation's convolution
  // polynomial M = x^274 + x^93 + x^75 + x^19 + x^11 + 1 (see
  // scripts/find_sparse_multiple.py) is a multiple of the CRC-32
  // generator G = 0x104C11DB7 over GF(2) — the entire correctness
  // argument for eliminating words with it. (That the shift constants
  // implement *this* M is what the differential sweeps establish; this
  // test pins the algebra those constants encode.)
  std::bitset<275> m;
  for (const int e : {274, 93, 75, 19, 11, 0}) m.set(e);
  std::bitset<275> g;
  for (int i = 0; i <= 32; ++i)
    if ((0x104C11DB7ull >> i) & 1) g.set(i);
  for (int d = 274; d >= 32; --d)
    if (m.test(static_cast<std::size_t>(d)))
      m ^= g << static_cast<std::size_t>(d - 32);
  EXPECT_TRUE(m.none()) << "remainder of M / G is nonzero";
}

TEST(ChorbaKernel, ConvolutionBlockBoundary) {
  // Crafted inputs spanning the convolution's structural boundaries:
  // the switch from the short-input slicing path to the word
  // convolution at 64 bytes (8 words = carry window + first
  // eliminable word), and the first few advances of the five-word
  // carry window. Random and all-ones payloads at every length across
  // the region, from both a fresh and a resumed CRC state.
  const StreamFn* chorba = crc32_impl("chorba").fn;
  const StreamFn* ref = crc32_impls().scalar().fn;
  for (std::size_t len = 40; len <= 176; ++len) {
    const Bytes rnd = testgen::random_bytes(
        testgen::kConformanceSeed ^ (0xCB0 + len), len);
    const Bytes ones(len, 0xFF);
    for (const Bytes* data : {&rnd, &ones}) {
      const ByteView v(*data);
      EXPECT_EQ(chorba(0u, v), ref(0u, v)) << "len=" << len;
      EXPECT_EQ(chorba(0xDEADBEEFu, v), ref(0xDEADBEEFu, v)) << "len=" << len;
    }
  }
  // Single-byte impulses walking across three full window advances:
  // each position exercises a distinct combination of the multiple's
  // tap shifts (including the one-bit spills w<<63 and w>>57) and the
  // carry handoff into the bitwise tail.
  for (const std::size_t len : {64u, 65u, 127u, 128u, 160u}) {
    Bytes data(len, 0x00);
    for (std::size_t pos = 0; pos < len; ++pos) {
      for (const std::uint8_t impulse : {0x01, 0x80}) {
        data[pos] = impulse;
        const ByteView v(data);
        EXPECT_EQ(chorba(0u, v), ref(0u, v))
            << "len=" << len << " pos=" << pos << " impulse=" << int(impulse);
        data[pos] = 0x00;
      }
    }
  }
}

#ifndef OBS_DISABLE
TEST(KernelRegistry, DispatchCountsIntoActiveKernelCounters) {
  register_kernel_metrics();
  const auto value = [&](const std::string& metric) -> std::uint64_t {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const obs::MetricValue* m = snap.find(metric);
    return m != nullptr ? m->value : 0;
  };

  const std::uint64_t crc_calls = value("kernel.crc32.calls");
  const std::uint64_t crc_bytes = value("kernel.crc32.bytes");
  const std::uint64_t inet_calls = value("kernel.internet.calls");
  const std::uint64_t inet_bytes = value("kernel.internet.bytes");
  const Bytes data(1000, 0xAB);
  (void)crc32(ByteView(data));
  (void)internet_sum(ByteView(data));
  EXPECT_EQ(value("kernel.crc32.calls"), crc_calls + 1);
  EXPECT_EQ(value("kernel.crc32.bytes"), crc_bytes + 1000);
  EXPECT_EQ(value("kernel.internet.calls"), inet_calls + 1);
  EXPECT_EQ(value("kernel.internet.bytes"), inet_bytes + 1000);

  // The TLS batching must stay exact for tiny frames too: counts
  // reach the snapshot through the registered snapshot source, not
  // per-call registry traffic.
  const Bytes tiny(3, 0x5A);
  for (int i = 0; i < 10; ++i) (void)crc32(ByteView(tiny));
  EXPECT_EQ(value("kernel.crc32.calls"), crc_calls + 11);
  EXPECT_EQ(value("kernel.crc32.bytes"), crc_bytes + 1030);

  // Availability gauges: 0/1 per (algorithm, implementation).
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  for_each_list([&](const auto& list) {
    for (const auto& entry : list.impls) {
      const std::string name = "kernel." + std::string(list.name) + "." +
                               std::string(entry.name) + ".available";
      const obs::MetricValue* m = snap.find(name);
      ASSERT_NE(m, nullptr) << name;
      EXPECT_EQ(m->gauge, entry.available() ? 1 : 0) << name;
    }
  });
}
#endif

}  // namespace
}  // namespace cksum::alg::kern
