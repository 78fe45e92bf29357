// Empirical checks of the paper's appendix theorems and headline
// qualitative claims, run end-to-end through the library.
#include <gtest/gtest.h>

#include "checksum/kernels/kernel.hpp"
#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/splice_sim.hpp"
#include "fsgen/generator.hpp"
#include "net/fragment.hpp"
#include "stats/distribution.hpp"
#include "stats/uniformity.hpp"
#include "util/rng.hpp"

namespace cksum::core {
namespace {

using util::ByteView;
using util::Bytes;

// Theorem 6: over uniformly distributed data, the Internet checksum is
// uniformly distributed.
TEST(Theorem6, InternetChecksumUniformOverRandomData) {
  stats::Histogram h(65535);
  util::Rng rng(1);
  Bytes cell(48);
  for (int i = 0; i < 400000; ++i) {
    rng.fill(cell);
    h.add(alg::ones_canonical(alg::internet_sum(ByteView(cell))) % 65535u);
  }
  EXPECT_GT(stats::uniformity_p_value(h), 1e-4);
}

// Theorem 7: same for Fletcher (mod 256 version; mod 255's A/B live in
// 0..254 so its value space is 255², not the packed 16-bit space).
TEST(Theorem7, Fletcher256UniformOverRandomData) {
  stats::Histogram h(65536);
  util::Rng rng(2);
  Bytes cell(48);
  for (int i = 0; i < 400000; ++i) {
    rng.fill(cell);
    h.add(alg::fletcher_value(
        alg::kern::fletcher_block(ByteView(cell), alg::FletcherMod::kTwos256)));
  }
  EXPECT_GT(stats::uniformity_p_value(h), 1e-4);
}

TEST(Theorem7, Fletcher255UniformOverItsValueSpace) {
  // Index a*255+b over the 255x255 space.
  stats::Histogram h(255 * 255);
  util::Rng rng(3);
  Bytes cell(48);
  for (int i = 0; i < 400000; ++i) {
    rng.fill(cell);
    const auto p = alg::kern::fletcher_block(ByteView(cell),
                                       alg::FletcherMod::kOnes255);
    h.add(p.a * 255 + p.b);
  }
  EXPECT_GT(stats::uniformity_p_value(h), 1e-4);
}

// §4.3's headline observation: over REAL data, the cell checksum
// distribution is wildly non-uniform — the most common value occurs
// between 0.01% and a few percent of the time (uniform would be
// 0.0015%), and the top 0.1% of values take 1-5%+ of the mass.
TEST(Section4_3, RealDataCellDistributionIsSkewed) {
  const auto stats = collect_cell_stats(
      SpliceCorpus({CorpusKind::kProfile, "smeg.stanford.edu:/u1", 0.5}));
  const auto& h = stats.tcp_cells();
  EXPECT_GT(h.pmax(), 1e-4);                      // >= 0.01%
  EXPECT_GT(h.top_fraction_mass(0.001), 0.01);    // top 0.1% >= 1%
  EXPECT_LT(stats::uniformity_p_value(h), 1e-12); // decisively non-uniform
  // And the mode is (usually) zero.
  EXPECT_EQ(h.mode(), 0u);
}

// §4.4: real data's k-cell blocks stay more skewed than the iid
// convolution model predicts (local correlation).
TEST(Section4_4, MeasuredBlocksMoreSkewedThanIidPrediction) {
  CellStatsConfig cfg;
  cfg.ks = {1, 4};
  const auto stats = collect_cell_stats(
      SpliceCorpus({CorpusKind::kProfile, "sics.se:/src1", 0.5}), cfg);
  const auto d1 = stats::Distribution::from_histogram(stats.tcp_cells());
  const double predicted = d1.self_convolve(4).match_probability();
  const double measured = stats.tcp_blocks(4).match_probability();
  EXPECT_GT(measured, predicted);
}

// §4.6: local congruence probability exceeds global.
TEST(Section4_6, LocalCongruenceExceedsGlobal) {
  CellStatsConfig cfg;
  cfg.ks = {1, 2};
  const auto stats = collect_cell_stats(
      SpliceCorpus({CorpusKind::kProfile, "sics.se:/opt", 0.5}), cfg);
  const double global = stats.tcp_blocks(2).match_probability();
  const double local = stats.local(2).p_congruent();
  EXPECT_GT(local, global);
  // Identical blocks are the dominant source of congruence (the paper:
  // identical 20-40x more common than congruent-but-different), so
  // exclusion matters but leaves the rate above uniform.
  EXPECT_GT(stats.local(2).p_congruent_excluding_identical(), 1.0 / 65535.0);
}

// Theorem 10 (empirical form): trailer checksums miss no more splices
// than header checksums.
TEST(Theorem10, TrailerBeatsHeaderOnSpliceMisses) {
  net::PacketConfig header_cfg;
  net::PacketConfig trailer_cfg;
  trailer_cfg.placement = net::ChecksumPlacement::kTrailer;

  const auto& prof = fsgen::profile("sics.se:/opt");
  const SpliceStats h = run_profile(prof, header_cfg, 0.4);
  const SpliceStats t = run_profile(prof, trailer_cfg, 0.4);

  ASSERT_GT(h.remaining, 0u);
  ASSERT_GT(t.remaining, 0u);
  const double h_rate = static_cast<double>(h.missed_transport) /
                        static_cast<double>(h.remaining);
  const double t_rate = static_cast<double>(t.missed_transport) /
                        static_cast<double>(t.remaining);
  EXPECT_LE(t_rate, h_rate);
}

// The paper's central claim, end to end: on real data the TCP checksum
// misses splices at a rate far above the uniform-data expectation of
// 1/65535, while CRC-32 stays at (essentially) its uniform rate.
TEST(Headline, TcpChecksumFarWorseThanUniformOnRealData) {
  net::PacketConfig cfg;
  const SpliceStats st = run_profile(fsgen::profile("sics.se:/opt"), cfg, 0.4);
  ASSERT_GT(st.remaining, 100000u);
  const double tcp_rate = static_cast<double>(st.missed_transport) /
                          static_cast<double>(st.remaining);
  EXPECT_GT(tcp_rate, 5.0 / 65535.0)
      << "TCP misses should be well above the uniform-data rate";
  // CRC-32: expected misses ~ remaining / 2^32 ~ 0.
  EXPECT_LT(st.missed_crc, 5u);
}

// §6.3: inverting the stored checksum or not makes no material
// difference once the IP header is filled in.
TEST(Section6_3, InvertedVsNonInvertedEquivalent) {
  net::PacketConfig inv;
  net::PacketConfig raw;
  raw.invert_checksum = false;
  const auto& prof = fsgen::profile("sics.se:/src1");
  const SpliceStats a = run_profile(prof, inv, 0.3);
  const SpliceStats b = run_profile(prof, raw, 0.3);
  ASSERT_GT(a.remaining, 0u);
  const double ra = static_cast<double>(a.missed_transport) /
                    static_cast<double>(a.remaining);
  const double rb = static_cast<double>(b.missed_transport) /
                    static_cast<double>(b.remaining);
  // Same order of magnitude (both measure the same congruence events).
  EXPECT_LT(std::abs(ra - rb), 5 * std::max(ra, rb) + 1e-9);
}


// Colouring cross-check via the fragmentation error model: when
// substitutions preserve offsets (no reshuffling), Fletcher's splice
// advantage disappears — it and the TCP checksum miss at comparable
// rates on the same substitutions.
TEST(Colouring, FletcherAdvantageVanishesWithoutReshuffling) {
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kGmonProfile, 77,
                                          200000);
  auto run = [&](alg::Algorithm transport) {
    net::FlowConfig flow;
    flow.segment_size = 1440;
    flow.packet.transport = transport;
    const auto pkts = net::segment_file(flow, ByteView(file));
    std::uint64_t remaining = 0, missed = 0;
    for (std::size_t i = 0; i + 1 < pkts.size(); ++i) {
      if (pkts[i].bytes.size() != pkts[i + 1].bytes.size()) continue;
      const auto f1 = net::fragment_datagram(pkts[i].ip_bytes(), 380);
      const auto f2 = net::fragment_datagram(pkts[i + 1].ip_bytes(), 380);
      const util::Bytes canonical = *net::reassemble(f1);
      const unsigned n = static_cast<unsigned>(f1.size());
      for (unsigned mask = 1; mask + 1 < (1u << n); ++mask) {
        auto mixed = f1;
        for (unsigned b = 0; b < n; ++b)
          if (mask & (1u << b)) mixed[b] = f2[b];
        const auto rebuilt = net::reassemble(std::move(mixed));
        bool identical = true;
        for (std::size_t k = 0; k < rebuilt->size() && identical; ++k) {
          if (k == net::kIpv4HeaderLen + 16) {
            ++k;
            continue;
          }
          identical = (*rebuilt)[k] == canonical[k];
        }
        if (identical) continue;
        ++remaining;
        if (net::verify_transport_checksum(flow.packet, ByteView(*rebuilt)))
          ++missed;
      }
    }
    return std::pair<std::uint64_t, std::uint64_t>{missed, remaining};
  };
  const auto [tcp_miss, tcp_rem] = run(alg::Algorithm::kInternet);
  const auto [f_miss, f_rem] = run(alg::Algorithm::kFletcher256);
  ASSERT_GT(tcp_rem, 0u);
  ASSERT_GT(tcp_miss, 0u);
  const double tcp_rate = double(tcp_miss) / double(tcp_rem);
  const double f_rate = double(f_miss) / double(f_rem);
  // Comparable rates (within 3x either way) — no positional rescue.
  EXPECT_LT(f_rate, 3.0 * tcp_rate);
  EXPECT_GT(f_rate, tcp_rate / 3.0);
}

}  // namespace
}  // namespace cksum::core
