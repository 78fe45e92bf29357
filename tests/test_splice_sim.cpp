// The splice simulator. The crown-jewel test cross-validates the
// partial-sums fast path against the materialise-and-verify reference
// oracle for every splice of real generator data, across transports,
// placements, and ablations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checksum/kernels/kernel.hpp"
#include "core/experiments.hpp"
#include "core/pdu_model.hpp"
#include "core/splice_sim.hpp"
#include "fsgen/corpus_store.hpp"
#include "fsgen/generator.hpp"
#include "fsgen/profile.hpp"
#include "net/packet.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace cksum::core {
namespace {

using util::ByteView;
using util::Bytes;

net::FlowConfig flow_with(alg::Algorithm transport,
                          net::ChecksumPlacement placement,
                          bool invert = true, bool fill_ip = true) {
  net::FlowConfig cfg = paper_flow_config();
  cfg.packet.transport = transport;
  cfg.packet.placement = placement;
  cfg.packet.invert_checksum = invert;
  cfg.packet.fill_ip_header = fill_ip;
  return cfg;
}

/// Reference statistics computed entirely through the byte-level
/// oracle: a full mirror of evaluate_pair's classification, down to
/// the k-histograms, hdr2 population, Table 10 matrix and Koopman
/// columns. It also predicts the evaluator's path counters: a splice
/// is slow-path iff packet 2 has no fast path at all, or its first
/// kept cell is not packet 1's cell 0 yet passes the header checks.
/// So a DFS result must equal the mirror's with ==.
SpliceStats reference_pair_stats(const net::PacketConfig& cfg,
                                 const SimPacket& p1, const SimPacket& p2) {
  SpliceStats st;
  ++st.pairs;
  const std::size_t n2 = p2.pdu.num_cells();
  atm::for_each_splice(
      p1.pdu.num_cells(), n2, [&](const atm::SpliceSpec& s) {
        ++st.total;
        const SpliceOutcome o = evaluate_splice_reference(cfg, p1, p2, s);
        const bool first_is_head = (s.mask1 & 1u) != 0;
        if (!p2.fast_path_ok || (!first_is_head && !o.caught_by_header))
          ++st.slow_path;
        else
          ++st.fast_path;
        if (o.caught_by_header) {
          ++st.caught_by_header;
          return;
        }
        if (o.identical) {
          ++st.identical;
          if (o.transport_pass)
            ++st.pass_identical;
          else
            ++st.fail_identical;
          return;
        }
        ++st.remaining;
        if (o.transport_pass) {
          ++st.missed_transport;
          ++st.pass_changed;
        } else {
          ++st.fail_changed;
        }
        if (o.crc_pass) ++st.missed_crc;
        if (o.crc_pass && o.transport_pass) ++st.missed_both;
        if (o.koopman_dual_pass) ++st.missed_koopman_dual;
        if (o.koopman_single_pass) ++st.missed_koopman_single;
        const std::size_t k = std::min<std::size_t>(n2 - s.k1, kMaxTrackedK - 1);
        ++st.remaining_by_k[k];
        if (o.transport_pass) ++st.missed_by_k[k];
        if ((s.mask2 & 1u) != 0) {
          ++st.remaining_with_hdr2;
          if (o.transport_pass) ++st.missed_with_hdr2;
        }
      });
  return st;
}

/// Both evaluators over every adjacent pair of `pkts`; returns the
/// evaluator's stats.
SpliceStats expect_pairs_match_oracle(const net::FlowConfig& flow,
                                      const std::vector<SimPacket>& pkts,
                                      const std::string& label) {
  SpliceStats fast, ref;
  for (std::size_t i = 0; i + 1 < pkts.size(); ++i) {
    evaluate_pair(flow.packet, pkts[i], pkts[i + 1], fast);
    ref.merge(reference_pair_stats(flow.packet, pkts[i], pkts[i + 1]));
  }
  EXPECT_TRUE(fast == ref) << label;
  EXPECT_GT(fast.total, 0u) << label;
  return fast;
}

struct CrossCase {
  alg::Algorithm transport;
  net::ChecksumPlacement placement;
  bool invert;
  bool fill_ip;
  fsgen::FileKind kind;
  const char* label;
};

class FastVsReference : public ::testing::TestWithParam<CrossCase> {};

TEST_P(FastVsReference, EverySpliceAgrees) {
  const CrossCase c = GetParam();
  const net::FlowConfig flow =
      flow_with(c.transport, c.placement, c.invert, c.fill_ip);

  // Data chosen to exercise interesting cases: zero-heavy and
  // repetitive files produce identical and transport-missed splices.
  const Bytes file = fsgen::generate_file(c.kind, 77, 6000);
  const auto pkts = packetize_file(flow, ByteView(file));
  ASSERT_GE(pkts.size(), 2u);
  expect_pairs_match_oracle(flow, pkts, c.label);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FastVsReference,
    ::testing::Values(
        CrossCase{alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader,
                  true, true, fsgen::FileKind::kGmonProfile, "tcp_gmon"},
        CrossCase{alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader,
                  true, true, fsgen::FileKind::kText, "tcp_text"},
        CrossCase{alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader,
                  false, true, fsgen::FileKind::kGmonProfile,
                  "tcp_noninverted_gmon"},
        CrossCase{alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader,
                  true, false, fsgen::FileKind::kGmonProfile,
                  "tcp_unfilled_ip_gmon"},
        CrossCase{alg::Algorithm::kInternet, net::ChecksumPlacement::kTrailer,
                  true, true, fsgen::FileKind::kGmonProfile,
                  "tcp_trailer_gmon"},
        CrossCase{alg::Algorithm::kInternet, net::ChecksumPlacement::kTrailer,
                  true, true, fsgen::FileKind::kPbmImage, "tcp_trailer_pbm"},
        CrossCase{alg::Algorithm::kFletcher255, net::ChecksumPlacement::kHeader,
                  true, true, fsgen::FileKind::kPbmImage, "f255_pbm"},
        CrossCase{alg::Algorithm::kFletcher255, net::ChecksumPlacement::kHeader,
                  true, true, fsgen::FileKind::kWordProcessor, "f255_wordproc"},
        CrossCase{alg::Algorithm::kFletcher256, net::ChecksumPlacement::kHeader,
                  true, true, fsgen::FileKind::kHexPostscript, "f256_hexps"},
        CrossCase{alg::Algorithm::kFletcher256, net::ChecksumPlacement::kHeader,
                  true, true, fsgen::FileKind::kExecutable, "f256_exe"},
        CrossCase{alg::Algorithm::kFletcher256, net::ChecksumPlacement::kTrailer,
                  true, true, fsgen::FileKind::kGmonProfile,
                  "f256_trailer_gmon"}),
    [](const auto& gen_info) { return std::string(gen_info.param.label); });

TEST(FastVsReference, RuntTailPairsAgree) {
  // Files sized to produce 1..9-byte runt packets (the SIGCOMM '95
  // simulator's bug #3 territory, and our slow-path triggers) — across
  // every transport and placement combination.
  for (const auto transport :
       {alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
        alg::Algorithm::kFletcher256}) {
    for (const auto placement :
         {net::ChecksumPlacement::kHeader, net::ChecksumPlacement::kTrailer}) {
      for (std::size_t tail = 1; tail <= 9; tail += 2) {
        const net::FlowConfig flow = flow_with(transport, placement);
        Bytes file = fsgen::generate_file(fsgen::FileKind::kText, tail, 512);
        file.resize(512 + tail);
        const auto pkts = packetize_file(flow, ByteView(file));
        ASSERT_EQ(pkts.size(), 3u);
        SpliceStats fast;
        evaluate_pair(flow.packet, pkts[1], pkts[2], fast);
        EXPECT_TRUE(fast ==
                    reference_pair_stats(flow.packet, pkts[1], pkts[2]))
            << "runt " << tail;
      }
    }
  }
}


TEST(FastVsReference, Legacy95ModeAgrees) {
  // The SIGCOMM '95 emulation changes the builder, the pseudo-header
  // and the header checks; the fast path must still match the oracle.
  net::FlowConfig flow = paper_flow_config();
  flow.packet.legacy95_headers = true;
  const Bytes file =
      fsgen::generate_file(fsgen::FileKind::kGmonProfile, 31, 6000);
  const auto pkts = packetize_file(flow, ByteView(file));
  ASSERT_GE(pkts.size(), 2u);
  expect_pairs_match_oracle(flow, pkts, "legacy95");
}

TEST(SpliceSim, Legacy95InflatesMissRate) {
  // §6.2: the legacy builder makes zero-payload header cells
  // zero-congruent, inflating the miss rate by orders of magnitude on
  // zero-heavy data.
  // Build a file dominated by fully-zero packets with occasional
  // non-zero patches (a sparse binary).
  Bytes file(60000, 0x00);
  for (std::size_t i = 500; i < file.size(); i += 1900)
    file[i] = static_cast<std::uint8_t>(0x40 + i % 50);
  SpliceRunConfig modern;
  modern.flow = paper_flow_config();
  SpliceRunConfig legacy = modern;
  legacy.flow.packet.legacy95_headers = true;
  const SpliceStats a = run_file(modern, ByteView(file));
  const SpliceStats b = run_file(legacy, ByteView(file));
  ASSERT_GT(a.remaining, 0u);
  ASSERT_GT(b.remaining, 0u);
  const double ra = static_cast<double>(a.missed_transport) /
                    static_cast<double>(a.remaining);
  const double rb = static_cast<double>(b.missed_transport) /
                    static_cast<double>(b.remaining);
  EXPECT_GT(rb, 2.0 * ra);
}


TEST(FastVsReference, RandomisedConfigurationsAgree) {
  // Differential fuzzing: random (transport, placement, ablation,
  // kind, seed) combinations, each cross-validated splice-by-splice
  // against the byte-level oracle.
  util::Rng rng(0xfa57);
  for (int trial = 0; trial < 12; ++trial) {
    net::FlowConfig flow = paper_flow_config();
    flow.packet.transport =
        std::array{alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
                   alg::Algorithm::kFletcher256}[rng.below(3)];
    flow.packet.placement = rng.chance(0.5)
                                ? net::ChecksumPlacement::kHeader
                                : net::ChecksumPlacement::kTrailer;
    flow.packet.invert_checksum = rng.chance(0.8);
    flow.packet.fill_ip_header = rng.chance(0.8);
    flow.packet.legacy95_headers = rng.chance(0.2);
    flow.segment_size = std::array{128u, 256u, 301u}[rng.below(3)];
    const auto kind =
        fsgen::kAllKinds[rng.below(std::size(fsgen::kAllKinds))];
    const Bytes file = fsgen::generate_file(kind, rng.next(), 3000);

    const auto pkts = packetize_file(flow, ByteView(file));
    ASSERT_GE(pkts.size(), 2u);
    expect_pairs_match_oracle(flow, pkts, "trial " + std::to_string(trial));
  }
}

TEST(FastVsReference, RunHeavyKoopmanMissesAgree) {
  // Zero runs with sparse 0xFF/0x01 bytes make the Koopman sums miss
  // splices the CRC catches, so the mirror's Koopman columns are
  // checked against nonzero counts, on every transport.
  for (const std::uint64_t seed : {2u, 5u, 7u}) {
    Bytes file(40000, 0x00);
    util::Rng rng(seed);
    constexpr std::array<std::uint8_t, 5> kDraw = {0, 0, 0, 0xFF, 1};
    for (std::size_t i = 0; i < file.size(); i += 7)
      file[i] = kDraw[rng.below(kDraw.size())];
    for (const auto transport :
         {alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
          alg::Algorithm::kFletcher256}) {
      const net::FlowConfig flow =
          flow_with(transport, net::ChecksumPlacement::kTrailer);
      const auto pkts = packetize_file(flow, ByteView(file));
      ASSERT_GE(pkts.size(), 2u);
      const std::string label = "seed " + std::to_string(seed) + " " +
                                std::string(alg::name(transport));
      const SpliceStats fast = expect_pairs_match_oracle(flow, pkts, label);
      EXPECT_GT(fast.missed_koopman_single, 0u) << label;
    }
  }
}

TEST(FastVsReference, DfsBitwiseEqualsOracleOnCraftedPairs) {
  // Property test over crafted packet pairs, including shapes
  // packetize_file never produces (n2 > n1, runt meeting runt): the
  // ENTIRE DFS result — k-histograms, hdr2 population, Table 10
  // matrix, missed_both — must equal the byte-level oracle mirror bit
  // for bit, path counters included.
  util::Rng rng(0xb17e);
  for (int trial = 0; trial < 48; ++trial) {
    net::FlowConfig flow = paper_flow_config();
    flow.packet.transport =
        std::array{alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
                   alg::Algorithm::kFletcher256}[rng.below(3)];
    flow.packet.placement = rng.chance(0.5)
                                ? net::ChecksumPlacement::kHeader
                                : net::ChecksumPlacement::kTrailer;
    flow.packet.invert_checksum = rng.chance(0.8);
    flow.packet.fill_ip_header = rng.chance(0.8);

    // n cells hold a 40-byte datagram header plus payload of
    // 48(n-2)+1 .. 48(n-1) bytes (odd lengths arise naturally).
    const auto payload_for = [&](std::size_t n) {
      const std::size_t lo = 48 * (n - 2) + 1;
      const std::size_t len = lo + rng.below(48);
      Bytes payload(len);
      for (auto& b : payload)  // zero-heavy, so identical and
        b = rng.chance(0.4)    // transport-missed splices arise
                ? 0
                : static_cast<std::uint8_t>(rng.next());
      return payload;
    };

    const std::size_t n1 = 2 + rng.below(11);
    const std::size_t n2 = 2 + rng.below(11);
    const Bytes pay1 = payload_for(n1);
    const Bytes pay2 =
        (n1 == n2 && rng.chance(0.3)) ? pay1 : payload_for(n2);
    const SimPacket p1 = make_sim_packet(
        flow.packet, net::build_packet(flow.packet, flow.initial_seq, 1,
                                       ByteView(pay1)));
    const SimPacket p2 = make_sim_packet(
        flow.packet,
        net::build_packet(flow.packet,
                          flow.initial_seq +
                              static_cast<std::uint32_t>(pay1.size()),
                          2, ByteView(pay2)));

    SpliceStats fast;
    evaluate_pair(flow.packet, p1, p2, fast);
    EXPECT_EQ(fast.fast_path + fast.slow_path, fast.total)
        << "trial " << trial;
    EXPECT_TRUE(fast == reference_pair_stats(flow.packet, p1, p2))
        << "trial " << trial << " n1=" << n1 << " n2=" << n2;
  }
}

TEST(FastVsReference, RandomShapesMatchOracle) {
  // Differential test of the DFS on random shapes, against the byte
  // oracle mirror with ==. Every transport x placement x invert x
  // fill_ip x legacy95 configuration gets two trials:
  //
  //  * two equal-length pairs of 2..8 cells (9 for three trials, so a
  //    regrown bucket outgrows its 64-entry staging chunk). Only these
  //    reach the DFS: p1's header cell passes the header gate only
  //    when it declares p2's length. Each runs pooled and regrown
  //    (evaluate_pair_unpooled, the path packets with n2 >= 16 take);
  //    the regrown path cannot be reached through n2 >= 16 itself on
  //    the oracle's budget, as n1 == n2 == 16 has C(30, 15) splices.
  //    In the second pair an Internet check field is forced to ±0;
  //  * n2 in 16..32 with n1 under the budget, so large shapes'
  //    header-gate accounting is checked too.
  //
  // Cell content is uniform, run-heavy, all-0x00 or all-0xFF: with the
  // ±0 fields, the fills that produce Internet ±0 sums, the
  // Fletcher-255 0x00/0xFF residues and identical splices, where a
  // hoisted compare could disagree with reducing the whole sum. Each
  // trial seeds its own stream, so the printed seed and trial replay
  // it alone.
  constexpr std::uint64_t kSeed = 0x5eed15;
  constexpr std::uint64_t kBudget = 4000;  // oracle splices per trial
  const auto fill_payload = [](util::Rng& rng, std::size_t len,
                               std::string& label) {
    Bytes payload(len);
    switch (rng.below(4)) {
      case 0:
        label += "uniform";
        rng.fill(payload);
        break;
      case 1: {
        label += "runs";
        for (std::size_t i = 0; i < len;) {
          const std::uint8_t v =
              std::array<std::uint8_t, 3>{0x00, 0xFF,
                                          static_cast<std::uint8_t>(
                                              rng.next())}[rng.below(3)];
          const std::size_t run = std::min<std::size_t>(1 + rng.below(64),
                                                        len - i);
          std::fill_n(payload.begin() + static_cast<std::ptrdiff_t>(i), run,
                      v);
          i += run;
        }
        break;
      }
      case 2:
        label += "zeros";
        break;
      default:
        label += "ones";
        std::fill(payload.begin(), payload.end(), std::uint8_t{0xFF});
        break;
    }
    return payload;
  };
  // Payload lengths that frame into exactly n cells in either
  // placement (trailer placement appends 2 check bytes).
  const auto payload_len = [](util::Rng& rng, std::size_t n) {
    return 48 * (n - 2) + 1 + rng.below(46);
  };

  // A packet whose Internet check field is 0x0000 or 0xFFFF, by
  // choosing its first payload word (at an even coverage offset).
  const auto zero_field_packet = [](const net::PacketConfig& cfg,
                                    std::uint32_t seq, std::uint16_t id,
                                    Bytes payload) {
    payload[0] = payload[1] = 0;
    const std::uint16_t s0 =
        make_sim_packet(cfg, net::build_packet(cfg, seq, id, ByteView(payload)))
            .tp.stored;
    // The field is -sum (inverted) or sum, mod 65535: a word of s0 or
    // ~s0 brings the sum to a multiple of 65535.
    const std::uint16_t w =
        cfg.invert_checksum ? s0 : static_cast<std::uint16_t>(~s0);
    payload[0] = static_cast<std::uint8_t>(w >> 8);
    payload[1] = static_cast<std::uint8_t>(w);
    return make_sim_packet(cfg,
                           net::build_packet(cfg, seq, id, ByteView(payload)));
  };

  SpliceStats dfs_seen;  // summed over the equal-length trials
  int zero_fields = 0;
  int trial = 0;
  for (const auto transport :
       {alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
        alg::Algorithm::kFletcher256}) {
    for (const auto placement :
         {net::ChecksumPlacement::kHeader, net::ChecksumPlacement::kTrailer}) {
      for (const bool invert : {true, false}) {
        for (const bool fill_ip : {true, false}) {
          for (const bool legacy95 : {false, true}) {
            for (const int shape : {0, 1, 2}) {
              const bool equal = shape < 2;
              const bool zero_field =
                  shape == 1 && transport == alg::Algorithm::kInternet;
              util::Rng rng(kSeed + 0x9e3779b97f4a7c15ull *
                                        static_cast<std::uint64_t>(trial));
              net::FlowConfig flow = flow_with(transport, placement, invert,
                                               fill_ip);
              flow.packet.legacy95_headers = legacy95;
              std::size_t n1 = 0, n2 = 0;
              if (equal) {
                const bool chunked =
                    shape == 0 &&
                    placement == net::ChecksumPlacement::kHeader && invert &&
                    fill_ip && !legacy95;
                n1 = n2 = chunked ? 9 : 2 + rng.below(7);
              } else {
                do {
                  n2 = 16 + rng.below(atm::kMaxSpliceCells - 15);
                  n1 = 2 + rng.below(atm::kMaxSpliceCells - 1);
                } while (atm::splice_count(n1, n2) > kBudget);
              }
              std::string fills;
              const std::size_t len1 = payload_len(rng, n1);
              const Bytes pay1 = fill_payload(rng, len1, fills);
              fills += "/";
              Bytes pay2;
              if (equal && rng.chance(0.25)) {
                fills += "copy";
                pay2 = pay1;
              } else {
                pay2 = fill_payload(rng, equal ? len1 : payload_len(rng, n2),
                                    fills);
              }
              const std::uint32_t seq2 =
                  flow.initial_seq + static_cast<std::uint32_t>(pay1.size());
              // The field that decides the transport verdict: p1's in
              // header placement, p2's in trailer placement.
              const bool zero1 = zero_field && pay1.size() >= 2 &&
                                 placement == net::ChecksumPlacement::kHeader;
              const bool zero2 = zero_field && pay2.size() >= 2 &&
                                 placement == net::ChecksumPlacement::kTrailer;
              const SimPacket p1 =
                  zero1 ? zero_field_packet(flow.packet, flow.initial_seq, 1,
                                            pay1)
                        : make_sim_packet(flow.packet,
                                          net::build_packet(flow.packet,
                                                            flow.initial_seq,
                                                            1, ByteView(pay1)));
              const SimPacket p2 =
                  zero2 ? zero_field_packet(flow.packet, seq2, 2, pay2)
                        : make_sim_packet(flow.packet,
                                          net::build_packet(flow.packet, seq2,
                                                            2, ByteView(pay2)));
              if (zero1) fills += " p1 field ±0";
              if (zero2) fills += " p2 field ±0";
              const std::string where =
                  "seed " + std::to_string(kSeed) + " trial " +
                  std::to_string(trial) + ": " +
                  std::string(alg::name(transport)) +
                  (placement == net::ChecksumPlacement::kHeader ? " header"
                                                                : " trailer") +
                  " invert=" + std::to_string(invert) +
                  " fill_ip=" + std::to_string(fill_ip) +
                  " legacy95=" + std::to_string(legacy95) +
                  " n1=" + std::to_string(n1) + " n2=" + std::to_string(n2) +
                  " fills=" + fills;
              ASSERT_EQ(p1.pdu.num_cells(), n1) << where;
              ASSERT_EQ(p2.pdu.num_cells(), n2) << where;
              if (zero1 || zero2) {
                const std::uint16_t field = (zero1 ? p1 : p2).tp.stored;
                ASSERT_TRUE(field == 0 || field == 0xFFFF) << where;
                ++zero_fields;
              }

              SpliceStats pooled, regrown;
              evaluate_pair(flow.packet, p1, p2, pooled);
              evaluate_pair_unpooled(flow.packet, p1, p2, regrown);
              const SpliceStats ref = reference_pair_stats(flow.packet, p1, p2);
              EXPECT_TRUE(pooled == ref) << where;
              EXPECT_TRUE(regrown == ref) << where << " (regrown)";
              if (equal) dfs_seen.merge(pooled);
              ++trial;
            }
          }
        }
      }
    }
  }
  // The fills must actually produce the cases the test is aimed at.
  EXPECT_GT(dfs_seen.identical, 0u);
  EXPECT_GT(dfs_seen.pass_identical, 0u);
  EXPECT_GT(dfs_seen.missed_transport, 0u);
  EXPECT_GT(dfs_seen.remaining, dfs_seen.missed_transport);
  EXPECT_GE(zero_fields, 12);
}

/// The registry's splice.dfs_nodes total (0 when telemetry is compiled
/// out).
std::uint64_t dfs_nodes_now() {
  return obs::Registry::global().snapshot().value("splice.dfs_nodes");
}

TEST(FastVsReference, PooledEqualsRegrownAtPoolLimit) {
  // The largest pooled shape, n1 = n2 = 15: e2 = 14 non-EOM cells, the
  // pool limit, with 2^14 - 1 pooled suffixes and C(13, 6) = 1716
  // nodes on the widest prefix level. The oracle cannot afford its
  // C(28, 14) splices, so the pooled path is held to the regrown one,
  // which RandomShapesMatchOracle holds to the oracle. Both must agree
  // on every counter, and each must grow exactly the nodes its own
  // closed form counts (the counts the recursive walk made):
  //  * pooled: every pool entry past bucket 0, plus every prefix node
  //    past the root;
  //  * regrown: the same prefix nodes, plus, under each node with k2
  //    cells to find, every r-cell descending prefix (r = 1..k2) that
  //    can still be completed, C(e2 - k2 + r, r) of them.
  // Both transports take about 1.2 s in the default RelWithDebInfo
  // build on a 4-vCPU Xeon, nearly all of it on the regrown path.
  constexpr unsigned kCells = 15;
  constexpr unsigned e = kCells - 1;  // e1 = e2
  const auto choose = [](unsigned n, unsigned k) {
    std::uint64_t c = 1;
    for (unsigned i = 1; i <= k; ++i) c = c * (n - k + i) / i;
    return c;
  };
  std::uint64_t prefix_nodes = 0, pooled_nodes = 0, regrown_nodes = 0;
  for (unsigned r = 1; r < e; ++r) pooled_nodes += choose(e, r);
  for (unsigned t = 0; t < e; ++t) {
    if (t > 0) prefix_nodes += choose(e - 1, t);
    const unsigned k2 = e - 1 - t;
    for (unsigned r = 1; r <= k2; ++r)
      regrown_nodes += choose(e - 1, t) * choose(e - k2 + r, r);
  }
  pooled_nodes += prefix_nodes;
  regrown_nodes += prefix_nodes;

  util::Rng rng(0x15ce11);
  for (const auto& [transport, placement] :
       {std::pair{alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader},
        std::pair{alg::Algorithm::kFletcher255,
                  net::ChecksumPlacement::kTrailer}}) {
    const net::FlowConfig flow = flow_with(transport, placement);
    // Zero-heavy payloads, p2 a copy of p1 with a few bytes changed, so
    // identical splices and transport misses reach the join's tally.
    Bytes pay1(48 * (kCells - 2) + 1 + rng.below(46));
    for (auto& b : pay1)
      b = rng.chance(0.6) ? 0 : static_cast<std::uint8_t>(rng.next());
    // The changes stay clear of the header and EOM cells (payload byte
    // j sits in cell (40 + j) / 48), so splices can reproduce p1.
    Bytes pay2 = pay1;
    for (int i = 0; i < 4; ++i)
      pay2[48 * (2 + rng.below(10)) + rng.below(48)] ^= 0x5a;
    const SimPacket p1 = make_sim_packet(
        flow.packet,
        net::build_packet(flow.packet, flow.initial_seq, 1, ByteView(pay1)));
    const SimPacket p2 = make_sim_packet(
        flow.packet,
        net::build_packet(
            flow.packet,
            flow.initial_seq + static_cast<std::uint32_t>(pay1.size()), 2,
            ByteView(pay2)));
    const std::string where = std::string(alg::name(transport));
    ASSERT_EQ(p1.pdu.num_cells(), kCells) << where;
    ASSERT_EQ(p2.pdu.num_cells(), kCells) << where;

    SpliceStats pooled, regrown;
    const std::uint64_t n0 = dfs_nodes_now();
    evaluate_pair(flow.packet, p1, p2, pooled);
    const std::uint64_t n1 = dfs_nodes_now();
    evaluate_pair_unpooled(flow.packet, p1, p2, regrown);
    const std::uint64_t n2 = dfs_nodes_now();
    EXPECT_TRUE(pooled == regrown) << where;
    EXPECT_EQ(pooled.total, choose(2 * kCells - 2, kCells - 1) - 1) << where;
    EXPECT_GT(pooled.identical, 0u) << where;
    EXPECT_GT(pooled.remaining, 0u) << where;
#ifndef OBS_DISABLE
    EXPECT_EQ(n1 - n0, pooled_nodes) << where;
    EXPECT_EQ(n2 - n1, regrown_nodes) << where;
#else
    (void)n0, (void)n1, (void)n2;
#endif
  }
}

TEST(FastVsReference, BlockedJoinMatchesOracle) {
  // The pooled join classifies up to 16 prefix nodes of a level per
  // pass over a suffix bucket and falls back to one node at a time only
  // in a block where something hit. 9x9-cell pairs (e1 = e2 = 8) have
  // two levels of C(7, 3) = C(7, 4) = 35 nodes, three blocks each. The
  // cases are crafted so that:
  //  * none: no block hits. Unrelated uniform payloads; no splice the
  //    DFS reaches is identical or passes any check;
  //  * middle: on the 3-cell level, exactly node 24 ({2, 4, 7}: the 20
  //    subsets of cells 1..6 come first, then {1, 2, 7}, {1, 3, 7},
  //    {2, 3, 7}, {1, 4, 7}) hits, in the middle block. p2 shares p1's
  //    header cell, and its cells 1..3 are p1's cells 2, 4 and 7, so
  //    the splice keeping those and p2's cells 4..7 reproduces p2. The
  //    shallower levels' nodes {2, 4}, {2} and the root reproduce it
  //    too. The position-free sums (Koopman single, and Internet when
  //    it is the transport) also pass the other nodes whose cells p2
  //    holds, {4}, {7}, {2, 7} and {4, 7}, with the rest of p2's cells.
  //    The 4-cell level and deeper hit nothing;
  //  * ident: a block whose only hit is an identity test on a node
  //    other than its first. p1's cells 3 and 7 repeat its cells 1 and
  //    2, and p2 ends in p1's cells 3..7 and EOM data, so node {3, 7}
  //    (node 17 of the 2-cell level, the second of the second block's
  //    {2, 7}, {3, 7}, ..., {6, 7}) with p2's cells 3..7 reproduces
  //    p1, and none of that block's other nodes does. Under a trailer
  //    field no check passes such a splice, so the block hits only
  //    through the OR of its nodes' ident masks;
  //  * all: every block hits. All-0x00 payloads: every node of every
  //    level is identical to p1 with the suffixes that leave out p2's
  //    header cell.
  // Each runs pooled and regrown, against the byte oracle with ==.
  constexpr std::size_t kCells = 9;
  constexpr std::size_t kPayload = 360;  // 40 + 360 bytes: 9 cells
  // Payload byte j sits in cell (40 + j) / 48, so cell c >= 1 holds
  // payload bytes [48c - 40, 48c + 8).
  const auto cell_bytes = [](Bytes& payload, std::size_t c) {
    return payload.begin() + static_cast<std::ptrdiff_t>(48 * c - 40);
  };
  // Internet sum of the payload's big-endian words, mod 65535.
  const auto word_sum = [](const Bytes& payload) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < payload.size(); i += 2)
      sum += std::uint64_t{payload[i]} << 8 | payload[i + 1];
    return static_cast<std::uint32_t>(sum % 65535);
  };

  enum class Case { kNone, kMiddle, kIdent, kAll };
  for (const auto& [transport, placement] :
       {std::pair{alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader},
        std::pair{alg::Algorithm::kFletcher255,
                  net::ChecksumPlacement::kTrailer}}) {
    const net::FlowConfig flow = flow_with(transport, placement);
    for (const Case c :
         {Case::kNone, Case::kMiddle, Case::kIdent, Case::kAll}) {
      util::Rng rng(0xb10c + static_cast<std::uint64_t>(c));
      Bytes pay1(kPayload), pay2(kPayload);
      std::uint32_t seq2 = flow.initial_seq + kPayload;
      std::uint16_t id2 = 2;
      if (c != Case::kAll) {
        rng.fill(pay1);
        rng.fill(pay2);
      }
      if (c == Case::kMiddle) {
        // Same sequence number, id and first 8 payload bytes: the same
        // header cell, once the payload sums agree.
        seq2 = flow.initial_seq;
        id2 = 1;
        std::copy_n(pay1.begin(), 8, pay2.begin());
        const std::array<std::size_t, 3> copied = {2, 4, 7};
        for (std::size_t i = 0; i < copied.size(); ++i)
          std::copy_n(cell_bytes(pay1, copied[i]), 48, cell_bytes(pay2, i + 1));
        // Level p2's word sum with p1's through one word of cell 5.
        const std::size_t w = 48 * 5 - 40;
        const std::uint32_t word =
            ((std::uint32_t{pay2[w]} << 8 | pay2[w + 1]) + 2 * 65535u +
             word_sum(pay1) - word_sum(pay2)) %
            65535;
        pay2[w] = static_cast<std::uint8_t>(word >> 8);
        pay2[w + 1] = static_cast<std::uint8_t>(word);
      }
      if (c == Case::kIdent) {
        // p1's cells 3 and 7 repeat its cells 1 and 2, and p2 ends in
        // p1's cells 3..7 and EOM data.
        std::copy_n(cell_bytes(pay1, 1), 48, cell_bytes(pay1, 3));
        std::copy_n(cell_bytes(pay1, 2), 48, cell_bytes(pay1, 7));
        std::copy(cell_bytes(pay1, 3), pay1.end(), cell_bytes(pay2, 3));
      }
      const SimPacket p1 = make_sim_packet(
          flow.packet,
          net::build_packet(flow.packet, flow.initial_seq, 1, ByteView(pay1)));
      const SimPacket p2 = make_sim_packet(
          flow.packet,
          net::build_packet(flow.packet, seq2, id2, ByteView(pay2)));
      const std::string where =
          std::string(alg::name(transport)) + " case " +
          std::array{"none", "middle", "ident", "all"}[static_cast<int>(c)];
      ASSERT_EQ(p1.pdu.num_cells(), kCells) << where;
      ASSERT_EQ(p2.pdu.num_cells(), kCells) << where;
      ASSERT_TRUE(p2.fast_path_ok) << where;

      SpliceStats pooled, regrown;
      evaluate_pair(flow.packet, p1, p2, pooled);
      evaluate_pair_unpooled(flow.packet, p1, p2, regrown);
      const SpliceStats ref = reference_pair_stats(flow.packet, p1, p2);
      EXPECT_TRUE(pooled == ref) << where;
      EXPECT_TRUE(regrown == ref) << where << " (regrown)";
      // The splices each case is built to produce, and no others.
      switch (c) {
        case Case::kNone:
          EXPECT_EQ(ref.identical + ref.missed_transport + ref.missed_crc +
                        ref.missed_koopman_dual + ref.missed_koopman_single,
                    0u)
              << where;
          break;
        case Case::kMiddle:
          ASSERT_EQ(p1.cells[0].hash, p2.cells[0].hash) << where;
          EXPECT_EQ(ref.identical, 4u) << where;
          EXPECT_EQ(ref.missed_koopman_single, 4u) << where;
          EXPECT_EQ(ref.missed_transport,
                    transport == alg::Algorithm::kInternet ? 4u : 0u)
              << where;
          EXPECT_EQ(ref.missed_crc + ref.missed_koopman_dual, 0u) << where;
          break;
        case Case::kIdent:
          // Under a trailer field the splices identical to p1 fail
          // every check; under a header one they pass the transport.
          EXPECT_GT(ref.identical, 0u) << where;
          if (placement == net::ChecksumPlacement::kTrailer) {
            EXPECT_EQ(ref.missed_transport + ref.missed_crc +
                          ref.missed_koopman_dual + ref.missed_koopman_single,
                      0u)
                << where;
          }
          break;
        case Case::kAll:
          // Every node, with each suffix that leaves out p2's header
          // cell: sum over t of C(7, t) * C(7, 7 - t) = C(14, 7).
          EXPECT_EQ(ref.identical, 3432u) << where;
          break;
      }
    }
  }
}

TEST(FastVsReference, OutOfRingKoopmanTargetsNeverMatch) {
  // A Koopman target at or past its modulus can never equal a reduced
  // sum, so the oracle never passes it; the DFS gives such a family the
  // need kNeverMatches and must carry it through every level unchanged.
  // Each pair gets two out-of-ring forms of p2's targets: the bare
  // moduli (kd_pdu.a = 65521, ks_pdu = 2^32 - 5), and the sums of one of
  // its own remaining splices plus the modulus — the one keeping the
  // most of p1's cells, so its prefix node sits deepest. An evaluator
  // that reduced the target instead of honouring the sentinel would
  // count that splice as missed by both sums.
  Bytes file(12000, 0x00);
  util::Rng rng(5);
  constexpr std::array<std::uint8_t, 5> kDraw = {0, 0, 0, 0xFF, 1};
  for (std::size_t i = 0; i < file.size(); i += 7)
    file[i] = kDraw[rng.below(kDraw.size())];
  const net::FlowConfig flow =
      flow_with(alg::Algorithm::kInternet, net::ChecksumPlacement::kTrailer);
  const auto pkts = packetize_file(flow, ByteView(file));
  int checked = 0;
  for (std::size_t i = 0; i + 1 < pkts.size() && checked < 6; ++i) {
    const SimPacket& p1 = pkts[i];
    if (p1.total_len != pkts[i + 1].total_len) continue;
    std::optional<atm::SpliceSpec> deepest;
    atm::for_each_splice(
        p1.pdu.num_cells(), pkts[i + 1].pdu.num_cells(),
        [&](const atm::SpliceSpec& s) {
          const SpliceOutcome o =
              evaluate_splice_reference(flow.packet, p1, pkts[i + 1], s);
          if ((s.mask1 & 1u) != 0 && !o.caught_by_header && !o.identical &&
              (!deepest || s.k1 > deepest->k1))
            deepest = s;
        });
    ASSERT_TRUE(deepest.has_value()) << "pair " << i;
    const Bytes bytes = atm::materialize_splice(
        p1.pdu.bytes(), pkts[i + 1].pdu.bytes(), *deepest);
    const ByteView kcov(bytes.data(), bytes.size() - 4);
    const alg::KoopmanDualPair kd = alg::kern::koopman_dual(kcov);
    const std::uint64_t ks = alg::kern::koopman_single(kcov);
    for (const bool bare : {true, false}) {
      SimPacket p2 = pkts[i + 1];
      p2.kd_pdu = bare ? alg::KoopmanDualPair{alg::kKoopmanDualMod,
                                              p2.kd_pdu.b}
                       : alg::KoopmanDualPair{kd.a + alg::kKoopmanDualMod,
                                              kd.b};
      p2.ks_pdu = bare ? alg::kKoopmanSingleMod
                       : ks + alg::kKoopmanSingleMod;
      const std::string where = "pair " + std::to_string(i) +
                                (bare ? " (moduli)" : " (splice + modulus)");
      SpliceStats pooled, regrown;
      evaluate_pair(flow.packet, p1, p2, pooled);
      evaluate_pair_unpooled(flow.packet, p1, p2, regrown);
      const SpliceStats ref = reference_pair_stats(flow.packet, p1, p2);
      EXPECT_TRUE(pooled == ref) << where;
      EXPECT_TRUE(regrown == ref) << where << " (regrown)";
      EXPECT_EQ(pooled.missed_koopman_dual, 0u) << where;
      EXPECT_EQ(pooled.missed_koopman_single, 0u) << where;
      EXPECT_GT(pooled.remaining, 0u) << where;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 6);
}

TEST(SpliceSim, ReferenceCorpusStaysFastPath) {
  // The partial-sums evaluator only materialises splices whose first
  // kept cell passes the header checks but isn't pkt1's cell 0 — on
  // the reference corpus that is well under 1% of all splices.
  SpliceRunConfig cfg;
  cfg.flow = paper_flow_config();
  const fsgen::Filesystem fs(fsgen::profile("nsc05"), 0.2);
  const SpliceStats st = run_filesystem(cfg, fs);
  ASSERT_GT(st.total, 0u);
  EXPECT_EQ(st.fast_path + st.slow_path, st.total);
  EXPECT_GT(st.fast_path * 100, st.total * 99);
}

TEST(SpliceSim, TotalMatchesCombinatorics) {
  const net::FlowConfig flow =
      flow_with(alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader);
  const Bytes file(256 * 4, 0x5a);  // 4 equal full-size packets
  const auto pkts = packetize_file(flow, ByteView(file));
  ASSERT_EQ(pkts.size(), 4u);
  SpliceStats st;
  for (std::size_t i = 0; i + 1 < pkts.size(); ++i)
    evaluate_pair(flow.packet, pkts[i], pkts[i + 1], st);
  // Each full-size pair contributes C(12,6)-1 = 923 splices.
  EXPECT_EQ(st.pairs, 3u);
  EXPECT_EQ(st.total, 3u * 923u);
}

TEST(SpliceSim, ConstantFileProducesIdenticalSplices) {
  // All-identical payload cells: most splices reproduce an original
  // packet and are classified benign, exactly the "Identical data"
  // row's point.
  const net::FlowConfig flow =
      flow_with(alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader);
  const Bytes file(256 * 2, 0x00);
  const auto pkts = packetize_file(flow, ByteView(file));
  SpliceStats st;
  evaluate_pair(flow.packet, pkts[0], pkts[1], st);
  EXPECT_GT(st.identical, 0u);
  // An identical splice is never a checksum failure.
  EXPECT_EQ(st.total, st.caught_by_header + st.identical + st.remaining);
}

TEST(SpliceSim, MismatchedLengthsAllCaughtByHeader) {
  // A full packet followed by a shorter runt: the AAL5 length from
  // pkt2's trailer can never match pkt1's IP length, so (almost) all
  // splices die in the header checks.
  const net::FlowConfig flow =
      flow_with(alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader);
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kText, 1, 300);
  const auto pkts = packetize_file(flow, ByteView(file));
  ASSERT_EQ(pkts.size(), 2u);
  ASSERT_NE(pkts[0].total_len, pkts[1].total_len);
  SpliceStats st;
  evaluate_pair(flow.packet, pkts[0], pkts[1], st);
  EXPECT_GT(st.total, 0u);
  EXPECT_EQ(st.caught_by_header, st.total);
}

TEST(SpliceSim, AccountingInvariant) {
  const net::FlowConfig flow =
      flow_with(alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader);
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kExecutable, 3, 20000);
  SpliceRunConfig cfg;
  cfg.flow = flow;
  const SpliceStats st = run_file(cfg, ByteView(file));
  EXPECT_EQ(st.total, st.caught_by_header + st.identical + st.remaining);
  EXPECT_GE(st.remaining, st.missed_transport);
  EXPECT_GE(st.remaining, st.missed_crc);
  EXPECT_EQ(st.pass_changed, st.missed_transport);
  EXPECT_EQ(st.remaining, st.pass_changed + st.fail_changed);
  EXPECT_EQ(st.identical, st.pass_identical + st.fail_identical);
  std::uint64_t by_k_rem = 0, by_k_miss = 0;
  for (std::size_t k = 0; k < kMaxTrackedK; ++k) {
    by_k_rem += st.remaining_by_k[k];
    by_k_miss += st.missed_by_k[k];
  }
  EXPECT_EQ(by_k_rem, st.remaining);
  EXPECT_EQ(by_k_miss, st.missed_transport);
}

TEST(SpliceSim, HeaderPlacementNeverRejectsIdenticalSplices) {
  // With a header checksum, a splice identical to an original packet
  // carries that packet's own checksum — it always verifies (the
  // paper's Table 10, header column: zero false positives).
  const net::FlowConfig flow =
      flow_with(alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader);
  SpliceRunConfig cfg;
  cfg.flow = flow;
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kGmonProfile, 5, 30000);
  const SpliceStats st = run_file(cfg, ByteView(file));
  EXPECT_GT(st.identical, 0u);
  EXPECT_EQ(st.fail_identical, 0u);
}

TEST(SpliceSim, TrailerPlacementRejectsMostIdenticalSplices) {
  // Table 10, trailer column: identical splices carry the *second*
  // packet's trailer checksum computed with a different sequence
  // number, so they are (almost always) rejected.
  const net::FlowConfig flow =
      flow_with(alg::Algorithm::kInternet, net::ChecksumPlacement::kTrailer);
  SpliceRunConfig cfg;
  cfg.flow = flow;
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kGmonProfile, 5, 30000);
  const SpliceStats st = run_file(cfg, ByteView(file));
  EXPECT_GT(st.identical, 0u);
  EXPECT_GT(st.fail_identical, st.pass_identical);
}

TEST(SpliceSim, CompressedRunShrinksMissRate) {
  // Table 7's direction: compressing the data pushes the TCP miss
  // rate down toward the uniform-data expectation.
  SpliceRunConfig cfg;
  cfg.flow = flow_with(alg::Algorithm::kInternet,
                       net::ChecksumPlacement::kHeader);
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kGmonProfile, 9, 60000);

  const SpliceStats raw = run_file(cfg, ByteView(file));
  cfg.compress_files = true;
  const SpliceStats packed = run_file(cfg, ByteView(file));

  ASSERT_GT(raw.remaining, 0u);
  const double raw_rate = static_cast<double>(raw.missed_transport) /
                          static_cast<double>(raw.remaining);
  const double packed_rate =
      packed.remaining == 0
          ? 0.0
          : static_cast<double>(packed.missed_transport) /
                static_cast<double>(packed.remaining);
  // gmon data is pathological for TCP; compressed data should be
  // orders of magnitude better.
  EXPECT_GT(raw_rate, 20 * packed_rate);
}


TEST(SpliceSim, ParallelRunMatchesSequential) {
  // Per-file statistics are additive and files are independent, so the
  // thread count must not change any counter.
  SpliceRunConfig seq;
  seq.flow = flow_with(alg::Algorithm::kInternet,
                       net::ChecksumPlacement::kHeader);
  seq.threads = 1;
  SpliceRunConfig par = seq;
  par.threads = 4;
  const fsgen::Filesystem fs(fsgen::profile("nsc05"), 0.3);
  const SpliceStats a = run_filesystem(seq, fs);
  const SpliceStats b = run_filesystem(par, fs);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.caught_by_header, b.caught_by_header);
  EXPECT_EQ(a.identical, b.identical);
  EXPECT_EQ(a.remaining, b.remaining);
  EXPECT_EQ(a.missed_transport, b.missed_transport);
  EXPECT_EQ(a.missed_crc, b.missed_crc);
  EXPECT_EQ(a.packets, b.packets);
  for (std::size_t k = 0; k < kMaxTrackedK; ++k)
    EXPECT_EQ(a.missed_by_k[k], b.missed_by_k[k]);
}

TEST(SpliceSim, ThreadCountDeterminismIsBitwise) {
  // Stronger than the field-by-field check above: the ENTIRE stats
  // struct — every counter, both k-histograms, the Table 10 matrix —
  // must be bitwise identical between threads=1 and threads=4, across
  // transports and placements.
  const fsgen::Filesystem fs(fsgen::profile("nsc05"), 0.2);
  for (const auto transport :
       {alg::Algorithm::kInternet, alg::Algorithm::kFletcher256}) {
    for (const auto placement : {net::ChecksumPlacement::kHeader,
                                 net::ChecksumPlacement::kTrailer}) {
      SpliceRunConfig seq;
      seq.flow = flow_with(transport, placement);
      seq.threads = 1;
      SpliceRunConfig par = seq;
      par.threads = 4;
      const SpliceStats a = run_filesystem(seq, fs);
      const SpliceStats b = run_filesystem(par, fs);
      EXPECT_TRUE(a == b) << "threads=4 diverged from threads=1";
      // And re-running must be self-consistent too.
      EXPECT_TRUE(b == run_filesystem(par, fs));
    }
  }
}

#ifndef OBS_DISABLE
/// Every splice.* counter in the registry, by name.
std::map<std::string, std::uint64_t> splice_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const obs::MetricValue& m : obs::Registry::global().snapshot().metrics)
    if (m.kind == obs::Kind::kCounter && m.name.rfind("splice.", 0) == 0)
      out[m.name] = m.value;
  return out;
}

/// What each splice.* counter gained since `before`.
std::map<std::string, std::uint64_t> splice_deltas(
    const std::map<std::string, std::uint64_t>& before) {
  std::map<std::string, std::uint64_t> out = splice_counters();
  for (auto& [name, value] : out) {
    const auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }
  return out;
}

TEST(SpliceSim, ChunkFlushKeepsRegistryTotals) {
  // A run flushes its splice telemetry once per chunk of pairs, a
  // direct evaluate_pair call once per pair. The registry must not see
  // the difference: every splice.* counter, splice.dfs_nodes included,
  // grows by exactly the per-pair evaluate_pair deltas over the same
  // packets (plus the files and packets a run also counts).
  const auto expect_equal = [](const std::map<std::string, std::uint64_t>& got,
                               const std::map<std::string, std::uint64_t>& want,
                               const std::string& where) {
    EXPECT_GT(want.at("splice.dfs_nodes"), 0u) << where;
    for (const auto& [name, value] : want)
      EXPECT_EQ(got.at(name), value) << where << ": " << name;
  };
  // The registry deltas of evaluate_pair over each file's adjacent
  // pairs, with its files and packets counted as a run counts them.
  const auto per_pair = [](const net::PacketConfig& cfg,
                           const std::vector<std::vector<SimPacket>>& files) {
    const auto before = splice_counters();
    std::uint64_t packets = 0;
    for (const auto& pkts : files) {
      SpliceStats st;
      for (std::size_t i = 0; i + 1 < pkts.size(); ++i)
        evaluate_pair(cfg, pkts[i], pkts[i + 1], st);
      packets += pkts.size();
    }
    auto want = splice_deltas(before);
    want["splice.files"] += files.size();
    want["splice.packets"] += packets;
    return want;
  };

  // One file of 67 pairs (67 full segments and a runt), not a
  // multiple of the chunk.
  SpliceRunConfig cfg;
  cfg.flow = paper_flow_config();
  const Bytes file =
      fsgen::generate_file(fsgen::FileKind::kGmonProfile, 42, 16 * 1024 + 900);
  const std::vector<SimPacket> pkts = packetize_file(cfg.flow, ByteView(file));
  ASSERT_EQ(pkts.size(), 68u);
  const auto want_file = per_pair(cfg.flow.packet, {pkts});
  auto before = splice_counters();
  run_file(cfg, ByteView(file));
  expect_equal(splice_deltas(before), want_file, "run_file");

  // A small store, streamed sequentially and by four workers.
  const char* path = "tss_chunk_flush.ckcorp";
  fsgen::CorpusBuildParams params;
  params.profile = "nsc05";
  params.scale = 0.05;
  params.flow = cfg.flow;
  std::string err;
  ASSERT_TRUE(fsgen::build_corpus(
      params, fsgen::Filesystem(fsgen::profile("nsc05"), params.scale), path,
      &err))
      << err;
  const auto rd = fsgen::CorpusReader::open(path, &err);
  std::remove(path);  // unlinked but mapped
  ASSERT_NE(rd, nullptr) << err;
  std::vector<std::vector<SimPacket>> files;
  for (std::size_t i = 0; i < rd->file_count(); ++i)
    files.push_back(rd->file_packets(i));
  const auto want_store = per_pair(cfg.flow.packet, files);
  for (const unsigned threads : {1u, 4u}) {
    cfg.threads = threads;
    before = splice_counters();
    run_corpus_range(cfg, *rd, 0, rd->file_count());
    expect_equal(splice_deltas(before), want_store,
                 "run_corpus_range threads=" + std::to_string(threads));
  }
}
#endif

TEST(SpliceSim, InterleavedRunEqualsPerPair) {
  // A run grows up to four pooled pairs of one shape in the lanes of one
  // DFS: within each chunk of 8 pairs, every run of one shape among the
  // pairs that reach the DFS goes in groups of 4, then 2, then 1.
  // evaluate_pair grows one pair at a time. Whole SpliceStats and
  // splice.dfs_nodes of run_file and of run_corpus_range at 1 and 4
  // threads must equal the sum of evaluate_pair over the same pairs.
  const auto expect_runs_match =
      [](const SpliceRunConfig& base,
         const std::vector<std::vector<SimPacket>>& files,
         const std::vector<Bytes>& bytes, const std::string& where) {
        SpliceStats want;
        const std::uint64_t n0 = dfs_nodes_now();
        for (const auto& pkts : files) {
          want.files += 1;
          want.packets += pkts.size();
          for (std::size_t i = 0; i + 1 < pkts.size(); ++i)
            evaluate_pair(base.flow.packet, pkts[i], pkts[i + 1], want);
        }
        const std::uint64_t want_nodes = dfs_nodes_now() - n0;
        EXPECT_GT(want.remaining, 0u) << where;
        const auto expect_run = [&](const SpliceStats& got, std::uint64_t n,
                                    const std::string& how) {
          EXPECT_TRUE(got == want) << where << ", " << how;
#ifndef OBS_DISABLE
          EXPECT_EQ(dfs_nodes_now() - n, want_nodes) << where << ", " << how;
#else
          (void)n;
#endif
        };
        if (!bytes.empty()) {  // the files' bytes, packetised by the run
          const std::uint64_t n = dfs_nodes_now();
          SpliceStats got;
          for (const Bytes& b : bytes) got.merge(run_file(base, ByteView(b)));
          expect_run(got, n, "run_file");
        }
        const char* path = "tss_interleave.ckcorp";
        fsgen::CorpusBuildParams params;
        params.profile = "interleave";
        params.flow = base.flow;
        std::string err;
        ASSERT_TRUE(fsgen::build_corpus(params, files, path, &err)) << err;
        const auto rd = fsgen::CorpusReader::open(path, &err);
        std::remove(path);  // unlinked but mapped
        ASSERT_NE(rd, nullptr) << err;
        for (const unsigned threads : {1u, 4u}) {
          SpliceRunConfig cfg = base;
          cfg.threads = threads;
          const std::uint64_t n = dfs_nodes_now();
          expect_run(run_corpus_range(cfg, *rd, 0, rd->file_count()), n,
                     "run_corpus_range threads=" + std::to_string(threads));
        }
      };
  const auto flow_at = [](net::FlowConfig flow, std::size_t segment) {
    flow.segment_size = segment;
    return flow;
  };
  const auto gmon = [](std::uint64_t seed, std::size_t size) {
    return fsgen::generate_file(fsgen::FileKind::kGmonProfile, seed, size);
  };

  for (const auto& [transport, placement] :
       {std::pair{alg::Algorithm::kInternet, net::ChecksumPlacement::kHeader},
        std::pair{alg::Algorithm::kFletcher255,
                  net::ChecksumPlacement::kTrailer}}) {
    const net::FlowConfig flow = flow_with(transport, placement);
    const std::string name(alg::name(transport));
    for (const std::size_t segment : {64u, 256u, 512u}) {
      // Files of 8 full segments and a short last packet: the first
      // chunk's 7 pairs that reach the DFS run as groups of 4, 2 and 1;
      // the 8th pair (n1 != n2) is caught by the header checks. A longer
      // file fills whole chunks.
      SpliceRunConfig cfg;
      cfg.flow = flow_at(flow, segment);
      std::vector<Bytes> bytes = {gmon(1, 8 * segment + 10),
                                  gmon(2, 21 * segment + 30)};
      std::vector<std::vector<SimPacket>> files;
      for (const Bytes& b : bytes)
        files.push_back(packetize_file(cfg.flow, ByteView(b)));
      expect_runs_match(cfg, files, bytes,
                        name + " segment " + std::to_string(segment));
    }

    // Mixed shapes in one chunk: 5 packets of 256 bytes, 3 of 200 and
    // a 100, 100, 30 tail in one packet run. Its first chunk queues 4
    // pairs of 7 cells, 2 of 6 and 1 of 4, with the pairs between them
    // caught by the header checks.
    SpliceRunConfig cfg;
    cfg.flow = flow;
    std::vector<SimPacket> mixed;
    for (const auto& [segment, size] :
         {std::pair<std::size_t, std::size_t>{256, 5 * 256},
          {200, 3 * 200},
          {100, 2 * 100 + 30}}) {
      const Bytes b = gmon(segment, size);
      for (SimPacket& p : packetize_file(flow_at(flow, segment), ByteView(b)))
        mixed.push_back(std::move(p));
    }
    ASSERT_EQ(mixed.size(), 11u);
    expect_runs_match(cfg, {mixed}, {}, name + " mixed shapes");
  }

  // One shape, mixed lengths: three packets at each of 256-, 250- and
  // 244-byte segments (296-, 290- and 284-byte PDUs, all 7 cells), then
  // three at 238 (6 cells). A length change is caught by the header
  // checks, so the equal-length pairs reach the DFS, and the first
  // chunk's group of four holds two 256-byte and two 250-byte pairs:
  // lanes whose eom_len, and so whose Fletcher B terms, differ.
  for (const alg::Algorithm transport :
       {alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
        alg::Algorithm::kFletcher256}) {
    for (const net::ChecksumPlacement placement :
         {net::ChecksumPlacement::kHeader, net::ChecksumPlacement::kTrailer}) {
      const net::FlowConfig flow = flow_with(transport, placement);
      SpliceRunConfig cfg;
      cfg.flow = flow;
      std::vector<SimPacket> lengths;
      for (const std::size_t segment : {256u, 250u, 244u, 238u}) {
        const Bytes b = gmon(segment, 3 * segment);
        for (SimPacket& p :
             packetize_file(flow_at(flow, segment), ByteView(b)))
          lengths.push_back(std::move(p));
      }
      ASSERT_EQ(lengths.size(), 12u);
      for (std::size_t i = 0; i < lengths.size(); ++i)
        ASSERT_EQ(lengths[i].pdu.num_cells(), i < 9 ? 7u : 6u) << i;
      ASSERT_NE(lengths[0].tp.eom_len, lengths[3].tp.eom_len);
      const bool header = placement == net::ChecksumPlacement::kHeader;
      expect_runs_match(cfg, {lengths}, {},
                        std::string(alg::name(transport)) +
                            (header ? " header" : " trailer") +
                            " mixed lengths");
    }
  }

  // Crafted groups on 8 full segments and a runt, 7 pairs of 7 cells
  // through the DFS in lanes 0-3, then 0-1, then 0.
  const net::FlowConfig trailer = flow_with(alg::Algorithm::kFletcher255,
                                            net::ChecksumPlacement::kTrailer);
  SpliceRunConfig cfg;
  cfg.flow = trailer;
  {
    // Koopman targets out of ring in one lane only. p2's targets of
    // pairs 0 (lane 0 of the first group) and 5 (lane 1 of the second)
    // are the sums of one of their remaining splices plus the modulus,
    // and those of pairs 2 and 4 the sums of such a splice, which the
    // sums then miss. A dead family is copied in its own lane only: the
    // live lanes still count their misses.
    const Bytes file = gmon(3, 8 * 256 + 10);
    std::vector<SimPacket> pkts = packetize_file(trailer, ByteView(file));
    ASSERT_EQ(pkts.size(), 9u);
    for (const std::size_t pair : {0u, 2u, 4u, 5u}) {
      const SimPacket& p1 = pkts[pair];
      SimPacket& p2 = pkts[pair + 1];
      std::optional<atm::SpliceSpec> pick;
      atm::for_each_splice(
          p1.pdu.num_cells(), p2.pdu.num_cells(),
          [&](const atm::SpliceSpec& s) {
            const SpliceOutcome o =
                evaluate_splice_reference(trailer.packet, p1, p2, s);
            if ((s.mask1 & 1u) != 0 && !o.caught_by_header &&
                !o.identical && !pick)
              pick = s;
          });
      ASSERT_TRUE(pick.has_value()) << "pair " << pair;
      const Bytes b =
          atm::materialize_splice(p1.pdu.bytes(), p2.pdu.bytes(), *pick);
      const ByteView kcov(b.data(), b.size() - 4);
      const bool out = pair == 0 || pair == 5;
      const alg::KoopmanDualPair kd = alg::kern::koopman_dual(kcov);
      p2.kd_pdu = {kd.a + (out ? alg::kKoopmanDualMod : 0), kd.b};
      p2.ks_pdu = alg::kern::koopman_single(kcov) +
                  (out ? alg::kKoopmanSingleMod : 0);
    }
    SpliceStats st;
    for (std::size_t i = 0; i + 1 < pkts.size(); ++i) {
      SpliceStats one;
      evaluate_pair(trailer.packet, pkts[i], pkts[i + 1], one);
      const bool missed = i == 2 || i == 4;
      EXPECT_EQ(one.missed_koopman_dual > 0, missed) << "pair " << i;
      EXPECT_EQ(one.missed_koopman_single > 0, missed) << "pair " << i;
    }
    expect_runs_match(cfg, {pkts}, {},
                      "one lane's Koopman targets out of ring");
  }
  {
    // An identity-only hit in lane 2 of the first group: p2 of pair 2
    // ends in p1's cells 3..5 and EOM data, so the splices keeping p1's
    // cells 0..2 (and more) reproduce p1. Under a trailer field no check
    // passes them, and the other lanes' uniform payloads hit nothing.
    Bytes file(8 * 256 + 10);
    util::Rng rng(0x1a4e);
    rng.fill(file);
    std::copy_n(file.begin() + 2 * 256 + 104, 256 - 104,
                file.begin() + 3 * 256 + 104);
    const std::vector<SimPacket> pkts = packetize_file(trailer, ByteView(file));
    for (std::size_t i = 0; i + 1 < pkts.size(); ++i) {
      SpliceStats one;
      evaluate_pair(trailer.packet, pkts[i], pkts[i + 1], one);
      EXPECT_EQ(one.identical > 0, i == 2) << "pair " << i;
      EXPECT_EQ(one.missed_transport + one.missed_crc +
                    one.missed_koopman_dual + one.missed_koopman_single,
                0u)
          << "pair " << i;
    }
    expect_runs_match(cfg, {pkts}, {file}, "identity-only hit in lane 2");
  }
}

TEST(SpliceSim, StatsMergeIsAdditive) {
  SpliceStats a, b;
  a.total = 5;
  a.remaining = 3;
  a.missed_by_k[2] = 1;
  b.total = 7;
  b.remaining = 2;
  b.missed_by_k[2] = 4;
  a.merge(b);
  EXPECT_EQ(a.total, 12u);
  EXPECT_EQ(a.remaining, 5u);
  EXPECT_EQ(a.missed_by_k[2], 5u);
}

TEST(SpliceSim, PctOfRemaining) {
  SpliceStats st;
  st.remaining = 200;
  EXPECT_DOUBLE_EQ(st.pct_of_remaining(1), 0.5);
  SpliceStats empty;
  EXPECT_DOUBLE_EQ(empty.pct_of_remaining(1), 0.0);
}

}  // namespace
}  // namespace cksum::core
