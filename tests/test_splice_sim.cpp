// The splice simulator. The crown-jewel test cross-validates the
// partial-sums fast path against the materialise-and-verify reference
// oracle for every splice of real generator data, across transports,
// placements, and ablations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/pdu_model.hpp"
#include "core/splice_sim.hpp"
#include "fsgen/generator.hpp"
#include "net/packet.hpp"
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
