// ATM cell layer, AAL5 reassembler state machine, and loss models —
// including the validation that exhaustive drop patterns fed through
// the reassembler produce exactly the splices the enumerator lists.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "atm/cell.hpp"
#include "atm/demux.hpp"
#include "atm/loss.hpp"
#include "atm/reassembler.hpp"
#include "atm/splice.hpp"
#include "util/rng.hpp"

namespace cksum::atm {
namespace {

using util::ByteView;
using util::Bytes;

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Bytes b(n);
  util::Rng rng(seed);
  rng.fill(b);
  return b;
}

LossStats& stats_sink() {
  static LossStats s;
  return s;
}

TEST(Hec, KnownStructure) {
  // HEC of an all-zero header is the coset value itself.
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  EXPECT_EQ(compute_hec(zeros), 0x55);
}

TEST(CellHeader, WriteParseRoundTrip) {
  CellHeader h;
  h.gfc = 0x2;
  h.vpi = 0xAB;
  h.vci = 0x0CDE;
  h.pti = 0x3;
  h.clp = true;
  std::uint8_t raw[kCellHeaderLen];
  h.write(raw);
  const auto parsed = CellHeader::parse(ByteView(raw, sizeof raw));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->gfc, 0x2);
  EXPECT_EQ(parsed->vpi, 0xAB);
  EXPECT_EQ(parsed->vci, 0x0CDE);
  EXPECT_EQ(parsed->pti, 0x3);
  EXPECT_TRUE(parsed->clp);
  EXPECT_TRUE(parsed->end_of_message());
}

TEST(CellHeader, HecDetectsEverySingleBitHeaderError) {
  CellHeader h;
  h.vpi = 1;
  h.vci = 42;
  std::uint8_t raw[kCellHeaderLen];
  h.write(raw);
  for (std::size_t byte = 0; byte < kCellHeaderLen; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      raw[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_FALSE(CellHeader::parse(ByteView(raw, sizeof raw)).has_value())
          << "byte " << byte << " bit " << bit;
      raw[byte] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
}

TEST(Cell, ByteRoundTrip) {
  Cell c;
  c.header.vci = 77;
  c.header.set_end_of_message(true);
  util::Rng rng(1);
  rng.fill(c.payload);
  const Bytes wire = c.to_bytes();
  ASSERT_EQ(wire.size(), kCellLen);
  const auto back = Cell::from_bytes(ByteView(wire));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header.vci, 77);
  EXPECT_EQ(back->payload, c.payload);
}

TEST(SegmentPdu, MarksOnlyLastCell) {
  const CpcsPdu pdu = CpcsPdu::frame(ByteView(random_bytes(2, 296)));
  const auto cells = segment_pdu(pdu, 0, 32);
  ASSERT_EQ(cells.size(), pdu.num_cells());
  for (std::size_t i = 0; i < cells.size(); ++i)
    EXPECT_EQ(cells[i].header.end_of_message(), i + 1 == cells.size());
}

TEST(Reassembler, LosslessStreamReassemblesEveryPdu) {
  Reassembler r;
  util::Rng rng(3);
  for (int p = 0; p < 20; ++p) {
    const Bytes payload =
        random_bytes(static_cast<std::uint64_t>(p), 40 + rng.below(400));
    const CpcsPdu pdu = CpcsPdu::frame(ByteView(payload));
    const auto cells = segment_pdu(pdu, 0, 32);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto result = r.push(cells[i]);
      if (i + 1 < cells.size()) {
        EXPECT_FALSE(result.has_value());
      } else {
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(result->length_ok);
        EXPECT_TRUE(result->crc_ok);
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                               result->bytes.begin()));
      }
    }
  }
  EXPECT_EQ(r.pending_cells(), 0u);
}

TEST(Reassembler, LostEomFusesPackets) {
  // Drop packet 1's EOM: the reassembler fuses the packets into one
  // candidate PDU, which the length check rejects.
  const CpcsPdu p1 = CpcsPdu::frame(ByteView(random_bytes(4, 296)));
  const CpcsPdu p2 = CpcsPdu::frame(ByteView(random_bytes(5, 296)));
  Reassembler r;
  const auto c1 = segment_pdu(p1, 0, 32);
  const auto c2 = segment_pdu(p2, 0, 32);
  for (std::size_t i = 0; i + 1 < c1.size(); ++i) EXPECT_FALSE(r.push(c1[i]));
  std::optional<Reassembler::Pdu> done;
  for (const auto& c : c2) {
    ASSERT_FALSE(done.has_value());
    done = r.push(c);
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->length_ok);  // 13 cells vs 296-byte length field
}

TEST(Reassembler, ExhaustiveDropPatternsMatchSpliceEnumerator) {
  // THE state-machine validation: for a two-packet stream, every drop
  // pattern that yields a length-consistent fused PDU containing >= 1
  // packet-1 cell corresponds to exactly one enumerated SpliceSpec,
  // and vice versa.
  const CpcsPdu p1 = CpcsPdu::frame(ByteView(random_bytes(6, 150)));  // 4 cells
  const CpcsPdu p2 = CpcsPdu::frame(ByteView(random_bytes(7, 150)));
  ASSERT_EQ(p1.num_cells(), 4u);
  const auto c1 = segment_pdu(p1, 0, 32);
  const auto c2 = segment_pdu(p2, 0, 32);

  // All splices the enumerator lists, keyed by the fused PDU's bytes.
  std::set<Bytes> enumerated;
  for_each_splice(4, 4, [&](const SpliceSpec& s) {
    enumerated.insert(materialize_splice(p1.bytes(), p2.bytes(), s));
  });
  EXPECT_EQ(enumerated.size(), splice_count(4, 4));

  // All drop patterns over the 8 cells.
  std::set<Bytes> from_state_machine;
  for (unsigned pattern = 0; pattern < (1u << 8); ++pattern) {
    Reassembler r;
    std::optional<Reassembler::Pdu> first_done;
    for (unsigned i = 0; i < 8; ++i) {
      if (pattern & (1u << i)) continue;  // dropped
      const Cell& cell = i < 4 ? c1[i] : c2[i - 4];
      auto done = r.push(cell);
      if (done && !first_done) first_done = std::move(done);
    }
    if (!first_done || !first_done->length_ok) continue;
    // A fused PDU (not pure packet 2, not intact packet 1).
    const Bytes& bytes = first_done->bytes;
    const bool is_p1 = bytes.size() == p1.bytes().size() &&
                       std::equal(bytes.begin(), bytes.end(),
                                  p1.bytes().begin());
    const bool uses_p1_prefix =
        (pattern & 0x0f) != 0x0f;  // at least one p1 cell survived
    const bool ends_with_p2_eom = (pattern & 0x80) == 0;
    if (is_p1 || !uses_p1_prefix || !ends_with_p2_eom) continue;
    from_state_machine.insert(bytes);
  }

  // Distinct-content check: every state-machine splice is enumerated.
  for (const Bytes& b : from_state_machine)
    EXPECT_TRUE(enumerated.count(b) > 0) << "state machine produced a "
                                            "splice the enumerator missed";
  // And the enumerator produces nothing the state machine can't.
  for (const Bytes& b : enumerated)
    EXPECT_TRUE(from_state_machine.count(b) > 0)
        << "enumerator lists an unreachable splice";
}

TEST(Reassembler, OversizeDiscard) {
  Reassembler r;
  Cell filler;
  filler.header.set_end_of_message(false);
  // Push far more than the max PDU size without an EOM.
  const std::size_t cells_needed = (65535 + 8) / kCellPayload + 10;
  for (std::size_t i = 0; i < cells_needed; ++i) EXPECT_FALSE(r.push(filler));
  EXPECT_GE(r.oversize_discards(), 1u);
}

TEST(LossModel, ZeroRateIsLossless) {
  const CpcsPdu pdu = CpcsPdu::frame(ByteView(random_bytes(8, 500)));
  const auto cells = segment_pdu(pdu, 0, 32);
  LossConfig cfg;
  cfg.cell_loss_rate = 0.0;
  util::Rng rng(9);
  LossStats stats;
  const auto out = transmit(cells, cfg, rng, &stats);
  EXPECT_EQ(out.size(), cells.size());
  EXPECT_EQ(stats.cells_lost, 0u);
}

TEST(LossModel, RateApproximatelyHonoured) {
  std::vector<Cell> stream(20000);
  for (std::size_t i = 0; i < stream.size(); ++i)
    stream[i].header.set_end_of_message(i % 7 == 6);
  LossConfig cfg;
  cfg.cell_loss_rate = 0.05;
  util::Rng rng(10);
  LossStats stats;
  (void)transmit(stream, cfg, rng, &stats);
  EXPECT_NEAR(static_cast<double>(stats.cells_lost) / 20000.0, 0.05, 0.01);
}

TEST(LossModel, BurstsAreLongerThanIndependentLosses) {
  std::vector<Cell> stream(50000);
  for (std::size_t i = 0; i < stream.size(); ++i)
    stream[i].header.set_end_of_message(i % 7 == 6);
  LossConfig indep;
  indep.cell_loss_rate = 0.02;
  LossConfig bursty = indep;
  bursty.burst_continue = 0.8;
  util::Rng r1(11), r2(11);
  LossStats s1, s2;
  (void)transmit(stream, indep, r1, &s1);
  (void)transmit(stream, bursty, r2, &s2);
  EXPECT_GT(s2.cells_lost, 2 * s1.cells_lost);
}

TEST(LossModel, PpdDropsTailIncludingEom) {
  // One PDU of 7 cells; force a loss on cell 2 by rate ~1 on exactly
  // one trial... instead run many trials and check the invariant: in
  // any PDU with losses under PPD, no cell after the first loss
  // survives.
  const CpcsPdu pdu = CpcsPdu::frame(ByteView(random_bytes(12, 296)));
  std::vector<Cell> stream;
  for (int p = 0; p < 50; ++p) {
    const auto cells = segment_pdu(pdu, 0, 32);
    stream.insert(stream.end(), cells.begin(), cells.end());
  }
  LossConfig cfg;
  cfg.cell_loss_rate = 0.05;
  cfg.policy = DiscardPolicy::kPartialPacketDiscard;
  util::Rng rng(13);
  const auto out = transmit(stream, cfg, rng, &stats_sink());
  // Under PPD every surviving run within a PDU is a prefix, and an EOM
  // only survives when its whole PDU did. Orphaned prefixes fuse with
  // the next intact PDU, making a candidate with MORE cells than its
  // length field allows — "a detectably incorrect packet length" (§7).
  // Invariant: a completed PDU that passes the length check is an
  // intact original; no checksum-exercising splice can form.
  Reassembler r;
  std::size_t delivered = 0, length_rejected = 0;
  for (const auto& c : out) {
    const auto done = r.push(c);
    if (!done) continue;
    if (done->length_ok) {
      ++delivered;
      EXPECT_TRUE(done->crc_ok);
      EXPECT_TRUE(std::equal(pdu.payload().begin(), pdu.payload().end(),
                             done->bytes.begin()));
    } else {
      ++length_rejected;
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(length_rejected, 0u);  // the fusions PPD renders harmless
}

TEST(LossModel, EpdNeverDeliversPartialPdus) {
  const CpcsPdu pdu = CpcsPdu::frame(ByteView(random_bytes(14, 296)));
  std::vector<Cell> stream;
  for (int p = 0; p < 200; ++p) {
    const auto cells = segment_pdu(pdu, 0, 32);
    stream.insert(stream.end(), cells.begin(), cells.end());
  }
  LossConfig cfg;
  cfg.cell_loss_rate = 0.05;
  cfg.policy = DiscardPolicy::kEarlyPacketDiscard;
  util::Rng rng(15);
  const auto out = transmit(stream, cfg, rng, &stats_sink());
  EXPECT_EQ(out.size() % pdu.num_cells(), 0u);
  Reassembler r;
  std::size_t delivered = 0;
  for (const auto& c : out) {
    const auto done = r.push(c);
    if (done) {
      ++delivered;
      EXPECT_TRUE(done->length_ok);
      EXPECT_TRUE(done->crc_ok);
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, 200u);  // some whole PDUs were discarded
}


TEST(VcDemux, InterleavedChannelsReassembleIndependently) {
  // Three VCs, cells round-robin interleaved on the link: each
  // channel's PDUs must come out intact, untouched by the others.
  VcDemux demux;
  struct Stream {
    std::uint16_t vci;
    Bytes payload;
    std::vector<Cell> cells;
  };
  std::vector<Stream> streams;
  for (std::uint16_t v = 0; v < 3; ++v) {
    Stream s;
    s.vci = static_cast<std::uint16_t>(32 + v);
    s.payload = random_bytes(40 + v, 200 + v * 96);
    s.cells = segment_pdu(CpcsPdu::frame(ByteView(s.payload)), 0, s.vci);
    streams.push_back(std::move(s));
  }
  std::size_t delivered = 0;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& s : streams) {
      if (i >= s.cells.size()) continue;
      any = true;
      const auto out = demux.push(s.cells[i]);
      if (out) {
        ++delivered;
        EXPECT_EQ(out->vci, s.vci);
        EXPECT_TRUE(out->pdu.length_ok);
        EXPECT_TRUE(out->pdu.crc_ok);
        EXPECT_TRUE(std::equal(s.payload.begin(), s.payload.end(),
                               out->pdu.bytes.begin()));
      }
    }
    if (!any) break;
  }
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(demux.channel_count(), 3u);
  EXPECT_EQ(demux.pending_cells(), 0u);
}

TEST(VcDemux, CrossVcLossDoesNotContaminate) {
  // Dropping the EOM on one channel must not corrupt another channel
  // interleaved with it — the failure stays within its VC.
  VcDemux demux;
  const Bytes pa = random_bytes(50, 296);
  const Bytes pb = random_bytes(51, 296);
  const auto ca = segment_pdu(CpcsPdu::frame(ByteView(pa)), 0, 100);
  const auto cb = segment_pdu(CpcsPdu::frame(ByteView(pb)), 0, 200);
  std::size_t b_delivered = 0;
  for (std::size_t i = 0; i < 7; ++i) {
    if (i + 1 < 7) (void)demux.push(ca[i]);  // drop channel A's EOM
    const auto out = demux.push(cb[i]);
    if (out) {
      ++b_delivered;
      EXPECT_EQ(out->vci, 200);
      EXPECT_TRUE(out->pdu.crc_ok);
    }
  }
  EXPECT_EQ(b_delivered, 1u);
  EXPECT_GT(demux.pending_cells(), 0u);  // channel A stuck mid-PDU
  demux.reset_channel(0, 100);
  EXPECT_EQ(demux.pending_cells(), 0u);
}

}  // namespace
}  // namespace cksum::atm
