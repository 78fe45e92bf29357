// AAL5 framing, the splice enumerator, and the hardened receiver: the
// demux budget/cap degradation and the safe Pdu::payload() accessor.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "atm/aal5.hpp"
#include "atm/cell.hpp"
#include "atm/demux.hpp"
#include "atm/splice.hpp"
#include "util/bytes.hpp"
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

TEST(Aal5, FramingShape) {
  for (std::size_t len : {1u, 39u, 40u, 41u, 48u, 88u, 296u, 1000u}) {
    const Bytes payload = random_bytes(len, len);
    const CpcsPdu pdu = CpcsPdu::frame(ByteView(payload));
    EXPECT_EQ(pdu.bytes().size() % kCellPayload, 0u);
    EXPECT_GE(pdu.bytes().size(), len + kAal5TrailerLen);
    EXPECT_LT(pdu.bytes().size(), len + kAal5TrailerLen + kCellPayload);
    EXPECT_EQ(pdu.payload_len(), len);
    EXPECT_EQ(pdu.trailer().length, len);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           pdu.bytes().begin()));
    EXPECT_TRUE(length_consistent(pdu.num_cells(), len));
  }
}

TEST(Aal5, PaddingIsZero) {
  const Bytes payload = random_bytes(1, 10);
  const CpcsPdu pdu = CpcsPdu::frame(ByteView(payload));
  const auto bytes = pdu.bytes();
  for (std::size_t i = 10; i + kAal5TrailerLen < bytes.size(); ++i)
    EXPECT_EQ(bytes[i], 0) << i;
}

TEST(Aal5, CrcChecks) {
  const Bytes payload = random_bytes(2, 296);
  const CpcsPdu pdu = CpcsPdu::frame(ByteView(payload));
  EXPECT_TRUE(crc_ok(pdu.bytes()));
  EXPECT_TRUE(residue_ok(pdu.bytes()));

  // Any corruption breaks both checks, and they always agree.
  util::Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    Bytes corrupt(pdu.bytes().begin(), pdu.bytes().end());
    corrupt[rng.below(corrupt.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_EQ(crc_ok(ByteView(corrupt)), residue_ok(ByteView(corrupt)));
    EXPECT_FALSE(crc_ok(ByteView(corrupt)));
  }
}

TEST(Aal5, CellAccess) {
  const Bytes payload = random_bytes(4, 100);
  const CpcsPdu pdu = CpcsPdu::frame(ByteView(payload));
  ASSERT_EQ(pdu.num_cells(), 3u);  // 108 bytes -> 144 = 3 cells
  EXPECT_EQ(pdu.cell(0).size(), kCellPayload);
  EXPECT_TRUE(std::equal(pdu.cell(0).begin(), pdu.cell(0).end(),
                         payload.begin()));
}

TEST(Aal5, LengthConsistency) {
  EXPECT_TRUE(length_consistent(7, 296));
  EXPECT_FALSE(length_consistent(6, 296));
  EXPECT_FALSE(length_consistent(8, 296));
  EXPECT_FALSE(length_consistent(0, 0));
  EXPECT_FALSE(length_consistent(1, 0));
  EXPECT_TRUE(length_consistent(1, 40));   // 48 exactly
  EXPECT_FALSE(length_consistent(1, 41));  // needs 2 cells
  EXPECT_TRUE(length_consistent(2, 41));
}

TEST(Aal5, FromBytesValidation) {
  const CpcsPdu pdu = CpcsPdu::frame(ByteView(random_bytes(5, 64)));
  Bytes raw(pdu.bytes().begin(), pdu.bytes().end());
  EXPECT_TRUE(CpcsPdu::from_bytes(raw).has_value());
  EXPECT_FALSE(CpcsPdu::from_bytes(Bytes(47, 0)).has_value());
  EXPECT_FALSE(CpcsPdu::from_bytes(Bytes{}).has_value());
}

TEST(SpliceCount, MatchesPaperCombinatorics) {
  // Two 7-cell packets: C(12,6) - 1 = 923 splices.
  EXPECT_EQ(splice_count(7, 7), 923u);
  // Degenerate shapes.
  EXPECT_EQ(splice_count(1, 7), 0u);  // pkt1 has no droppable cells
  EXPECT_EQ(splice_count(2, 1), 0u);  // splice must be exactly 1 cell = pkt2
  EXPECT_EQ(splice_count(2, 2), 1u);  // keep p1c0 + p2 EOM
}

TEST(SpliceCount, CellCapBoundary) {
  // 32 cells (31 non-EOM) is the widest shape the 32-bit masks can
  // enumerate; 33 used to shift by 32 (UB) and silently truncate.
  EXPECT_EQ(splice_count(32, 2), 31u);
  std::uint64_t count = 0;
  for_each_splice(32, 2, [&](const SpliceSpec&) { ++count; });
  EXPECT_EQ(count, 31u);

  EXPECT_THROW(splice_count(33, 7), std::length_error);
  EXPECT_THROW(splice_count(7, 33), std::length_error);
  EXPECT_THROW(for_each_splice(33, 7, [](const SpliceSpec&) {}),
               std::length_error);
  EXPECT_THROW(for_each_splice(7, 33, [](const SpliceSpec&) {}),
               std::length_error);
  EXPECT_THROW(splice_count_first_cell(33, 7, 0), std::length_error);
}

TEST(SpliceCount, FirstCellPartitionsSpliceSpace) {
  // Summing the per-first-cell counts over i recovers splice_count,
  // and each count matches direct enumeration (first kept cell of
  // pkt1 = lowest set bit of mask1).
  for (const auto& [n1, n2] : {std::pair<std::size_t, std::size_t>{7, 7},
                              {7, 2},
                              {2, 7},
                              {3, 3},
                              {10, 4},
                              {4, 10}}) {
    std::vector<std::uint64_t> by_first(n1, 0);
    for_each_splice(n1, n2, [&](const SpliceSpec& s) {
      ++by_first[static_cast<std::size_t>(std::countr_zero(s.mask1))];
    });
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n1; ++i) {
      EXPECT_EQ(splice_count_first_cell(n1, n2, i), by_first[i])
          << "n1=" << n1 << " n2=" << n2 << " i=" << i;
      sum += splice_count_first_cell(n1, n2, i);
    }
    EXPECT_EQ(sum, splice_count(n1, n2));
  }
  // The paper's 7/7 split, explicitly.
  EXPECT_EQ(splice_count_first_cell(7, 7, 0), 462u);
}

class SpliceEnum
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SpliceEnum, EnumerationMatchesCountAndInvariants) {
  const auto [n1, n2] = GetParam();
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::uint64_t count = 0;
  for_each_splice(n1, n2, [&](const SpliceSpec& s) {
    ++count;
    EXPECT_GE(s.k1, 1u);
    EXPECT_EQ(s.k1 + s.k2, n2 - 1);
    EXPECT_EQ(static_cast<unsigned>(std::popcount(s.mask1)), s.k1);
    EXPECT_EQ(static_cast<unsigned>(std::popcount(s.mask2)), s.k2);
    EXPECT_EQ(s.mask1 >> (n1 - 1), 0u);
    EXPECT_EQ(s.mask2 >> (n2 - 1), 0u);
    EXPECT_TRUE(seen.emplace(s.mask1, s.mask2).second) << "duplicate splice";
  });
  EXPECT_EQ(count, splice_count(n1, n2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpliceEnum,
    ::testing::Values(std::pair<std::size_t, std::size_t>{7, 7},
                      std::pair<std::size_t, std::size_t>{7, 2},
                      std::pair<std::size_t, std::size_t>{2, 7},
                      std::pair<std::size_t, std::size_t>{3, 3},
                      std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{10, 4}));

TEST(Splice, MaterializeStructure) {
  const CpcsPdu p1 = CpcsPdu::frame(ByteView(random_bytes(10, 296)));
  const CpcsPdu p2 = CpcsPdu::frame(ByteView(random_bytes(11, 296)));
  ASSERT_EQ(p1.num_cells(), 7u);

  SpliceSpec s;
  s.mask1 = 0b000101;  // p1 cells 0 and 2
  s.mask2 = 0b110010;  // p2 cells 1, 4, 5
  s.k1 = 2;
  s.k2 = 3;
  const Bytes out = materialize_splice(p1.bytes(), p2.bytes(), s);
  ASSERT_EQ(out.size(), 6 * kCellPayload);
  auto cell_at = [&](std::size_t i) {
    return ByteView(out).subspan(i * kCellPayload, kCellPayload);
  };
  auto expect_cell = [&](std::size_t pos, const CpcsPdu& src, std::size_t idx) {
    EXPECT_TRUE(std::equal(cell_at(pos).begin(), cell_at(pos).end(),
                           src.cell(idx).begin()))
        << "pos=" << pos;
  };
  expect_cell(0, p1, 0);
  expect_cell(1, p1, 2);
  expect_cell(2, p2, 1);
  expect_cell(3, p2, 4);
  expect_cell(4, p2, 5);
  expect_cell(5, p2, 6);  // EOM always appended
}

TEST(Splice, IdentitySpliceReproducesPacket2Tail) {
  // Keeping nothing from p2 except what replaces p1 entirely:
  // mask2 = all of p2's data cells with k1 = 1 keeps ordering sane.
  const CpcsPdu p1 = CpcsPdu::frame(ByteView(random_bytes(12, 296)));
  const CpcsPdu p2 = CpcsPdu::frame(ByteView(random_bytes(13, 296)));
  SpliceSpec s;
  s.mask1 = 0b000001;
  s.mask2 = 0b011111;  // p2 cells 0..4
  s.k1 = 1;
  s.k2 = 5;
  const Bytes out = materialize_splice(p1.bytes(), p2.bytes(), s);
  // Positions 1..6 equal p2 cells 0..5... position 6 is the EOM (p2
  // cell 6).
  EXPECT_TRUE(std::equal(out.begin() + 48, out.end() - 48,
                         p2.bytes().begin()));
}

TEST(VcDemux, PendingBudgetShedsNonEomCells) {
  atm::DemuxLimits limits;
  limits.max_pending_cells = 10;
  atm::VcDemux demux(limits);
  // 40 EOM-less cells on one VC: only the budget's worth may buffer.
  Cell cell;
  cell.header.vci = 32;
  util::Rng rng(21);
  for (int i = 0; i < 40; ++i) {
    rng.fill(cell.payload);
    (void)demux.push(cell);
    EXPECT_LE(demux.pending_cells(), limits.max_pending_cells);
  }
  EXPECT_EQ(demux.pending_cells(), limits.max_pending_cells);
  EXPECT_EQ(demux.stats().budget_drops, 30u);
  // An EOM still gets through and drains the channel.
  cell.header.set_end_of_message(true);
  const auto out = demux.push(cell);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(demux.pending_cells(), 0u);
}

TEST(VcDemux, ChannelCapEvictsIdlest) {
  atm::DemuxLimits limits;
  limits.max_channels = 4;
  atm::VcDemux demux(limits);
  Cell cell;
  for (std::uint16_t v = 0; v < 6; ++v) {
    cell.header.vci = static_cast<std::uint16_t>(100 + v);
    (void)demux.push(cell);
    EXPECT_LE(demux.channel_count(), limits.max_channels);
  }
  EXPECT_EQ(demux.stats().evictions, 2u);
  // The evicted channels were the least recently used (vci 100, 101):
  // their buffered cell is gone, so the global pending count reflects
  // only the four live channels.
  EXPECT_EQ(demux.pending_cells(), 4u);
}

TEST(VcDemux, PendingCountStaysConsistent) {
  // The O(1) pending counter must equal the true sum across channels
  // under completion, oversize discard, budget shed and eviction.
  atm::DemuxLimits limits;
  limits.max_channels = 3;
  limits.max_pending_cells = 50;
  atm::VcDemux demux(limits);
  util::Rng rng(23);
  std::uint64_t deliveries = 0;
  for (int i = 0; i < 20000; ++i) {
    Cell cell;
    // Mostly three hot VCs (so pending accumulates up to the budget),
    // with a rare visit from a cold one to force channel eviction.
    cell.header.vci = static_cast<std::uint16_t>(
        rng.chance(0.01) ? 35 + rng.below(3) : 32 + rng.below(3));
    rng.fill(cell.payload);
    cell.header.set_end_of_message(rng.chance(0.02));
    if (demux.push(cell)) ++deliveries;
    ASSERT_LE(demux.pending_cells(), limits.max_pending_cells);
    if (rng.chance(0.001))
      demux.reset_channel(0, static_cast<std::uint16_t>(32 + rng.below(6)));
  }
  EXPECT_GT(deliveries, 0u);
  EXPECT_GT(demux.stats().budget_drops, 0u);
  EXPECT_GT(demux.stats().evictions, 0u);
}

TEST(ReassemblerPdu, PayloadClampsHostileLengths) {
  // A trailer claiming more bytes than the buffer holds must not read
  // out of range, and a failed length check yields an empty payload.
  atm::Reassembler r;
  Cell cell;
  util::Rng rng(29);
  rng.fill(cell.payload);
  // Claim length 0xFFFF in a 1-cell PDU.
  util::store_be16(cell.payload.data() + atm::kCellPayload - 6, 0xFFFF);
  cell.header.set_end_of_message(true);
  const auto done = r.push(cell);
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->length_ok);
  EXPECT_TRUE(done->payload().empty());
}

TEST(ReassemblerPdu, PayloadIntactForValidPdus) {
  Bytes payload(777);
  util::Rng rng(31);
  rng.fill(payload);
  atm::Reassembler r;
  std::optional<atm::Reassembler::Pdu> done;
  for (const Cell& c :
       atm::segment_pdu(atm::CpcsPdu::frame(ByteView(payload)), 0, 32))
    done = r.push(c);
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->length_ok);
  EXPECT_TRUE(done->crc_ok);
  const ByteView got = done->payload();
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()));
}

}  // namespace
}  // namespace cksum::atm
