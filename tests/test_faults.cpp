// The fault-injection channel and the hardened receiver stack:
// deterministic replay, per-class counters, demux budget/cap
// degradation, the safe Pdu::payload() accessor, and the soak
// harness's own invariants.
#include <gtest/gtest.h>

#include <set>

#include "atm/cell.hpp"
#include "atm/demux.hpp"
#include "faults/channel.hpp"
#include "faults/soak.hpp"
#include "util/rng.hpp"

namespace cksum {
namespace {

using atm::Cell;
using util::ByteView;
using util::Bytes;

std::vector<Cell> make_stream(std::uint64_t seed, int pdus,
                              std::size_t payload_len,
                              std::uint16_t vci = 32) {
  util::Rng rng(seed);
  std::vector<Cell> stream;
  for (int p = 0; p < pdus; ++p) {
    Bytes payload(payload_len);
    rng.fill(payload);
    const auto cells =
        atm::segment_pdu(atm::CpcsPdu::frame(ByteView(payload)), 0, vci);
    stream.insert(stream.end(), cells.begin(), cells.end());
  }
  return stream;
}

bool same_cell(const Cell& a, const Cell& b) {
  return a.to_bytes() == b.to_bytes();
}

TEST(FaultyChannel, NoFaultsIsIdentity) {
  const auto stream = make_stream(1, 5, 296);
  faults::FaultyChannel ch({}, 42);
  const auto out = ch.apply(stream);
  ASSERT_EQ(out.size(), stream.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_TRUE(same_cell(out[i], stream[i]));
  EXPECT_EQ(ch.stats().total_faults(), 0u);
  EXPECT_EQ(ch.stats().cells_in, stream.size());
  EXPECT_EQ(ch.stats().cells_out, stream.size());
}

TEST(FaultyChannel, DeterministicUnderSameSeed) {
  const auto stream = make_stream(2, 20, 500);
  faults::FaultPlan plan;
  plan.payload_burst_rate = 0.1;
  plan.hec_corrupt_rate = 0.05;
  plan.duplicate_rate = 0.05;
  plan.reorder_rate = 0.1;
  plan.eom_flip_rate = 0.05;
  plan.misdeliver_rate = 0.05;
  plan.truncate_rate = 0.2;
  faults::FaultyChannel a(plan, 7), b(plan, 7), c(plan, 8);
  const auto out_a = a.apply(stream);
  const auto out_b = b.apply(stream);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i)
    EXPECT_TRUE(same_cell(out_a[i], out_b[i]));
  // A different seed must (overwhelmingly) fault differently.
  const auto out_c = c.apply(stream);
  bool differs = out_a.size() != out_c.size();
  for (std::size_t i = 0; !differs && i < out_a.size(); ++i)
    differs = !same_cell(out_a[i], out_c[i]);
  EXPECT_TRUE(differs);
}

TEST(FaultyChannel, CountersMatchStreamSizes) {
  const auto stream = make_stream(3, 30, 400);
  faults::FaultPlan plan;
  plan.duplicate_rate = 0.2;
  plan.hec_corrupt_rate = 0.2;  // single-bit flips: always HEC-dropped
  plan.hec_flip_bits = 1;
  faults::FaultyChannel ch(plan, 11);
  const auto out = ch.apply(stream);
  const auto& st = ch.stats();
  // A single-bit header flip can never re-validate (CRC-8 detects all
  // single-bit errors), so every corruption is a drop.
  EXPECT_EQ(st.hec_dropped, st.hec_corruptions);
  EXPECT_EQ(st.hec_miscorrected, 0u);
  EXPECT_EQ(out.size(), stream.size() + st.duplicates - st.hec_dropped);
  EXPECT_EQ(st.cells_out, out.size());
}

TEST(FaultyChannel, ReorderingIsBoundedAndLossless) {
  const auto stream = make_stream(4, 40, 300);
  faults::FaultPlan plan;
  plan.reorder_rate = 0.2;
  plan.reorder_window = 5;
  faults::FaultyChannel ch(plan, 13);
  const auto out = ch.apply(stream);
  // Nothing lost or duplicated — only displaced.
  ASSERT_EQ(out.size(), stream.size());
  EXPECT_GT(ch.stats().reorders, 0u);
  // Every input cell appears in the output within the displacement
  // bound. Payloads carry a per-cell position marker for tracking.
  std::vector<Cell> marked = stream;
  for (std::size_t i = 0; i < marked.size(); ++i) {
    marked[i].payload[0] = static_cast<std::uint8_t>(i);
    marked[i].payload[1] = static_cast<std::uint8_t>(i >> 8);
  }
  faults::FaultyChannel ch2(plan, 13);
  const auto out2 = ch2.apply(marked);
  ASSERT_EQ(out2.size(), marked.size());
  for (std::size_t pos = 0; pos < out2.size(); ++pos) {
    const std::size_t orig = out2[pos].payload[0] |
                             (std::size_t{out2[pos].payload[1]} << 8);
    // A held cell slips past at most window + (window in-flight
    // releases); everything else keeps order.
    EXPECT_LE(pos, orig + 2 * plan.reorder_window + 1)
        << "cell " << orig << " emitted at " << pos;
    EXPECT_LE(orig, pos + 2 * plan.reorder_window + 1);
  }
}

TEST(FaultyChannel, TruncationCutsTheTail) {
  const auto stream = make_stream(5, 10, 296);
  faults::FaultPlan plan;
  plan.truncate_rate = 1.0;
  faults::FaultyChannel ch(plan, 17);
  const auto out = ch.apply(stream);
  EXPECT_LT(out.size(), stream.size());
  EXPECT_EQ(ch.stats().truncations, 1u);
  EXPECT_EQ(ch.stats().cells_truncated, stream.size() - out.size());
  for (std::size_t i = 0; i < out.size(); ++i)  // prefix preserved
    EXPECT_TRUE(same_cell(out[i], stream[i]));
}

/// Composed fault classes on the same cell stream: truncation+reorder
/// and corruption+duplication active together must stay deterministic
/// under a fixed seed, and the per-class counters must account for
/// every injected fault.
TEST(FaultyChannel, ComposedClassesDeterministicWithFullAccounting) {
  const auto stream = make_stream(21, 30, 400);
  faults::FaultPlan plan;
  plan.truncate_rate = 1.0;  // per-stream: guarantee the cut fires
  plan.reorder_rate = 0.3;
  plan.reorder_window = 4;
  plan.payload_burst_rate = 0.3;
  plan.duplicate_rate = 0.3;
  faults::FaultyChannel a(plan, 23), b(plan, 23);
  const auto out_a = a.apply(stream);
  const auto out_b = b.apply(stream);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i)
    EXPECT_TRUE(same_cell(out_a[i], out_b[i]));

  const auto& st = a.stats();
  // All four classes actually fired in composition.
  EXPECT_GT(st.truncations, 0u);
  EXPECT_GT(st.reorders, 0u);
  EXPECT_GT(st.payload_bursts, 0u);
  EXPECT_GT(st.duplicates, 0u);
  // Every injected fault is one of the counted classes, and the
  // stream-size arithmetic closes: in + duplicated - truncated-away
  // cells = out (no other class here changes the cell count).
  EXPECT_EQ(st.total_faults(), st.truncations + st.reorders +
                                   st.payload_bursts + st.duplicates);
  EXPECT_EQ(out_a.size(), stream.size() + st.duplicates - st.cells_truncated);
  EXPECT_EQ(st.cells_out, out_a.size());
}

TEST(FaultyChannel, MisdeliveryMovesCellsBetweenActiveVcs) {
  auto stream = make_stream(6, 10, 296, 32);
  const auto other = make_stream(7, 10, 296, 33);
  stream.insert(stream.end(), other.begin(), other.end());
  faults::FaultPlan plan;
  plan.misdeliver_rate = 0.3;
  faults::FaultyChannel ch(plan, 19);
  const auto out = ch.apply(stream);
  EXPECT_GT(ch.stats().misdeliveries, 0u);
  for (const Cell& c : out)
    EXPECT_TRUE(c.header.vci == 32 || c.header.vci == 33);
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

TEST(Soak, ScenarioIsDeterministic) {
  faults::SoakConfig cfg;
  cfg.seed = 0xDEAD;
  const auto a = faults::run_scenario(cfg, 3);
  const auto b = faults::run_scenario(cfg, 3);
  EXPECT_EQ(a.faults.cells_in, b.faults.cells_in);
  EXPECT_EQ(a.faults.total_faults(), b.faults.total_faults());
  EXPECT_EQ(a.pdus_delivered, b.pdus_delivered);
  EXPECT_EQ(a.pdus_ok, b.pdus_ok);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(Soak, ShortRunHoldsInvariants) {
  faults::SoakConfig cfg;
  cfg.seed = 0xBEEF;
  cfg.target_faults = 5000;
  const auto res = faults::run_soak(cfg);
  EXPECT_TRUE(res.ok()) << res.totals.violation_detail << " — "
                        << res.reproducer;
  EXPECT_GE(res.totals.faults.total_faults(), cfg.target_faults);
  // Every fault class must have been exercised.
  EXPECT_GT(res.totals.faults.payload_bursts, 0u);
  EXPECT_GT(res.totals.faults.hec_corruptions, 0u);
  EXPECT_GT(res.totals.faults.duplicates, 0u);
  EXPECT_GT(res.totals.faults.reorders, 0u);
  EXPECT_GT(res.totals.faults.eom_flips, 0u);
  EXPECT_GT(res.totals.faults.misdeliveries, 0u);
  EXPECT_GT(res.totals.faults.truncations, 0u);
  EXPECT_GT(res.totals.pdus_ok, 0u);
}

TEST(Soak, ReproducerLineRoundTrips) {
  faults::SoakConfig cfg;
  cfg.seed = 0xAB;
  EXPECT_EQ(faults::reproducer_line(cfg, 12),
            "faultlab replay --seed 0xab --scenario 12");
  cfg.max_channels = 8;
  cfg.max_pending_cells = 64;
  EXPECT_EQ(faults::reproducer_line(cfg, 12),
            "faultlab replay --seed 0xab --scenario 12 --channels 8 "
            "--budget 64");
}

}  // namespace
}  // namespace cksum
