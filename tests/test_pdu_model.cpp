// Per-cell partial-sum model: each precomputed piece must reconstruct
// the corresponding whole-message quantity computed directly.
#include <gtest/gtest.h>

#include "checksum/kernels/kernel.hpp"
#include "core/pdu_model.hpp"
#include "fsgen/generator.hpp"
#include "util/rng.hpp"

namespace cksum::core {
namespace {

using util::ByteView;
using util::Bytes;

net::Packet make_packet(const net::PacketConfig& cfg, std::size_t payload_len,
                        std::uint64_t seed) {
  Bytes payload(payload_len);
  util::Rng rng(seed);
  rng.fill(payload);
  return net::build_packet(cfg, 1000, 3, ByteView(payload));
}

TEST(PduModel, CellPartialsMatchDirectComputation) {
  const net::PacketConfig cfg;
  const SimPacket sp = make_sim_packet(cfg, make_packet(cfg, 256, 1));
  ASSERT_EQ(sp.pdu.num_cells(), 7u);
  for (std::size_t i = 0; i < sp.pdu.num_cells(); ++i) {
    const ByteView cell = sp.pdu.cell(i);
    EXPECT_EQ(sp.cells[i].inet, alg::internet_sum(cell));
    EXPECT_EQ(sp.cells[i].f255,
              alg::kern::fletcher_block(cell, alg::FletcherMod::kOnes255));
    EXPECT_EQ(sp.cells[i].f256,
              alg::kern::fletcher_block(cell, alg::FletcherMod::kTwos256));
    EXPECT_EQ(sp.cells[i].crc, alg::kern::crc32(cell));
  }
}

TEST(PduModel, FoldedCellCrcsReconstructStoredCrc) {
  const net::PacketConfig cfg;
  const SimPacket sp = make_sim_packet(cfg, make_packet(cfg, 256, 2));
  const alg::CrcCombiner c48(48), c44(44);
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i + 1 < sp.pdu.num_cells(); ++i)
    crc = i == 0 ? sp.cells[i].crc : c48.combine(crc, sp.cells[i].crc);
  crc = c44.combine(crc, sp.crc_head44);
  EXPECT_EQ(crc, sp.stored_crc);
}

TEST(PduModel, HeadAndEomPartialsReconstructCoverageSum) {
  // head_sum + middle cells + eom_sum == Internet sum over the
  // checksum coverage with the field zeroed — i.e. the stored field
  // complements it.
  const net::PacketConfig cfg;
  const SimPacket sp = make_sim_packet(cfg, make_packet(cfg, 256, 3));
  std::uint64_t acc = sp.tp.head_sum;
  for (std::size_t i = 1; i + 1 < sp.pdu.num_cells(); ++i)
    acc += sp.cells[i].inet;
  acc += sp.tp.eom_sum;
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  const std::uint16_t content = static_cast<std::uint16_t>(acc);
  EXPECT_EQ(alg::ones_canonical(sp.tp.stored),
            alg::ones_canonical(alg::ones_neg(content)));
}

TEST(PduModel, FletcherPartialsReconstructZeroSum) {
  for (const auto transport :
       {alg::Algorithm::kFletcher255, alg::Algorithm::kFletcher256}) {
    net::PacketConfig cfg;
    cfg.transport = transport;
    const bool mod255 = transport == alg::Algorithm::kFletcher255;
    const auto mod = mod255 ? alg::FletcherMod::kOnes255
                            : alg::FletcherMod::kTwos256;
    const SimPacket sp = make_sim_packet(cfg, make_packet(cfg, 256, 4));

    alg::FletcherPair acc = mod255 ? sp.tp.head_f255 : sp.tp.head_f256;
    for (std::size_t i = 1; i + 1 < sp.pdu.num_cells(); ++i) {
      const auto& fp = mod255 ? sp.cells[i].f255 : sp.cells[i].f256;
      acc = alg::fletcher_combine(acc, fp, 48, mod);
    }
    const auto& eom = mod255 ? sp.tp.eom_f255 : sp.tp.eom_f256;
    acc = alg::fletcher_combine(acc, eom, sp.tp.eom_len, mod);
    EXPECT_TRUE(alg::fletcher_is_zero(acc))
        << "transport " << static_cast<int>(transport);
  }
}

TEST(PduModel, TrailerModePartials) {
  net::PacketConfig cfg;
  cfg.placement = net::ChecksumPlacement::kTrailer;
  const SimPacket sp = make_sim_packet(cfg, make_packet(cfg, 256, 5));
  ASSERT_TRUE(sp.fast_path_ok);
  // Content sum (check bytes excluded) complements the stored value.
  std::uint64_t acc = sp.tp.head_sum;
  for (std::size_t i = 1; i + 1 < sp.pdu.num_cells(); ++i)
    acc += sp.cells[i].inet;
  acc += sp.tp.eom_sum;
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  EXPECT_EQ(alg::ones_canonical(sp.tp.stored),
            alg::ones_canonical(
                alg::ones_neg(static_cast<std::uint16_t>(acc))));
}

TEST(PduModel, RuntPacketsFlaggedIrregular) {
  const net::PacketConfig cfg;
  // 1..7-byte payloads: the 41..47-byte datagram ends before the EOM
  // cell, so non-EOM cells of a splice could carry pad bytes.
  for (std::size_t len = 1; len <= 7; ++len) {
    const SimPacket sp = make_sim_packet(cfg, make_packet(cfg, len, len));
    EXPECT_FALSE(sp.fast_path_ok) << "payload " << len;
  }
  // 8+ bytes: the datagram reaches the EOM cell boundary.
  const SimPacket ok = make_sim_packet(cfg, make_packet(cfg, 8, 99));
  EXPECT_TRUE(ok.fast_path_ok);
  const SimPacket full = make_sim_packet(cfg, make_packet(cfg, 256, 98));
  EXPECT_TRUE(full.fast_path_ok);
}

TEST(PduModel, EomCoverageHashExcludesTrailerBytesInTrailerMode) {
  net::PacketConfig header_cfg;
  net::PacketConfig trailer_cfg;
  trailer_cfg.placement = net::ChecksumPlacement::kTrailer;
  // Same payload; the trailer-mode EOM hash must ignore the 2 check
  // bytes, so two packets differing only in seq have equal EOM hashes
  // in trailer mode (payload tail identical) but different trailer
  // check values.
  Bytes payload(256, 0x11);
  const auto p1 = make_sim_packet(
      trailer_cfg, net::build_packet(trailer_cfg, 1, 1, ByteView(payload)));
  const auto p2 = make_sim_packet(
      trailer_cfg, net::build_packet(trailer_cfg, 257, 2, ByteView(payload)));
  EXPECT_NE(p1.tp.stored, p2.tp.stored);
  EXPECT_EQ(p1.eom_cov_hash, p2.eom_cov_hash);
}

TEST(PduModel, PacketizeFileShape) {
  const net::FlowConfig cfg;
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kText, 6, 1000);
  const auto pkts = packetize_file(cfg, ByteView(file));
  ASSERT_EQ(pkts.size(), (file.size() + 255) / 256);
  for (const auto& p : pkts) {
    EXPECT_EQ(p.pdu.trailer().length, p.total_len);
    EXPECT_TRUE(atm::crc_ok(p.pdu.bytes()));
  }
}

}  // namespace
}  // namespace cksum::core
