// Per-cell partial-sum model: each precomputed piece must reconstruct
// the corresponding whole-message quantity computed directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "checksum/kernels/kernel.hpp"
#include "core/pdu_model.hpp"
#include "fsgen/generator.hpp"
#include "net/validate.hpp"
#include "obs/registry.hpp"
#include "util/hash.hpp"
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

/// Restores the kernel selection a test found when it ends.
class KernelSelectionGuard {
 public:
  KernelSelectionGuard() : before_(alg::kern::selection_name()) {}
  ~KernelSelectionGuard() { alg::kern::select_kernel(before_); }
  KernelSelectionGuard(const KernelSelectionGuard&) = delete;
  KernelSelectionGuard& operator=(const KernelSelectionGuard&) = delete;

 private:
  std::string before_;
};

/// The seven partials of one cell from each algorithm's scalar
/// reference entry.
CellPartial reference_cell(ByteView cell) {
  namespace kern = alg::kern;
  CellPartial cp;
  cp.inet = kern::internet_impls().scalar().fn(cell);
  const auto fletcher = kern::fletcher_impls().scalar().fn;
  cp.f255 = fletcher(cell, alg::FletcherMod::kOnes255);
  cp.f256 = fletcher(cell, alg::FletcherMod::kTwos256);
  cp.crc = kern::crc32_impls().scalar().fn(0, cell);
  cp.hash = util::hash64(cell);
  cp.kd = kern::koopman_dual_impls().scalar().fn(cell);
  cp.ks = kern::koopman_single_impls().scalar().fn(cell);
  return cp;
}

/// Random cells, all-0x00 and all-0xFF cells (every lane sum at its
/// extreme) and run-heavy cells, back to back.
Bytes stress_cells() {
  Bytes all;
  util::Rng rng(0xCE11);
  for (int i = 0; i < 64; ++i) {
    Bytes cell(atm::kCellPayload);
    rng.fill(cell);
    all.insert(all.end(), cell.begin(), cell.end());
  }
  all.insert(all.end(), atm::kCellPayload, 0x00);
  all.insert(all.end(), atm::kCellPayload, 0xFF);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t n = 0; n < atm::kCellPayload;) {
      const std::uint64_t pick = rng.below(3);
      const auto byte = static_cast<std::uint8_t>(
          pick == 0 ? 0x00 : pick == 1 ? 0xFF : rng.next());
      const std::size_t run = std::min(rng.run_length(0.9, atm::kCellPayload),
                                       atm::kCellPayload - n);
      all.insert(all.end(), run, byte);
      n += run;
    }
  }
  return all;
}

TEST(PduModel, FusedCellPartialsMatchKernels) {
  const KernelSelectionGuard guard;
  const Bytes all = stress_cells();
  const std::size_t cells = all.size() / atm::kCellPayload;
  std::vector<CellPartial> want(cells);
  for (std::size_t i = 0; i < cells; ++i)
    want[i] = reference_cell(ByteView(all).subspan(i * atm::kCellPayload,
                                                   atm::kCellPayload));
  for (const char* sel : {"best", "scalar"}) {
    ASSERT_TRUE(alg::kern::select_kernel(sel));
    // The fused pass takes cells four at a time and the rest one at a
    // time: every remainder, and all of them.
    for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{4},
                                    std::size_t{5}, std::size_t{9}, cells}) {
      std::vector<CellPartial> got(count);
      cell_partials(ByteView(all).first(count * atm::kCellPayload), got);
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(got[i], want[i]) << sel << ": cell " << i << " of " << count;
    }
  }
}

/// make_sim_packet's PacketPartials as computed before the fused pass:
/// the Koopman sums over the whole PDU (`pkt` framed) and the head and
/// EOM sums over heap copies of their bytes.
PacketPartials whole_pdu_partials(const net::PacketConfig& cfg,
                                  const net::Packet& pkt,
                                  const atm::CpcsPdu& pdu) {
  PacketPartials pp;
  pp.total_len = pkt.total_length();
  const std::size_t n = pdu.num_cells();
  pp.hdr_require_ipck = cfg.fill_ip_header && !cfg.legacy95_headers;
  pp.hdr_legacy95 = cfg.legacy95_headers;
  pp.stored_crc = pdu.trailer().crc;
  pp.crc_head44 = alg::kern::crc32(pdu.cell(n - 1).first(44));
  pp.eom_kd = alg::kern::koopman_dual(pdu.cell(n - 1).first(44));
  pp.eom_ks = alg::kern::koopman_single(pdu.cell(n - 1).first(44));
  const ByteView crc_coverage = pdu.bytes().first(pdu.bytes().size() - 4);
  pp.kd_pdu = alg::kern::koopman_dual(crc_coverage);
  pp.ks_pdu = alg::kern::koopman_single(crc_coverage);
  std::size_t eom_cov = pp.total_len > (n - 1) * atm::kCellPayload
                            ? pp.total_len - (n - 1) * atm::kCellPayload
                            : 0;
  if (cfg.placement == net::ChecksumPlacement::kTrailer && eom_cov >= 2)
    eom_cov -= 2;
  pp.eom_cov_hash = util::hash64(pdu.cell(n - 1).first(eom_cov));

  const ByteView ip = pkt.ip_bytes();
  const std::size_t len = pp.total_len;
  const bool trailer = cfg.placement == net::ChecksumPlacement::kTrailer;
  const std::size_t eom_start = (n - 1) * atm::kCellPayload;
  pp.fast_path_ok = len >= eom_start + (trailer ? 2 : 0);
  TransportPartials& tp = pp.tp;
  tp.eom_len =
      static_cast<std::uint32_t>(len > eom_start ? len - eom_start : 0);

  Bytes head(net::PseudoHeader::kLen);
  net::PseudoHeader ph;
  const auto hdr = net::Ipv4Header::parse(ip);
  ph.src = hdr->src;
  ph.dst = hdr->dst;
  ph.protocol = hdr->protocol;
  ph.tcp_length = cfg.legacy95_headers
                      ? static_cast<std::uint16_t>(len)
                      : static_cast<std::uint16_t>(len - net::kIpv4HeaderLen);
  ph.write(head.data());
  head.insert(head.end(), ip.begin() + net::kIpv4HeaderLen,
              ip.begin() + std::min<std::size_t>(atm::kCellPayload, len));
  tp.head_f255 =
      alg::kern::fletcher_block(ByteView(head), alg::FletcherMod::kOnes255);
  tp.head_f256 =
      alg::kern::fletcher_block(ByteView(head), alg::FletcherMod::kTwos256);
  if (!trailer) {
    const std::size_t field = net::PseudoHeader::kLen + 16;
    tp.stored = util::load_be16(head.data() + field);
    head[field] = 0;
    head[field + 1] = 0;
  }
  tp.head_sum = alg::kern::internet_sum(ByteView(head));

  if (tp.eom_len > 0) {
    Bytes eom(ip.begin() + eom_start, ip.begin() + len);
    tp.eom_f255 =
        alg::kern::fletcher_block(ByteView(eom), alg::FletcherMod::kOnes255);
    tp.eom_f256 =
        alg::kern::fletcher_block(ByteView(eom), alg::FletcherMod::kTwos256);
    if (trailer && pp.fast_path_ok) {
      tp.stored = util::load_be16(eom.data() + eom.size() - 2);
      eom[eom.size() - 2] = 0;
      eom[eom.size() - 1] = 0;
    }
    tp.eom_sum = alg::kern::internet_sum(ByteView(eom));
  }
  return pp;
}

/// Every packet shape: both placements, the three transports, the
/// header ablations, runts (payloads the datagram of which ends before
/// the EOM cell) and full and multi-cell segments.
std::vector<std::pair<net::PacketConfig, std::size_t>> packet_shapes() {
  std::vector<std::pair<net::PacketConfig, std::size_t>> out;
  for (const auto placement :
       {net::ChecksumPlacement::kHeader, net::ChecksumPlacement::kTrailer})
    for (const auto transport :
         {alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
          alg::Algorithm::kFletcher256})
      for (int headers = 0; headers < 3; ++headers)
        for (const std::size_t len :
             {1u, 2u, 5u, 7u, 8u, 9u, 40u, 100u, 255u, 256u, 512u, 1460u}) {
          net::PacketConfig cfg;
          cfg.placement = placement;
          cfg.transport = transport;
          cfg.fill_ip_header = headers != 1;
          cfg.legacy95_headers = headers == 2;
          out.emplace_back(cfg, len);
        }
  return out;
}

TEST(PduModel, PacketPartialsMatchWholePduComputation) {
  const KernelSelectionGuard guard;
  for (const char* sel : {"best", "scalar"}) {
    ASSERT_TRUE(alg::kern::select_kernel(sel));
    std::uint64_t seed = 0;
    for (const auto& [cfg, len] : packet_shapes()) {
      const net::Packet pkt = make_packet(cfg, len, ++seed);
      const SimPacket sp = make_sim_packet(cfg, pkt);
      const PacketPartials want =
          whole_pdu_partials(cfg, pkt, atm::CpcsPdu::frame(pkt.ip_bytes()));
      ASSERT_EQ(static_cast<const PacketPartials&>(sp), want)
          << sel << ": payload " << len << " placement "
          << static_cast<int>(cfg.placement) << " transport "
          << static_cast<int>(cfg.transport);
      ASSERT_EQ(sp.cells.size(), sp.pdu.num_cells());
      for (std::size_t i = 0; i < sp.cells.size(); ++i)
        ASSERT_EQ(sp.cells[i], reference_cell(sp.pdu.cell(i))) << sel;
    }
  }
}

TEST(PduModel, PacketizeFileMatchesPerPacket) {
  // packetize_file runs the fused pass over a file's cells four at a
  // time across packet boundaries; make_sim_packet runs it over one
  // packet. Files of every length from 1 to 320 bytes plus a few
  // longer ones put every remainder of the four lanes at the file's
  // end, the last segment at every length up to a 256-byte segment's,
  // and runts (datagrams that end before their EOM cell: 1..7-byte
  // segments) in every configuration.
  const KernelSelectionGuard guard;
  Bytes content(2 * 4096);
  util::Rng rng(0xF11E);
  for (std::size_t n = 0; n < content.size();) {
    const std::uint64_t pick = rng.below(3);
    const std::size_t run =
        std::min(rng.run_length(0.95, 200), content.size() - n);
    for (std::size_t i = 0; i < run; ++i)
      content[n + i] = static_cast<std::uint8_t>(
          pick == 0 ? 0x00 : pick == 1 ? 0xFF : rng.next());
    n += run;
  }
  std::vector<std::size_t> lengths;
  for (std::size_t len = 1; len <= 320; ++len) lengths.push_back(len);
  for (const std::size_t len : {1499u, 4096u, 6001u, 8192u})
    lengths.push_back(len);

  for (const char* sel : {"best", "scalar"}) {
    ASSERT_TRUE(alg::kern::select_kernel(sel));
    for (const auto placement :
         {net::ChecksumPlacement::kHeader, net::ChecksumPlacement::kTrailer})
      for (const auto transport :
           {alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
            alg::Algorithm::kFletcher256})
        for (const std::size_t segment : {64u, 250u, 256u, 512u}) {
          net::FlowConfig flow;
          flow.packet.placement = placement;
          flow.packet.transport = transport;
          flow.segment_size = segment;
          bool remainder_seen[4] = {};
          for (const std::size_t len : lengths) {
            const ByteView file = ByteView(content).first(len);
            std::vector<SimPacket> want;
            net::for_each_segment(flow, file, [&](const net::Packet& p) {
              want.push_back(make_sim_packet(flow.packet, p));
            });
            const std::vector<SimPacket> got = packetize_file(flow, file);
            ASSERT_EQ(got.size(), want.size());
            std::size_t cells = 0;
            for (std::size_t i = 0; i < got.size(); ++i) {
              const std::string where =
                  std::string(sel) + ": segment " + std::to_string(segment) +
                  " file " + std::to_string(len) + " packet " +
                  std::to_string(i);
              ASSERT_EQ(static_cast<const PacketPartials&>(got[i]),
                        static_cast<const PacketPartials&>(want[i]))
                  << where;
              ASSERT_EQ(got[i].cells, want[i].cells) << where;
              ASSERT_EQ(got[i].hdr_ok_self, want[i].hdr_ok_self) << where;
              ASSERT_TRUE(std::ranges::equal(got[i].pdu.bytes(),
                                             want[i].pdu.bytes()))
                  << where;
              cells += got[i].cells.size();
            }
            remainder_seen[cells % 4] = true;
          }
          for (int r = 0; r < 4; ++r)
            EXPECT_TRUE(remainder_seen[r]) << "segment " << segment;
        }
  }
}

#ifndef OBS_DISABLE
TEST(PduModel, KernelCountsMatchPerCellDispatch) {
  // The fused pass and the derived whole-PDU Koopman sums count what
  // seven dispatches per cell and two whole-PDU passes counted.
  const KernelSelectionGuard guard;
  alg::kern::register_kernel_metrics();
  const auto counts = [] {
    std::vector<std::uint64_t> out;
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    alg::kern::for_each_list([&](const auto& list) {
      for (const char* what : {".calls", ".bytes"}) {
        const obs::MetricValue* m =
            snap.find("kernel." + std::string(list.name) + what);
        out.push_back(m != nullptr ? m->value : 0);
      }
    });
    return out;
  };
  const auto delta = [&](auto&& work) {
    const std::vector<std::uint64_t> before = counts();
    work();
    std::vector<std::uint64_t> after = counts();
    for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  };
  for (const auto& [cfg, len] : packet_shapes()) {
    const net::Packet pkt = make_packet(cfg, len, len);
    const auto want = delta([&] {
      const atm::CpcsPdu pdu = atm::CpcsPdu::frame(pkt.ip_bytes());
      const PacketPartials pp = whole_pdu_partials(cfg, pkt, pdu);
      for (std::size_t i = 0; i < pdu.num_cells(); ++i) {
        const ByteView cell = pdu.cell(i);
        (void)alg::kern::internet_sum(cell);
        (void)alg::kern::fletcher_block(cell, alg::FletcherMod::kOnes255);
        (void)alg::kern::fletcher_block(cell, alg::FletcherMod::kTwos256);
        (void)alg::kern::crc32(cell);
        (void)alg::kern::koopman_dual(cell);
        (void)alg::kern::koopman_single(cell);
        if (i + 1 < pdu.num_cells())  // may check an IP header sum
          (void)net::check_headers(cell, pp.total_len, pp.hdr_require_ipck,
                                   pp.hdr_legacy95);
      }
    });
    for (const char* sel : {"best", "scalar"}) {
      ASSERT_TRUE(alg::kern::select_kernel(sel));
      EXPECT_EQ(delta([&] { (void)make_sim_packet(cfg, pkt); }), want)
          << sel << ": payload " << len;
    }
  }
}
#endif

}  // namespace
}  // namespace cksum::core
