#include "core/pdu_model.hpp"

#include "checksum/kernels/kernel.hpp"
#include "net/validate.hpp"
#include "util/hash.hpp"

namespace cksum::core {

SimPacket make_sim_packet(const net::PacketConfig& cfg,
                          const net::Packet& pkt) {
  SimPacket sp;
  sp.total_len = pkt.total_length();
  sp.pdu = atm::CpcsPdu::frame(pkt.ip_bytes());

  const std::size_t n = sp.pdu.num_cells();
  sp.cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const util::ByteView cell = sp.pdu.cell(i);
    CellPartial cp;
    cp.inet = alg::kern::internet_sum(cell);
    cp.f255 = alg::kern::fletcher_block(cell, alg::FletcherMod::kOnes255);
    cp.f256 = alg::kern::fletcher_block(cell, alg::FletcherMod::kTwos256);
    cp.crc = alg::kern::crc32(cell);
    cp.hash = util::hash64(cell);
    cp.kd = alg::kern::koopman_dual(cell);
    cp.ks = alg::kern::koopman_single(cell);
    sp.cells.push_back(cp);
  }

  sp.hdr_require_ipck = cfg.fill_ip_header && !cfg.legacy95_headers;
  sp.hdr_legacy95 = cfg.legacy95_headers;
  sp.hdr_ok_self.resize(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sp.hdr_ok_self[i] =
        net::check_headers(sp.pdu.cell(i), sp.total_len, sp.hdr_require_ipck,
                           sp.hdr_legacy95) == net::HeaderCheck::kOk
            ? 1
            : 0;
  }

  sp.stored_crc = sp.pdu.trailer().crc;
  sp.crc_head44 = alg::kern::crc32(sp.pdu.cell(n - 1).first(44));
  // Koopman sums over the AAL5 CRC's coverage: whole PDU minus the
  // trailing 4 CRC bytes, i.e. the EOM cell contributes bytes [0, 44).
  sp.eom_kd = alg::kern::koopman_dual(sp.pdu.cell(n - 1).first(44));
  sp.eom_ks = alg::kern::koopman_single(sp.pdu.cell(n - 1).first(44));
  sp.kd_pdu =
      alg::kern::koopman_dual(sp.pdu.bytes().first(sp.pdu.bytes().size() - 4));
  sp.ks_pdu = alg::kern::koopman_single(
      sp.pdu.bytes().first(sp.pdu.bytes().size() - 4));
  std::size_t eom_cov = sp.total_len > (n - 1) * atm::kCellPayload
                            ? sp.total_len - (n - 1) * atm::kCellPayload
                            : 0;
  // Identical-data comparisons ignore the transport check field; in
  // trailer mode it is the last 2 datagram bytes (inside the EOM
  // coverage whenever the fast path applies).
  if (cfg.placement == net::ChecksumPlacement::kTrailer && eom_cov >= 2)
    eom_cov -= 2;
  sp.eom_cov_hash = util::hash64(sp.pdu.cell(n - 1).first(eom_cov));

  // --- Transport partials (case A pieces). ---
  const util::ByteView ip = pkt.ip_bytes();
  const std::size_t len = sp.total_len;
  const bool trailer = cfg.placement == net::ChecksumPlacement::kTrailer;

  // Fast-path regularity: all non-EOM cells fully inside the packet;
  // trailer check bytes (if any) wholly inside the EOM coverage.
  const std::size_t eom_start = (n - 1) * atm::kCellPayload;
  sp.fast_path_ok = len >= eom_start + (trailer ? 2 : 0);

  TransportPartials& tp = sp.tp;
  tp.eom_len =
      static_cast<std::uint32_t>(len > eom_start ? len - eom_start : 0);

  // Head prefix: pseudo-header ++ IP bytes [20, min(48, len)).
  {
    util::Bytes head;
    head.resize(net::PseudoHeader::kLen);
    net::PseudoHeader ph;
    const auto hdr = net::Ipv4Header::parse(ip);
    ph.src = hdr->src;
    ph.dst = hdr->dst;
    ph.protocol = hdr->protocol;
    ph.tcp_length = cfg.legacy95_headers
                        ? static_cast<std::uint16_t>(len)
                        : static_cast<std::uint16_t>(len - net::kIpv4HeaderLen);
    ph.write(head.data());
    const std::size_t head_end = std::min<std::size_t>(atm::kCellPayload, len);
    head.insert(head.end(), ip.begin() + net::kIpv4HeaderLen,
                ip.begin() + head_end);

    // Fletcher sums over the prefix as transmitted.
    tp.head_f255 = alg::kern::fletcher_block(util::ByteView(head),
                                             alg::FletcherMod::kOnes255);
    tp.head_f256 = alg::kern::fletcher_block(util::ByteView(head),
                                             alg::FletcherMod::kTwos256);

    // Internet content sum: zero the check field if it lives here.
    if (!trailer) {
      const std::size_t field = net::PseudoHeader::kLen + 16;
      tp.stored = util::load_be16(head.data() + field);
      head[field] = 0;
      head[field + 1] = 0;
    }
    tp.head_sum = alg::kern::internet_sum(util::ByteView(head));
  }

  // EOM coverage.
  if (tp.eom_len > 0) {
    util::Bytes eom(ip.begin() + eom_start, ip.begin() + len);
    tp.eom_f255 = alg::kern::fletcher_block(util::ByteView(eom),
                                            alg::FletcherMod::kOnes255);
    tp.eom_f256 = alg::kern::fletcher_block(util::ByteView(eom),
                                            alg::FletcherMod::kTwos256);
    if (trailer && sp.fast_path_ok) {
      // The 2 check bytes are the last 2 coverage bytes; exclude them
      // from the Internet content sum and remember the stored value.
      tp.stored = util::load_be16(eom.data() + eom.size() - 2);
      eom[eom.size() - 2] = 0;
      eom[eom.size() - 1] = 0;
    }
    tp.eom_sum = alg::kern::internet_sum(util::ByteView(eom));
  }

  return sp;
}

std::vector<SimPacket> packetize_file(const net::FlowConfig& cfg,
                                      util::ByteView file) {
  const std::vector<net::Packet> pkts = net::segment_file(cfg, file);
  std::vector<SimPacket> out;
  out.reserve(pkts.size());
  for (const net::Packet& p : pkts)
    out.push_back(make_sim_packet(cfg.packet, p));
  return out;
}

}  // namespace cksum::core
