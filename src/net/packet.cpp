#include "net/packet.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "checksum/kernels/kernel.hpp"

namespace cksum::net {

namespace {

/// Offset of the check field within the coverage string
/// (pseudo-header ++ TCP segment).
std::size_t check_offset_in_coverage(ChecksumPlacement placement,
                                     std::size_t coverage_len) {
  if (placement == ChecksumPlacement::kHeader)
    return PseudoHeader::kLen + 16;  // TCP checksum field
  return coverage_len - kTrailerCheckLen;
}

std::uint16_t compute_internet_field(const PacketConfig& cfg,
                                     util::ByteView coverage) {
  const std::uint16_t sum = alg::kern::internet_sum(coverage);
  return cfg.invert_checksum ? alg::ones_neg(sum) : sum;
}

alg::FletcherMod fletcher_mod_of(alg::Algorithm a) {
  return a == alg::Algorithm::kFletcher255 ? alg::FletcherMod::kOnes255
                                           : alg::FletcherMod::kTwos256;
}

}  // namespace

void build_packet(const PacketConfig& cfg, std::uint32_t seq,
                  std::uint16_t ip_id, util::ByteView payload, Packet& out) {
  if (cfg.transport == alg::Algorithm::kCrc32)
    throw std::invalid_argument("build_packet: CRC-32 is the AAL5 check, "
                                "not a transport checksum option");

  const bool trailer = cfg.placement == ChecksumPlacement::kTrailer;
  const std::size_t total =
      kIpv4HeaderLen + kTcpHeaderLen + payload.size() +
      (trailer ? kTrailerCheckLen : 0);
  if (total > 0xffff)
    throw std::invalid_argument("build_packet: payload too large");

  out.payload_len = payload.size();
  out.bytes.assign(total, 0);
  std::uint8_t* const bytes = out.bytes.data();

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(total);
  ip.src = cfg.src_addr;
  ip.dst = cfg.dst_addr;
  if (cfg.fill_ip_header && !cfg.legacy95_headers) {
    ip.id = ip_id;
    ip.ttl = 64;
    ip.frag_off = 0x4000;  // DF
    ip.header_checksum = ip.compute_checksum();
  } else {
    // §6.2 ablation: the 8 bytes not covered by the pseudo-header stay
    // zero, as in the SIGCOMM '95 simulator.
    ip.tos = 0;
    ip.id = 0;
    ip.frag_off = 0;
    ip.ttl = 0;
    ip.header_checksum = 0;
    if (cfg.legacy95_headers) {
      ip.version = 0;
      ip.ihl = 0;
    }
  }

  TcpHeader tcp;
  tcp.src_port = cfg.src_port;
  tcp.dst_port = cfg.dst_port;
  tcp.seq = seq;
  tcp.ack = 1;
  tcp.flags = tcpflag::kAck | tcpflag::kPsh;
  tcp.window = cfg.window;
  tcp.checksum = 0;
  tcp.write(bytes + kIpv4HeaderLen);

  std::copy(payload.begin(), payload.end(),
            bytes + kIpv4HeaderLen + kTcpHeaderLen);
  // Trailer check bytes (if any) are already zero.

  // The coverage string (pseudo-header ++ TCP segment) is contiguous
  // while the pseudo-header sits in the last 12 IP-header bytes, just
  // before the TCP header; the IP header overwrites it below. The
  // fields are the ones checksum_coverage() would parse back.
  PseudoHeader ph;
  ph.src = ip.src;
  ph.dst = ip.dst;
  ph.protocol = ip.protocol;
  ph.tcp_length = cfg.legacy95_headers
                      ? ip.total_length
                      : static_cast<std::uint16_t>(total - kIpv4HeaderLen);
  std::uint8_t* const coverage = bytes + kIpv4HeaderLen - PseudoHeader::kLen;
  ph.write(coverage);
  const std::size_t coverage_len = total - kIpv4HeaderLen + PseudoHeader::kLen;
  const std::size_t field_at =
      check_offset_in_coverage(cfg.placement, coverage_len);

  if (cfg.transport == alg::Algorithm::kInternet) {
    const std::uint16_t field =
        compute_internet_field(cfg, util::ByteView(coverage, coverage_len));
    util::store_be16(coverage + field_at, field);
  } else {
    const alg::FletcherMod mod = fletcher_mod_of(cfg.transport);
    const alg::FletcherPair rest =
        alg::kern::fletcher_block(util::ByteView(coverage, coverage_len), mod);
    const std::size_t u = coverage_len - field_at;
    const auto [x, y] = alg::fletcher_check_bytes(rest, u, mod);
    coverage[field_at] = x;
    coverage[field_at + 1] = y;
  }
  ip.write(bytes);
}

Packet build_packet(const PacketConfig& cfg, std::uint32_t seq,
                    std::uint16_t ip_id, util::ByteView payload) {
  Packet pkt;
  build_packet(cfg, seq, ip_id, payload, pkt);
  return pkt;
}

util::Bytes checksum_coverage(util::ByteView ip_datagram, bool legacy95) {
  assert(ip_datagram.size() >= kIpv4HeaderLen + kTcpHeaderLen);
  const auto ip = Ipv4Header::parse(ip_datagram);
  assert(ip.has_value());
  const std::size_t seg_len =
      std::min<std::size_t>(ip_datagram.size(), ip->total_length) -
      kIpv4HeaderLen;

  PseudoHeader ph;
  ph.src = ip->src;
  ph.dst = ip->dst;
  ph.protocol = ip->protocol;
  ph.tcp_length = legacy95 ? ip->total_length
                           : static_cast<std::uint16_t>(seg_len);

  util::Bytes out(PseudoHeader::kLen + seg_len);
  ph.write(out.data());
  std::copy_n(ip_datagram.begin() + kIpv4HeaderLen, seg_len,
              out.begin() + PseudoHeader::kLen);
  return out;
}

bool verify_transport_checksum(const PacketConfig& cfg,
                               util::ByteView ip_datagram) {
  if (ip_datagram.size() < kIpv4HeaderLen + kTcpHeaderLen +
                               (cfg.placement == ChecksumPlacement::kTrailer
                                    ? kTrailerCheckLen
                                    : 0))
    return false;
  util::Bytes coverage = checksum_coverage(ip_datagram, cfg.legacy95_headers);
  const std::size_t field_at =
      check_offset_in_coverage(cfg.placement, coverage.size());

  if (cfg.transport == alg::Algorithm::kInternet) {
    const std::uint16_t stored = util::load_be16(coverage.data() + field_at);
    coverage[field_at] = 0;
    coverage[field_at + 1] = 0;
    const std::uint16_t expect =
        compute_internet_field(cfg, util::ByteView(coverage));
    return alg::ones_canonical(stored) == alg::ones_canonical(expect);
  }

  // Fletcher: a valid message (check bytes in place) sums to zero in
  // both terms.
  return alg::fletcher_is_zero(alg::kern::fletcher_block(
      util::ByteView(coverage), fletcher_mod_of(cfg.transport)));
}

}  // namespace cksum::net
