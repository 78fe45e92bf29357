#include "net/udp.hpp"

#include <algorithm>
#include <stdexcept>

#include "checksum/internet.hpp"
#include "net/tcp.hpp"  // PseudoHeader

namespace cksum::net {

void UdpHeader::write(std::uint8_t* out) const noexcept {
  util::store_be16(out, src_port);
  util::store_be16(out + 2, dst_port);
  util::store_be16(out + 4, length);
  util::store_be16(out + 6, checksum);
}

std::optional<UdpHeader> UdpHeader::parse(util::ByteView data) noexcept {
  if (data.size() < kUdpHeaderLen) return std::nullopt;
  UdpHeader h;
  h.src_port = util::load_be16(data.data());
  h.dst_port = util::load_be16(data.data() + 2);
  h.length = util::load_be16(data.data() + 4);
  h.checksum = util::load_be16(data.data() + 6);
  return h;
}

namespace {

std::uint16_t udp_sum(const Ipv4Header& ip, util::ByteView udp_segment) {
  PseudoHeader ph;
  ph.src = ip.src;
  ph.dst = ip.dst;
  ph.protocol = 17;
  ph.tcp_length = static_cast<std::uint16_t>(udp_segment.size());
  std::uint8_t raw[PseudoHeader::kLen];
  ph.write(raw);
  alg::InternetSum sum;
  sum.update(util::ByteView(raw, sizeof raw));
  sum.update(udp_segment);
  return sum.fold();
}

}  // namespace

util::Bytes build_udp_datagram(std::uint32_t src_addr, std::uint32_t dst_addr,
                               std::uint16_t src_port, std::uint16_t dst_port,
                               util::ByteView payload, bool with_checksum,
                               std::uint16_t ip_id) {
  const std::size_t total =
      kIpv4HeaderLen + kUdpHeaderLen + payload.size();
  if (total > 0xffff)
    throw std::invalid_argument("build_udp_datagram: payload too large");

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(total);
  ip.protocol = 17;
  ip.id = ip_id;
  ip.frag_off = 0;
  ip.src = src_addr;
  ip.dst = dst_addr;
  ip.header_checksum = ip.compute_checksum();

  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderLen + payload.size());
  udp.checksum = 0;

  util::Bytes out(total);
  ip.write(out.data());
  udp.write(out.data() + kIpv4HeaderLen);
  std::copy(payload.begin(), payload.end(),
            out.begin() + kIpv4HeaderLen + kUdpHeaderLen);

  if (with_checksum) {
    const std::uint16_t sum = udp_sum(
        ip, util::ByteView(out).subspan(kIpv4HeaderLen));
    std::uint16_t field = alg::ones_neg(sum);
    // RFC 768: a computed zero is transmitted as all ones (zero means
    // "no checksum") — the protocol-level face of the "two zeros".
    if (field == 0x0000) field = 0xffff;
    util::store_be16(out.data() + kIpv4HeaderLen + 6, field);
  }
  return out;
}

UdpCheckResult verify_udp_datagram(util::ByteView ip_datagram) {
  const auto ip = Ipv4Header::parse(ip_datagram);
  // The claimed length must cover both headers and fit the buffer.
  if (!ip || ip->protocol != 17 ||
      ip->total_length < kIpv4HeaderLen + kUdpHeaderLen ||
      ip->total_length > ip_datagram.size())
    return UdpCheckResult::kInvalid;
  const util::ByteView segment = ip_datagram.subspan(
      kIpv4HeaderLen, ip->total_length - kIpv4HeaderLen);
  const auto udp = UdpHeader::parse(segment);
  if (!udp || udp->length != segment.size()) return UdpCheckResult::kInvalid;
  if (udp->checksum == 0) return UdpCheckResult::kDisabled;
  // Sum over pseudo-header + segment (stored checksum included) must
  // be the ones-complement zero.
  return alg::ones_canonical(udp_sum(*ip, segment)) ==
                 alg::ones_canonical(0xffff)
             ? UdpCheckResult::kValid
             : UdpCheckResult::kInvalid;
}

}  // namespace cksum::net
