#include "trace/ingest.hpp"

#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "net/validate.hpp"
#include "trace/metrics.hpp"

namespace cksum::trace {

IngestResult ingest_capture(const PcapReader& pcap, const IngestConfig& cfg) {
  IngestResult out;
  IngestCounts& c = out.counts;
  const net::PacketConfig& pkt_cfg = cfg.flow.packet;
  const bool trailer =
      pkt_cfg.placement == net::ChecksumPlacement::kTrailer;
  const bool require_ipck =
      pkt_cfg.fill_ip_header && !pkt_cfg.legacy95_headers;

  std::vector<core::SimPacket> current;
  bool in_file = false;  // a flow start (seq == initial_seq) was seen

  for (const TraceRecord& rec : pcap.records()) {
    c.records += 1;
    // Reject classes, cheapest first. A snap-length-cut record is
    // refused before any parsing: its datagram bytes are incomplete,
    // so no checksum verdict over them would be meaningful.
    if (rec.truncated) {
      c.truncated += 1;
      continue;
    }
    if (rec.cls == RecordClass::kLinkTooShort) {
      c.link_too_short += 1;
      continue;
    }
    if (rec.cls == RecordClass::kNonIpv4) {
      c.non_ipv4 += 1;
      continue;
    }
    const util::ByteView dgram = rec.datagram;
    // The syntactic gate the splice receiver applies: for an intact
    // datagram the AAL5 length it would reassemble under IS its size.
    if (net::check_headers(dgram, dgram.size(), require_ipck,
                           pkt_cfg.legacy95_headers) !=
        net::HeaderCheck::kOk) {
      c.header_fail += 1;
      continue;
    }
    if (!net::verify_transport_checksum(pkt_cfg, dgram)) {
      c.checksum_fail += 1;
      continue;
    }

    // File grouping: each transfer restarts at initial_seq, and the
    // sequence number only grows within a transfer, so a datagram
    // carrying initial_seq is always a file boundary.
    const auto tcp = net::TcpHeader::parse(dgram.subspan(net::kIpv4HeaderLen));
    if (!tcp.has_value()) {  // unreachable after check_headers; be safe
      c.header_fail += 1;
      continue;
    }
    if (tcp->seq == cfg.flow.initial_seq) {
      if (in_file) out.files.push_back(std::move(current));
      current.clear();
      in_file = true;
    } else if (!in_file) {
      // Mid-transfer data before any flow start: no file to attach
      // it to without inventing a boundary the sender never sent.
      c.orphan += 1;
      continue;
    }

    net::Packet pkt;
    pkt.bytes.assign(dgram.begin(), dgram.end());
    const std::size_t overhead =
        net::kIpv4HeaderLen + net::kTcpHeaderLen +
        (trailer ? net::kTrailerCheckLen : 0);
    pkt.payload_len = dgram.size() - overhead;  // >= 0 after check_headers
    current.push_back(core::make_sim_packet(pkt_cfg, pkt));
    c.accepted += 1;
  }
  if (in_file) out.files.push_back(std::move(current));

  c.rejected = c.reject_sum();
  const TraceMetrics& mx = tmx();
  mx.accepted.add(c.accepted);
  mx.rejected.add(c.rejected);
  mx.files.add(out.files.size());
  return out;
}

}  // namespace cksum::trace
