// Packet construction for the simulated FTP-over-TCP/IP transfer.
//
// The builder reproduces the paper's simulator faithfully, including
// its two ablations:
//  * §6.2 — `fill_ip_header`: whether the 8 IP header bytes not
//    covered by the TCP pseudo-header (tos, id, frag, ttl, IP header
//    checksum) are filled in or left zero. The SIGCOMM '95 numbers
//    were produced with them unfilled, which inflated miss rates by
//    three orders of magnitude.
//  * §6.3 — `invert_checksum`: whether the stored Internet checksum is
//    the complement of the sum (standard) or the raw sum.
// and the paper's §5.3 experiment:
//  * `placement`: the transport check value lives in the TCP header
//    (standard) or is appended as a 2-byte trailer after the payload,
//    with the header checksum field left zero.
//
// The transport checksum can be the Internet checksum or either
// Fletcher flavour; Fletcher check bytes are stored "sum-to-zero"
// (both running sums of the covered bytes are zero on a valid packet),
// matching the paper's implementation note.
//
// Checksum coverage is always: pseudo-header ++ TCP header ++ payload
// (++ trailer check bytes, when placed there, as zeros during
// computation). The pseudo-header is included for Fletcher too so all
// algorithms protect identical bytes.
#pragma once

#include <cstdint>

#include "checksum/checksum.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"
#include "util/bytes.hpp"

namespace cksum::net {

enum class ChecksumPlacement { kHeader, kTrailer };

struct PacketConfig {
  alg::Algorithm transport = alg::Algorithm::kInternet;
  ChecksumPlacement placement = ChecksumPlacement::kHeader;
  bool invert_checksum = true;  // Internet checksum only (§6.3)
  bool fill_ip_header = true;   // §6.2
  /// Emulate the SIGCOMM '95 simulator exactly (§6.2/§6.4): the 8 IP
  /// header bytes NOT covered by the pseudo-header — version/ihl, id,
  /// frag, ttl, IP checksum — are left zero, and the pseudo-header
  /// carries the IP total length. The remaining IP header bytes then
  /// mirror the pseudo-header exactly, so a zero-payload packet's
  /// header cell sums to zero — the "zero-congruent header cell"
  /// artifact that inflated the original paper's miss rates ~1000x.
  /// Implies fill_ip_header = false semantics; header validation drops
  /// the version/ihl checks (that simulator only checked lengths and
  /// "certain bits").
  bool legacy95_headers = false;
  std::uint32_t src_addr = 0x7f000001;  // 127.0.0.1: the loopback
  std::uint32_t dst_addr = 0x7f000001;  // transfer the paper simulates
  std::uint16_t src_port = 20;          // ftp-data
  std::uint16_t dst_port = 54321;
  std::uint16_t window = 4096;
};

/// Number of check bytes appended after the payload in trailer mode.
inline constexpr std::size_t kTrailerCheckLen = 2;

struct Packet {
  util::Bytes bytes;            ///< full IP datagram
  std::size_t payload_len = 0;  ///< TCP user-data length (excludes trailer check)

  util::ByteView ip_bytes() const noexcept { return {bytes.data(), bytes.size()}; }
  std::uint16_t total_length() const noexcept {
    return static_cast<std::uint16_t>(bytes.size());
  }
  util::ByteView payload() const noexcept {
    return {bytes.data() + kIpv4HeaderLen + kTcpHeaderLen, payload_len};
  }
};

/// Build one data segment of a flow.
Packet build_packet(const PacketConfig& cfg, std::uint32_t seq,
                    std::uint16_t ip_id, util::ByteView payload);

/// Build one data segment of a flow into `out`, reusing its buffer.
void build_packet(const PacketConfig& cfg, std::uint32_t seq,
                  std::uint16_t ip_id, util::ByteView payload, Packet& out);

/// The checksum-coverage string of a datagram: pseudo-header ++ bytes
/// from IP offset 20 to total_length. (Exposed for tests and the
/// splice slow path.) With `legacy95` the pseudo-header carries the IP
/// total length instead of the TCP segment length.
util::Bytes checksum_coverage(util::ByteView ip_datagram,
                              bool legacy95 = false);

/// Verify the transport checksum of a received datagram under `cfg`
/// (the datagram must already have passed structural header checks).
bool verify_transport_checksum(const PacketConfig& cfg,
                               util::ByteView ip_datagram);

}  // namespace cksum::net
