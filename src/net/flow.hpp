// Segment a file into the TCP flow the paper's simulator transfers:
// fixed-size segments (256 bytes in all the paper's tables) with a
// runt final segment, sequence numbers advancing by the data length
// and the IP ID by one per packet.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace cksum::net {

struct FlowConfig {
  PacketConfig packet;
  std::size_t segment_size = 256;
  std::uint32_t initial_seq = 1;
  std::uint16_t initial_ip_id = 1;
};

/// Calls f(const Packet&) for each data segment of one file transfer,
/// in order. Every segment is built into one reused packet buffer, so
/// the reference is valid only during its call. An empty file produces
/// no packets.
template <typename F>
void for_each_segment(const FlowConfig& cfg, util::ByteView file, F&& f) {
  if (cfg.segment_size == 0)
    throw std::invalid_argument("FlowConfig: segment_size must be > 0");
  Packet pkt;
  std::uint32_t seq = cfg.initial_seq;
  std::uint16_t id = cfg.initial_ip_id;
  for (std::size_t off = 0; off < file.size();) {
    const std::size_t len = std::min(cfg.segment_size, file.size() - off);
    build_packet(cfg.packet, seq, id, file.subspan(off, len), pkt);
    f(std::as_const(pkt));
    seq += static_cast<std::uint32_t>(len);
    ++id;
    off += len;
  }
}

/// All data segments of one file transfer, in order. An empty file
/// produces no packets.
std::vector<Packet> segment_file(const FlowConfig& cfg, util::ByteView file);

}  // namespace cksum::net
