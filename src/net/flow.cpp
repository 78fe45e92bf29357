#include "net/flow.hpp"

namespace cksum::net {

std::vector<Packet> segment_file(const FlowConfig& cfg, util::ByteView file) {
  std::vector<Packet> out;
  out.reserve(file.size() / std::max<std::size_t>(cfg.segment_size, 1) + 1);
  for_each_segment(cfg, file, [&](const Packet& p) { out.push_back(p); });
  return out;
}

}  // namespace cksum::net
