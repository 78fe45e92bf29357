#include "core/experiments.hpp"

#include <cstdlib>

namespace cksum::core {

net::FlowConfig paper_flow_config() {
  net::FlowConfig cfg;
  cfg.segment_size = 256;
  cfg.initial_seq = 1;
  cfg.initial_ip_id = 1;
  return cfg;
}

SpliceStats run_profile(const fsgen::FsProfile& prof,
                        const net::PacketConfig& pkt_cfg, double scale,
                        bool compress_files) {
  SpliceRunConfig cfg;
  cfg.flow = paper_flow_config();
  cfg.flow.packet = pkt_cfg;
  cfg.compress_files = compress_files;
  cfg.threads = 0;  // all cores; the merged statistics are order-independent
  const fsgen::Filesystem fs(prof, scale);
  return run_filesystem(cfg, fs);
}

double scale_from_env() {
  const char* env = std::getenv("CKSUMLAB_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

}  // namespace cksum::core
