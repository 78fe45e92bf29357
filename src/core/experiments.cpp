#include "core/experiments.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <string>

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

CellStatsCollector collect_cell_stats(const fsgen::Filesystem& fs,
                                      CellStatsConfig cfg) {
  const unsigned threads = std::max(
      1u, std::min(std::thread::hardware_concurrency(),
                   static_cast<unsigned>(fs.file_count())));
  if (threads <= 1) {
    CellStatsCollector collector(std::move(cfg));
    for (std::size_t i = 0; i < fs.file_count(); ++i) {
      const util::Bytes file = fs.file(i);
      collector.add_file(util::ByteView(file));
    }
    return collector;
  }

  // Per-thread collectors merged at the end: every counter is
  // additive, so the result is identical to a sequential pass.
  std::vector<CellStatsCollector> partial(threads, CellStatsCollector(cfg));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= fs.file_count()) return;
        const util::Bytes file = fs.file(i);
        partial[t].add_file(util::ByteView(file));
      }
    });
  }
  for (auto& th : pool) th.join();
  CellStatsCollector collector(std::move(cfg));
  for (const auto& p : partial) collector.merge(p);
  return collector;
}

double scale_from_env() {
  const char* env = std::getenv("CKSUMLAB_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

}  // namespace cksum::core
