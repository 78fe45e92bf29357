// Checksum-value distribution measurement over filesystem data —
// the machinery behind Figure 2, Figure 3 and Tables 4-5.
//
// Files are carved the way the paper's simulator carves them: into
// 256-byte packet payloads, each split into 48-byte cells plus a short
// per-packet runt cell ("This includes all cells, including the short
// cell at the end of each packet"). Internet-checksum values are
// histogrammed in their mod-65535 congruence classes; Fletcher values
// as the 16-bit A<<8|B pair.
//
// Block statistics (k consecutive full-size cells) support:
//   * the measured k-cell distributions of Figure 2,
//   * the global match probabilities of Table 4 ("Measured"),
//   * the windowed local congruence probabilities of Table 5,
//     including the identical-data exclusion.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "stats/histogram.hpp"
#include "util/bytes.hpp"

namespace cksum::core {

struct CellStatsConfig {
  std::size_t segment_size = 256;
  std::vector<std::size_t> ks = {1, 2, 3, 4, 5, 8};
  /// Table 5's locality window: "within 2 packet lengths (512 bytes)".
  std::size_t local_window_bytes = 512;
};

class CellStatsCollector {
 public:
  explicit CellStatsCollector(CellStatsConfig cfg);

  /// Carve one file and accumulate.
  void add_file(util::ByteView file);

  /// k=1 checksum-value histograms over cells.
  const stats::Histogram& tcp_cells() const noexcept { return tcp_cells_; }
  const stats::Histogram& f255_cells() const noexcept { return f255_cells_; }
  const stats::Histogram& f256_cells() const noexcept { return f256_cells_; }

  /// Measured distribution of Internet sums over blocks of k full
  /// cells (sliding window, step one cell). k must be one of cfg.ks.
  const stats::Histogram& tcp_blocks(std::size_t k) const;

  struct LocalCounts {
    std::uint64_t pairs = 0;
    std::uint64_t congruent = 0;
    std::uint64_t congruent_identical = 0;

    double p_congruent() const {
      return pairs == 0 ? 0.0
                        : static_cast<double>(congruent) /
                              static_cast<double>(pairs);
    }
    double p_congruent_excluding_identical() const {
      return pairs == 0 ? 0.0
                        : static_cast<double>(congruent -
                                              congruent_identical) /
                              static_cast<double>(pairs);
    }
  };

  /// Local (within-window) block-pair congruence counts for block
  /// length k.
  const LocalCounts& local(std::size_t k) const;

  std::uint64_t cells_seen() const noexcept { return cells_seen_; }

  /// Merge another collector built with an identical configuration
  /// (all counters are additive; used by parallel collection).
  void merge(const CellStatsCollector& other);

 private:
  CellStatsConfig cfg_;
  stats::Histogram tcp_cells_{65535};
  stats::Histogram f255_cells_{65536};
  stats::Histogram f256_cells_{65536};
  std::map<std::size_t, stats::Histogram> blocks_;
  std::map<std::size_t, LocalCounts> local_;
  std::uint64_t cells_seen_ = 0;
};

}  // namespace cksum::core
