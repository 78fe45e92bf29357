// Data-profile analyzer — the paper's "real data is not uniform"
// lens, applied to captured traffic (docs/TRACE.md).
//
// The SIGCOMM '95 result hinges on the structure of real payloads:
// heavily skewed byte values, long 0x00/0xFF runs, and locally
// correlated 16-bit words, all of which collapse the effective range
// of the Internet checksum. This profiler accumulates exactly those
// statistics over ingested payload bytes, feeding src/stats/
// histograms so entropy / pmax / top-mass summaries like those quoted
// for synthetic corpora (Figure 2/3) can be reported for a capture.
// Its cell histogram counts only the full 48-byte cells of each
// payload, Internet sum only; core::CellStatsCollector also counts
// each segment's short cell (docs/TRACE.md says why the two differ).
#pragma once

#include <cstdint>
#include <string>

#include "stats/histogram.hpp"
#include "util/bytes.hpp"

namespace cksum::trace {

/// Run-length statistics for one byte value (0x00 or 0xFF): maximal
/// runs, their total mass, and a log2-bucketed length distribution
/// (bucket i holds runs of length [2^(i-1)+1 .. 2^i], i.e. bit_width).
struct RunStats {
  std::uint64_t runs = 0;
  std::uint64_t run_bytes = 0;
  std::uint64_t max_run = 0;
  stats::Histogram length_log2{33};

  void add_run(std::uint64_t len);
};

class DataProfile {
 public:
  DataProfile();

  /// Fold one packet's payload bytes in: byte-value histogram, 16-bit
  /// word histogram (big-endian, non-overlapping, odd tail ignored),
  /// zero/0xFF run-length stats, and the per-cell TCP-checksum value
  /// distribution over the payload's full 48-byte cells (a partial
  /// tail cell is skipped).
  void add_payload(util::ByteView payload);

  std::uint64_t bytes() const noexcept { return bytes_; }
  std::uint64_t cells() const noexcept { return cells_; }
  const stats::Histogram& byte_values() const noexcept { return byte_; }
  const stats::Histogram& word_values() const noexcept { return word_; }
  const stats::Histogram& cell_checksums() const noexcept { return cell_; }
  const RunStats& zero_runs() const noexcept { return zero_; }
  const RunStats& ff_runs() const noexcept { return ff_; }

  /// Fraction of profiled bytes equal to v (0 when nothing profiled).
  double byte_fraction(std::uint8_t v) const;

  /// The manifest's "profile" sub-object (docs/OBSERVABILITY.md).
  std::string json() const;

 private:
  std::uint64_t bytes_ = 0;
  std::uint64_t cells_ = 0;
  stats::Histogram byte_{256};
  stats::Histogram word_{65536};
  stats::Histogram cell_{65535};  ///< mod-65535 congruence classes
  RunStats zero_;
  RunStats ff_;
};

}  // namespace cksum::trace
