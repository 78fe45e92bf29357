// The splice simulator — the paper's experimental apparatus (§3.2).
//
// For every pair of adjacent TCP segments of a simulated FTP transfer
// it enumerates every cell-count-consistent AAL5 splice and
// classifies it:
//
//   Total            all splices inspected
//   Caught by Header failed the IP/TCP syntactic checks
//   Identical data   passed them but reproduced an original packet
//   Remaining        corrupted packets that only the CRC or the
//                    transport checksum can catch
//   Missed by CRC    remaining splices the AAL5 CRC-32 passes
//   Missed by <sum>  remaining splices the transport checksum passes
//
// plus the header/trailer 2x2 matrix of Table 10 and per-substitution-
// length breakdowns for Tables 4-6.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "atm/splice.hpp"
#include "core/pdu_model.hpp"
#include "fsgen/profile.hpp"

namespace cksum::fsgen {
class CorpusReader;
}

namespace cksum::core {

struct SpliceRunConfig {
  net::FlowConfig flow;
  /// LZW-compress each file before transfer (Table 7).
  bool compress_files = false;
  /// Worker threads for filesystem-level runs. Work is claimed at
  /// (file, pair-chunk) granularity, so a single large file spreads
  /// over all workers too; every counter is additive, so the merged
  /// statistics are bitwise identical for any thread count. 0 = use
  /// all hardware threads; 1 = sequential.
  unsigned threads = 1;
};

inline constexpr std::size_t kMaxTrackedK = 24;

struct SpliceStats {
  std::uint64_t files = 0;
  std::uint64_t packets = 0;
  std::uint64_t pairs = 0;

  std::uint64_t total = 0;
  std::uint64_t caught_by_header = 0;
  std::uint64_t identical = 0;
  std::uint64_t remaining = 0;

  std::uint64_t missed_crc = 0;        ///< remaining, CRC-32 passed
  std::uint64_t missed_transport = 0;  ///< remaining, transport passed
  std::uint64_t missed_both = 0;

  /// Remaining splices the Koopman large-block sums pass (evaluated
  /// over the AAL5 CRC's coverage, so the columns are directly
  /// comparable with missed_crc).
  std::uint64_t missed_koopman_dual = 0;
  std::uint64_t missed_koopman_single = 0;

  /// Table 10 matrix (checksum result x data-identical result).
  std::uint64_t fail_identical = 0;  ///< checksum rejects an identical splice
  std::uint64_t pass_identical = 0;
  std::uint64_t fail_changed = 0;
  std::uint64_t pass_changed = 0;  ///< == missed_transport

  /// Splices including packet 2's header cell, and how many of those
  /// the transport missed (§5.3's "coloured" population).
  std::uint64_t remaining_with_hdr2 = 0;
  std::uint64_t missed_with_hdr2 = 0;

  /// By substitution length k = cells sourced from packet 2 (EOM
  /// included), clamped to kMaxTrackedK-1.
  std::array<std::uint64_t, kMaxTrackedK> remaining_by_k{};
  std::array<std::uint64_t, kMaxTrackedK> missed_by_k{};

  std::uint64_t slow_path = 0;  ///< splices evaluated by materialisation
  /// Splices evaluated (or bulk-accounted) from partial sums alone.
  /// fast_path + slow_path == total; the reference corpus stays >99%
  /// fast (asserted in tests).
  std::uint64_t fast_path = 0;

  void merge(const SpliceStats& other);

  /// Bitwise equality across every counter — lets tests assert that a
  /// run is deterministic regardless of thread count.
  friend bool operator==(const SpliceStats&, const SpliceStats&) = default;

  double pct_of_remaining(std::uint64_t n) const {
    return remaining == 0
               ? 0.0
               : 100.0 * static_cast<double>(n) / static_cast<double>(remaining);
  }
};

/// Every SpliceStats counter, in declaration order: the one list that
/// SpliceStats::merge and the dist wire codec (dist/protocol.cpp) walk.
/// Calls f once per counter, passing that counter of each of `s`, so
/// merge walks two stats at once.
template <typename F, typename... S>
constexpr void for_each_splice_counter(F&& f, S&... s) {
  f(s.files...);
  f(s.packets...);
  f(s.pairs...);
  f(s.total...);
  f(s.caught_by_header...);
  f(s.identical...);
  f(s.remaining...);
  f(s.missed_crc...);
  f(s.missed_transport...);
  f(s.missed_both...);
  f(s.missed_koopman_dual...);
  f(s.missed_koopman_single...);
  f(s.fail_identical...);
  f(s.pass_identical...);
  f(s.fail_changed...);
  f(s.pass_changed...);
  f(s.remaining_with_hdr2...);
  f(s.missed_with_hdr2...);
  for (std::size_t i = 0; i < kMaxTrackedK; ++i) f(s.remaining_by_k[i]...);
  for (std::size_t i = 0; i < kMaxTrackedK; ++i) f(s.missed_by_k[i]...);
  f(s.slow_path...);
  f(s.fast_path...);
}

/// How many counters for_each_splice_counter visits (the dist wire
/// codec's field count).
inline constexpr std::size_t kSpliceCounterCount = [] {
  SpliceStats s;
  std::size_t n = 0;
  for_each_splice_counter([&](std::uint64_t) { ++n; }, s);
  return n;
}();
static_assert(kSpliceCounterCount * sizeof(std::uint64_t) ==
                  sizeof(SpliceStats),
              "for_each_splice_counter must visit every SpliceStats counter");

/// Evaluate every splice of the adjacent pair (p1, p2).
///
/// Splices are walked as a prefix-sharing DFS over cell positions,
/// grown a level at a time: each cell's contribution at each position
/// it can occupy is reduced once per pair into every check's residue
/// ring (CRC, Internet/Fletcher, Koopman), with its identical-to-p1/p2
/// flags, and a node is its parent's residues plus one such term,
/// shared by every splice extending that prefix, so the amortised cost
/// per splice is O(1) instead of O(cells). A splice itself costs only
/// equality compares: each prefix node holds the residue every check
/// needs from the suffix, and p2's suffixes are pooled once. Subtrees
/// whose first cell fails the header checks are bulk-accounted
/// combinatorially without being enumerated. Each call adds its
/// deltas to the splice.* telemetry counters once; the run functions
/// below add theirs once per chunk of pairs, to the same totals. They
/// also grow up to four adjacent pairs of one shape as one DFS, each
/// pair in its own vector lanes, with the same results as a call per
/// pair.
void evaluate_pair(const net::PacketConfig& cfg, const SimPacket& p1,
                   const SimPacket& p2, SpliceStats& stats);

/// evaluate_pair with p2's suffixes regrown under every prefix node
/// instead of pooled once per pair: the path packets with more than
/// 14 non-EOM cells take (none under the default MTUs). Both paths
/// share one leaf rule and produce identical stats; the differential
/// tests hold this one to the byte oracle on shapes the oracle can
/// afford.
void evaluate_pair_unpooled(const net::PacketConfig& cfg, const SimPacket& p1,
                            const SimPacket& p2, SpliceStats& stats);

/// Outcome of one splice under the receiver's checks.
struct SpliceOutcome {
  bool caught_by_header = false;
  bool identical = false;       ///< meaningful only when headers passed
  bool transport_pass = false;  ///< computed even for identical splices
  bool crc_pass = false;
  bool koopman_dual_pass = false;    ///< over the AAL5 CRC coverage
  bool koopman_single_pass = false;  ///< over the AAL5 CRC coverage
};

/// Reference evaluation of a single splice by materialising its bytes
/// and running the full receiver checks — the oracle the partial-sums
/// fast path is tested against, and the slow path it falls back to.
SpliceOutcome evaluate_splice_reference(const net::PacketConfig& cfg,
                                        const SimPacket& p1,
                                        const SimPacket& p2,
                                        const atm::SpliceSpec& splice);

/// Idempotently register the splice/scheduler metric families with
/// obs::Registry::global(). The evaluator registers lazily on first
/// use; drivers call this up front so exported manifests carry the
/// full family (zero-valued where nothing ran). Names and tags are
/// documented in docs/OBSERVABILITY.md.
void register_splice_metrics();

/// Simulate the transfer of one file and evaluate all adjacent pairs.
SpliceStats run_file(const SpliceRunConfig& cfg, util::ByteView file);

/// Simulate a whole filesystem transfer (optionally compressing each
/// file first, per Table 7).
SpliceStats run_filesystem(const SpliceRunConfig& cfg,
                           const fsgen::Filesystem& fs);

/// The loaders behind SpliceCorpus (core/dircorpus.hpp): each
/// evaluates files [begin, end) through one pair-granular scheduler.
/// Every counter is additive, so summing the results of a disjoint
/// cover of the files, over any boundaries, in any order, is bitwise
/// identical to the whole run.
///
/// File i's bytes, or std::nullopt for a file to skip uncounted.
using FileBytes = std::function<std::optional<util::Bytes>(std::size_t)>;

/// Each file's bytes come from `file_bytes` and are packetised
/// (prepare_file). The caller clamps [begin, end) to its file count.
SpliceStats run_bytes_range(const SpliceRunConfig& cfg,
                            const FileBytes& file_bytes, std::size_t begin,
                            std::size_t end);

/// A corpus store's packets are read as views into its mapping
/// (CorpusReader::file_views), not re-packetised or copied, so
/// cfg.flow MUST be the store's recorded flow (SpliceCorpus::run_config
/// takes it from the store) and compress_files is ignored. `end` is
/// clamped to the file count. Bitwise identical to run_filesystem over
/// the source filesystem — the corpus-format conformance contract
/// (tests/test_corpus_store).
SpliceStats run_corpus_range(const SpliceRunConfig& cfg,
                             const fsgen::CorpusReader& corpus,
                             std::size_t begin, std::size_t end);

}  // namespace cksum::core
