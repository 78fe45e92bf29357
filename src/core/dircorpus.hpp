// Run the paper's measurements over a real directory tree — the same
// experiment the authors ran over their departments' filesystems,
// pointed at whatever data the user has today — or over any other
// splice corpus source, opened by SpliceCorpus.
//
// Files are enumerated deterministically (sorted paths), truncated by
// the caller's limits, and streamed through the same simulator and
// collectors the synthetic profiles use.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cellstats.hpp"
#include "core/splice_sim.hpp"
#include "fsgen/corpus_store.hpp"

namespace cksum::core {

struct DirLimits {
  std::size_t max_files = 10000;
  std::size_t max_total_bytes = 256 * 1024 * 1024;
  std::size_t max_file_bytes = 16 * 1024 * 1024;  ///< larger files truncated
};

/// Regular files under `root`, sorted by path, capped by limits.
/// Unreadable entries are skipped. Throws std::filesystem errors only
/// if `root` itself is inaccessible.
std::vector<std::filesystem::path> list_corpus_files(
    const std::filesystem::path& root, const DirLimits& limits = {});

/// Read (a prefix of) one file.
util::Bytes read_file_prefix(const std::filesystem::path& path,
                             std::size_t max_bytes);

/// Where a splice run's files come from. The values are the dist
/// wire encoding (dist::CorpusKind is this enum); never renumber.
enum class CorpusKind : std::uint8_t {
  kProfile = 0,    ///< corpus = profile name, scaled by `scale`
  kDirectory = 1,  ///< corpus = directory path
  kManifest = 2,   ///< corpus = the manifest *text* itself
  kCorpusFile = 3, ///< corpus = path to a sealed corpus store
};

struct CorpusSource {
  CorpusKind kind = CorpusKind::kProfile;
  std::string corpus;
  double scale = 1.0;  ///< kProfile only
};

/// The synthetic filesystem a profile or manifest source expands to;
/// std::nullopt for a directory or a store. Throws a std::exception on
/// an unknown profile or a malformed manifest.
std::optional<fsgen::Filesystem> open_filesystem(const CorpusSource& src);

/// One opened corpus source, whatever its kind, run through the one
/// pair-granular scheduler. The stats of any disjoint cover of
/// [0, file_count()) by run_range calls merge to the whole run's, bit
/// for bit — the contract the distributed service's leases rely on.
class SpliceCorpus {
 public:
  /// Throws a std::exception if the source cannot be opened: an
  /// unknown profile, a malformed manifest, a missing directory, or a
  /// store that fails validation (the message carries its reason).
  explicit SpliceCorpus(const CorpusSource& src);

  std::size_t file_count() const;

  /// `requested`, except that a store's recorded flow replaces the
  /// requested one (the transport checksum is baked into its packet
  /// bytes) and compression is off (it happened at build time).
  SpliceRunConfig run_config(SpliceRunConfig requested) const;

  /// Evaluate files [begin, end) (clamped) under a run_config result.
  SpliceStats run_range(const SpliceRunConfig& cfg, std::size_t begin,
                        std::size_t end) const;

 private:
  std::optional<fsgen::Filesystem> fs_;        // profile, manifest
  std::vector<std::filesystem::path> files_;   // directory
  std::unique_ptr<fsgen::CorpusReader> store_;  // corpus store
};

/// Collect cell/block checksum distributions over a directory tree.
CellStatsCollector collect_directory_stats(const std::filesystem::path& root,
                                           CellStatsConfig cfg = {},
                                           const DirLimits& limits = {});

}  // namespace cksum::core
