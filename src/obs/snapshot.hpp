// JSON rendering of snapshots and the run manifest.
//
// Manifest schema "cksum-metrics/1" (validated by
// scripts/check_manifest.py, consumed by scripts/bench_distill.py):
//
//   {
//     "schema": "cksum-metrics/1",
//     "tool": "cksumlab splice",        // driver + subcommand
//     "corpus": "nsc05",                // profile / directory / manifest
//     "seed": 0,
//     "threads": 8,
//     "git": "df47209",                 // git describe at build time
//     "wall_seconds": 1.234567,
//     "metrics": {
//       "splice.total": {"kind": "counter", "tag": "deterministic",
//                        "value": 123},
//       "sched.open_files": {"kind": "gauge", "tag": "scheduling",
//                            "value": 0},
//       "sched.chunk_ns": {"kind": "histogram", "tag": "timing",
//                          "count": 9, "sum": 12345,
//                          "buckets": [0, ...32 entries...]}
//     },
//     "report": { ... }                 // optional driver-specific blob
//   }
//
// Periodic progress lines (the exporter's JSONL stream) reuse the same
// metrics object: {"t": <elapsed seconds>, "metrics": {...}}.
#pragma once

#include <string>
#include <string_view>

#include "obs/registry.hpp"

namespace cksum::obs {

inline constexpr std::string_view kManifestSchema = "cksum-metrics/1";

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(std::string_view s);

/// The `"metrics"` object: every metric keyed by name, in registration
/// order.
std::string metrics_json(const Snapshot& snap);

/// Run identity recorded alongside the metrics.
struct RunInfo {
  std::string tool;    ///< e.g. "cksumlab splice"
  std::string corpus;  ///< profile name, directory, or manifest path
  std::uint64_t seed = 0;
  unsigned threads = 0;
  double wall_seconds = 0.0;
  /// Optional extra top-level members, already rendered, without the
  /// surrounding braces — e.g. "\"report\": {...}".
  std::string extra_json;
};

/// One deterministic counter's growth between two snapshots.
struct CounterDelta {
  std::string name;
  std::uint64_t delta = 0;

  friend bool operator==(const CounterDelta&, const CounterDelta&) = default;
};

/// (name, after - before) for every deterministic-tagged counter that
/// grew between the two snapshots, in `after`'s registration order.
/// Counters absent from `before` contribute their full `after` value.
/// Both snapshots may be full or both filtered to kDeterministic
/// (Registry::snapshot(Tag::kDeterministic)); the result is the same.
/// This is the delta-export primitive the distributed worker uses to
/// attribute one lease's contribution: the coordinator adds accepted
/// deltas into its own registry, so the aggregate manifest's
/// deterministic metrics match a single-process run exactly.
std::vector<CounterDelta> counter_deltas(const Snapshot& before,
                                         const Snapshot& after);

/// `git describe` captured at build time ("unknown" outside a git
/// checkout).
std::string git_describe();

std::string manifest_json(const RunInfo& info, const Snapshot& snap);

/// Write the manifest to `path`. Returns false (and leaves any partial
/// file behind) on I/O failure.
bool write_manifest(const std::string& path, const RunInfo& info,
                    const Snapshot& snap);

}  // namespace cksum::obs
