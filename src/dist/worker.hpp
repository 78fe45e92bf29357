// The worker side of the distributed splice service: connect, say
// Hello, learn the service's one job from its JobConfig, then evaluate
// that job's shard leases, opening the corpus and running it through
// the same core::SpliceCorpus and scheduler a single-process run uses,
// and stream each shard's SpliceStats and deterministic-counter deltas
// back.
//
// A heartbeat thread keeps the current lease alive while the (possibly
// long) evaluation runs on the main thread; both threads share the
// FrameChannel, whose send side is mutex-serialised.
#pragma once

#include <cstdint>
#include <string>

namespace cksum::dist {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t worker_id = 0;
  /// Write this worker's own run manifest here on clean shutdown (""
  /// = off). The path travels back in Goodbye so the service's
  /// aggregate manifest can list its sub-manifests.
  std::string metrics_out;
  /// RunInfo.tool recorded in the sub-manifest.
  std::string tool = "cksumlab splice-worker";
};

/// Run the worker loop to completion. Returns a process exit code:
/// 0 = clean shutdown, 1 = connection/config failure.
int run_worker(const WorkerOptions& opts);

}  // namespace cksum::dist
