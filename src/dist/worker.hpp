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

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "dist/frame.hpp"
#include "dist/protocol.hpp"
#include "util/rng.hpp"

namespace cksum::dist {

/// Heartbeats for the lease under evaluation, sent from a side thread
/// while the main thread is busy inside the evaluator. The first one
/// goes out one jittered period after the lease began, the next one
/// jittered period after that; the period comes from the lease's job.
///
/// The thread sleeps until the running lease's next heartbeat is due
/// and re-reads the lease when it wakes, so a stream of short leases
/// costs it nothing: begin_lease() wakes it only when it is idle (no
/// lease since its last wake), and a lease that began while it slept
/// pushes its wake-up out to that lease's own due time.
class HeartbeatPump {
 public:
  HeartbeatPump(FrameChannel& ch, std::uint64_t seed);
  ~HeartbeatPump();
  HeartbeatPump(const HeartbeatPump&) = delete;
  HeartbeatPump& operator=(const HeartbeatPump&) = delete;

  void begin_lease(const HeartbeatMsg& hb, std::uint32_t interval_ms);
  void end_lease();

 private:
  using Clock = std::chrono::steady_clock;
  void loop();
  /// Uniform in [0.75, 1.25] of the period (mean exactly the period,
  /// so lease-expiry math is unchanged), to keep a worker fleet's
  /// heartbeats from arriving in synchronized waves. Under mu_.
  Clock::duration jittered_period();

  FrameChannel& ch_;
  util::Rng jitter_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool active_ = false;  ///< a lease is running
  bool idle_ = false;    ///< the thread waits with no due time
  std::uint32_t interval_ms_ = 0;
  Clock::time_point due_;  ///< the running lease's next heartbeat
  HeartbeatMsg hb_;
  std::thread thread_;  ///< last: starts once every member is set
};

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
