// The distributed splice service (docs/DIST.md).
//
// One epoll-driven thread owns the listening socket and the worker
// connections of exactly one job, handed over by start(): an
// epoch-guarded lease table, heartbeats and lease expiry, revocation
// on connection loss, a deterministic bitwise merge and at-most-once
// accounting across worker loss. `cksumlab splice --serve` and
// `faultlab distkill` each run one.
//
// The job is handed over in-process; the TCP side speaks only the
// worker protocol. Workers stay separate processes so each one's
// deterministic-counter deltas isolate its own evaluation work; a
// worker learns the job's configuration from a JobConfig frame, sent at
// its Hello once the service knows the configuration, and always
// before its first lease.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"

namespace cksum::dist {

/// The job a service runs: a name, the worker-side run configuration,
/// and the shard space.
struct JobSpec {
  std::string name;
  ConfigMsg run;
  std::size_t nfiles = 0;
  /// Files per shard; 0 = auto, a few shards per expected worker, so
  /// reassignment after a loss has somewhere to go without shattering
  /// small corpora.
  std::size_t shard_files = 0;
};

enum class JobState : std::uint8_t {
  kRunning,  ///< shards outstanding
  kDone,     ///< every shard delivered and merged
  kAborted,  ///< fleet died and nobody reconnected
};
std::string_view name(JobState) noexcept;

/// The job's merged result and its per-worker decomposition.
struct DistReport {
  core::SpliceStats stats;  ///< merged over all accepted shard results
  bool complete = false;    ///< every shard delivered
  std::size_t shards = 0;
  std::size_t reassigned = 0;    ///< re-grants after loss/expiry
  std::size_t stale_results = 0; ///< superseded-epoch deliveries dropped

  /// A worker that delivered at least one of the job's shards.
  struct WorkerInfo {
    std::uint64_t worker_id = 0;
    std::uint64_t pid = 0;
    std::size_t shards_accepted = 0;
    bool clean_exit = false;   ///< sent Goodbye
    std::string manifest;      ///< worker's sub-manifest path ("" = none)
    /// Sum of accepted deterministic-counter deltas, keyed by metric
    /// name — the per-worker decomposition the aggregate manifest
    /// embeds (checked by scripts/check_manifest.py --require-dist).
    std::map<std::string, std::uint64_t> metrics;
  };
  std::vector<WorkerInfo> workers;
};

/// The job's terminal (or in-flight) view.
struct JobReport {
  std::uint64_t job = 0;
  std::string name;
  JobState state = JobState::kRunning;
  DistReport report;

  /// The element of the manifest's "dist" array: job id, name, state,
  /// then every DistReport member (docs/DIST.md).
  std::string json() const;
};

struct ServiceConfig {
  std::uint16_t port = 0;  ///< listen port; 0 = ephemeral
  /// Hold every grant until this many workers have said Hello — the
  /// start barrier that lets the fault drills kill a worker that
  /// provably holds a lease. 0 = off. The barrier also opens, for the
  /// workers greeted by then, once lease_timeout_ms has passed since
  /// start(), so a worker lost before its Hello cannot stall the rest.
  unsigned expected_workers = 0;
  std::uint64_t lease_timeout_ms = 15000;
  /// Abort the job when no worker is connected and none has arrived
  /// for this long.
  std::uint64_t idle_abort_ms = 30000;
};

/// Observer callbacks from inside the service loop.
struct ServiceEvent {
  enum class Kind : std::uint8_t {
    kWorkerConnected,
    kResultAccepted,
    kLeaseReassigned,
    kWorkerLost,
    kJobDone,
  };
  Kind kind;
  std::uint64_t worker_id = 0;
  std::uint64_t pid = 0;
  std::size_t shard = 0;
};

class JobService {
 public:
  /// Binds, listens, and starts the service thread with no job yet
  /// (throws std::runtime_error on bind failure), so port() is valid
  /// and workers can be spawned while the caller still opens and
  /// verifies the corpus the job needs. Workers that connect meanwhile
  /// are greeted and wait for start().
  explicit JobService(ServiceConfig cfg);
  /// JobService(cfg), then start(job).
  JobService(ServiceConfig cfg, JobSpec job);
  /// Stops the loop and closes every connection.
  ~JobService();
  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Announce the job's name and run configuration before start():
  /// every greeted connection gets its JobConfig at once, so workers
  /// open the corpus while the caller still verifies its own. Grants
  /// still wait for start(), whose job must carry the same name and
  /// run (throws std::logic_error otherwise, or when called twice or
  /// after start()).
  void configure(std::string name, ConfigMsg run);

  /// Hand over the one job (throws std::logic_error on a second call):
  /// grants, each connection's first preceded by the job's JobConfig
  /// unless configure() has sent it, begin once the start barrier
  /// opens. The job's id is 1; a job with no shards is done at once.
  void start(JobSpec job);

  /// Must be set before any worker connects (not synchronised with
  /// the loop beyond the service mutex).
  void set_event_hook(std::function<void(const ServiceEvent&)> hook);

  /// Block until the job leaves kRunning and the worker pool has shut
  /// down (Goodbyes collected, or a 5 s bound); returns the report.
  /// Call only after start().
  JobReport wait();

  /// The manifest's "dist" member: a JSON array holding the job's
  /// JobReport element.
  std::string jobs_json() const;

 private:
  struct Impl;
  void loop();
  void wake() const;  ///< interrupt the loop's epoll_wait

  ServiceConfig cfg_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
};

}  // namespace cksum::dist
