// The distributed splice service (docs/DIST.md).
//
// One long-lived, epoll-driven thread owns the listening socket and a
// pool of worker connections shared across any number of concurrent
// named jobs. Each job keeps its own epoch-guarded lease table, a
// deterministic bitwise merge and at-most-once accounting across
// worker loss; jobs are admitted, scheduled round-robin over the pool,
// cancelled, and reported independently. A single-job run (`cksumlab
// splice --serve`) is just a service with one submitted job.
//
// Admission control bounds the service: at most `max_jobs` concurrent
// jobs and `max_queued_shards` not-yet-done shards across them; a
// submit beyond either is rejected up front (dist.jobs_rejected)
// rather than queued unboundedly. Each connection's outbound frames
// pass through a bounded write queue; a connection whose queue is full
// is skipped by the scheduler until it drains (dist.grants_deferred),
// and the deepest queue ever seen is recorded as the
// dist.write_queue_hwm counter.
//
// Jobs are submitted in-process (submit/cancel/wait/drain below) —
// the TCP side speaks only the worker protocol. Workers stay separate
// processes so each one's deterministic-counter deltas isolate its own
// evaluation work; a worker learns a job's configuration from a
// JobConfig frame before its first lease for that job.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dist/frame.hpp"
#include "dist/protocol.hpp"

namespace cksum::dist {

/// One job as submitted: a name, the worker-side run configuration,
/// and the shard space.
struct JobSpec {
  std::string name;
  ConfigMsg run;
  std::size_t nfiles = 0;
  std::size_t shard_files = 0;  ///< files per shard; 0 = auto
};

/// Shards `spec` splits into on a service provisioned for
/// `expected_workers` — what submit() charges against
/// max_queued_shards. With shard_files = 0 the service picks a few
/// shards per worker, so reassignment after a loss has somewhere to
/// go without shattering small corpora.
std::size_t job_shard_count(const JobSpec& spec, unsigned expected_workers);

enum class JobState : std::uint8_t {
  kRunning,    ///< admitted, shards outstanding
  kDone,       ///< every shard delivered and merged
  kCancelled,  ///< cancel() before completion; partial merge kept
  kAborted,    ///< fleet died and nobody reconnected
};
std::string_view name(JobState) noexcept;

/// One job's merged result and its per-worker decomposition.
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

/// A job's terminal (or in-flight) view.
struct JobReport {
  std::uint64_t job = 0;
  std::string name;
  JobState state = JobState::kRunning;
  DistReport report;

  /// One element of the manifest's "dist" array: job id, name, state,
  /// then every DistReport member (docs/DIST.md).
  std::string json() const;
};

struct ServiceLimits {
  std::size_t max_jobs = 4;
  std::size_t max_queued_shards = 4096;  ///< sum of not-yet-done shards
  std::size_t max_write_queue = 64;      ///< frames per connection
};

struct ServiceConfig {
  std::uint16_t port = 0;  ///< listen port; 0 = ephemeral
  /// Hold every grant until this many workers have said Hello — the
  /// start barrier that lets the fault drills kill a worker that
  /// provably holds a lease. 0 = off.
  unsigned expected_workers = 0;
  std::uint64_t lease_timeout_ms = 15000;
  /// Abort every running job when no worker is connected and none has
  /// arrived for this long.
  std::uint64_t idle_abort_ms = 30000;
  ServiceLimits limits;
};

/// Observer callbacks from inside the service loop.
struct ServiceEvent {
  enum class Kind : std::uint8_t {
    kWorkerConnected,
    kResultAccepted,
    kLeaseReassigned,
    kWorkerLost,
    kJobDone,
    kJobCancelled,
  };
  Kind kind;
  std::uint64_t worker_id = 0;
  std::uint64_t pid = 0;
  std::size_t shard = 0;
  std::uint64_t job = 0;
};

/// Bounded FIFO of outbound frames for one connection — the unit the
/// per-connection backpressure is built from. Not thread-safe; the
/// service loop is its only user (tests drive it directly).
class BoundedWriteQueue {
 public:
  explicit BoundedWriteQueue(std::size_t capacity) : cap_(capacity) {}

  /// False (and nothing queued) when the queue is at capacity.
  bool push(MsgType type, util::Bytes payload) {
    if (q_.size() >= cap_) return false;
    q_.emplace_back(type, std::move(payload));
    if (q_.size() > hwm_) hwm_ = q_.size();
    return true;
  }
  bool pop(MsgType* type, util::Bytes* payload) {
    if (q_.empty()) return false;
    *type = q_.front().first;
    *payload = std::move(q_.front().second);
    q_.pop_front();
    return true;
  }
  bool empty() const noexcept { return q_.empty(); }
  bool full() const noexcept { return q_.size() >= cap_; }
  std::size_t size() const noexcept { return q_.size(); }
  std::size_t capacity() const noexcept { return cap_; }
  /// Deepest the queue has ever been.
  std::size_t hwm() const noexcept { return hwm_; }

 private:
  std::size_t cap_;
  std::size_t hwm_ = 0;
  std::deque<std::pair<MsgType, util::Bytes>> q_;
};

class JobService {
 public:
  /// Binds, listens, and starts the service thread immediately
  /// (throws std::runtime_error on bind failure) so port() is valid
  /// before workers are spawned.
  explicit JobService(ServiceConfig cfg);
  /// Stops the loop and closes every connection. Running jobs are
  /// left as-is (call drain() for a graceful shutdown).
  ~JobService();
  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Must be set before any worker connects (not synchronised with
  /// the loop beyond the submit/cancel mutex).
  void set_event_hook(std::function<void(const ServiceEvent&)> hook);

  /// Admit a job, or reject it (nullopt + dist.jobs_rejected) when the
  /// job or queued-shard limit would be exceeded. Job ids start at 1.
  /// A job with no shards is done on admission.
  std::optional<std::uint64_t> submit(const JobSpec& spec);

  /// Cancel a running job: no further grants, in-flight results are
  /// discarded as stale, the partial merge is kept in its report.
  /// False when the id is unknown or the job already terminal.
  bool cancel(std::uint64_t job);

  /// Block until the job leaves kRunning; returns its report.
  JobReport wait(std::uint64_t job);

  /// Current view of one job (non-blocking; nullopt when unknown).
  std::optional<JobReport> status(std::uint64_t job) const;

  /// Stop admitting, wait for every running job to finish, shut the
  /// worker pool down cleanly, stop the loop. Returns every job ever
  /// admitted, in submission order.
  std::vector<JobReport> drain();

  /// The manifest's "dist" member: a JSON array with one JobReport
  /// element per admitted job, in submission order.
  std::string jobs_json() const;

 private:
  struct Impl;
  void loop();

  ServiceConfig cfg_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
};

}  // namespace cksum::dist
