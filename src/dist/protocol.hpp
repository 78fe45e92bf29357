// Message payload encodings for the distributed splice service.
//
// Each message is the payload of one frame (frame.hpp); all integers
// are little-endian, strings are u32-length-prefixed UTF-8, and
// SpliceStats travels as a u32 field count followed by every counter
// in declaration order — the count is checked on decode so a skewed
// build (different kMaxTrackedK, added counters) is rejected instead
// of silently mis-merged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/dircorpus.hpp"
#include "core/splice_sim.hpp"
#include "obs/snapshot.hpp"
#include "util/bytes.hpp"

namespace cksum::dist {

/// v3: no frame answers Hello; the service's first frame to a worker
/// is a JobConfig (or Shutdown). v2 added the job id to
/// lease/heartbeat/result frames and corpus stores.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// How ConfigMsg::corpus names the corpus; a worker opens it with
/// core::SpliceCorpus, as a single-process run does.
using CorpusKind = core::CorpusKind;

/// worker -> service, first frame on the connection.
struct HelloMsg {
  std::uint32_t proto = kProtocolVersion;
  std::uint64_t worker_id = 0;
  std::uint64_t pid = 0;
};

/// One job's run configuration (carried inside JobConfigMsg):
/// everything needed to reconstruct the exact single-process run.
struct ConfigMsg {
  CorpusKind corpus_kind = CorpusKind::kProfile;
  std::string corpus;
  double scale = 1.0;
  std::uint64_t segment = 256;
  std::uint8_t transport = 0;  ///< alg::Algorithm
  bool trailer = false;        ///< ChecksumPlacement::kTrailer
  bool compress = false;
  std::uint32_t threads = 1;   ///< evaluator threads inside the worker
  std::uint32_t heartbeat_ms = 1000;

  bool operator==(const ConfigMsg&) const = default;
};

/// service -> worker: a named job's run configuration, sent once per
/// connection: at its Hello when the service already knows the
/// configuration, else right before its first lease.
struct JobConfigMsg {
  std::uint64_t job = 0;
  std::string name;  ///< job name; the worker's sub-manifest corpus
  ConfigMsg run;
};

/// service -> worker: lease on files [begin, end) of shard `shard`.
/// `epoch` is the at-most-once token — it increments on every
/// (re)grant of the shard, and results carrying a stale epoch are
/// discarded by the service. `job` scopes the shard space: shard
/// indices are per-job.
struct LeaseGrantMsg {
  std::uint64_t shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t job = 0;
};

/// worker -> service: the completed shard's statistics plus the
/// deterministic-counter growth its evaluation caused in the worker's
/// registry (obs::counter_deltas), so the service can reproduce the
/// single-process aggregate exactly.
struct LeaseResultMsg {
  std::uint64_t shard = 0;
  std::uint64_t epoch = 0;
  core::SpliceStats stats;
  std::vector<obs::CounterDelta> deltas;
  std::uint64_t job = 0;
};

/// worker -> service while evaluating (extends the lease deadline).
struct HeartbeatMsg {
  std::uint64_t shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t job = 0;
};

/// worker -> service on clean shutdown; `manifest_path` is the
/// worker's own sub-manifest ("" when metrics export is off).
struct GoodbyeMsg {
  std::string manifest_path;
};

util::Bytes encode(const HelloMsg&);
util::Bytes encode(const ConfigMsg&);
util::Bytes encode(const JobConfigMsg&);
util::Bytes encode(const LeaseGrantMsg&);
util::Bytes encode(const LeaseResultMsg&);
util::Bytes encode(const HeartbeatMsg&);
util::Bytes encode(const GoodbyeMsg&);

std::optional<HelloMsg> decode_hello(util::ByteView);
std::optional<ConfigMsg> decode_config(util::ByteView);
std::optional<JobConfigMsg> decode_job_config(util::ByteView);
std::optional<LeaseGrantMsg> decode_lease_grant(util::ByteView);
std::optional<LeaseResultMsg> decode_lease_result(util::ByteView);
std::optional<HeartbeatMsg> decode_heartbeat(util::ByteView);
std::optional<GoodbyeMsg> decode_goodbye(util::ByteView);

/// SpliceStats wire form, exposed for the serde round-trip tests.
void encode_stats(util::Bytes& out, const core::SpliceStats& st);
bool decode_stats(util::ByteView in, std::size_t* offset,
                  core::SpliceStats* out);

/// Idempotently register the dist.* metric family (frame traffic,
/// lease lifecycle, worker roster, the worker's lease wait) with
/// obs::Registry::global(). Counters are kScheduling, the wait
/// histogram kTiming: shard placement and wire traffic depend on
/// timing, never on the corpus. Names are documented in
/// docs/OBSERVABILITY.md.
void register_dist_metrics();

}  // namespace cksum::dist
