#include "dist/worker.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "atm/demux.hpp"
#include "checksum/kernels/kernel.hpp"
#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/splice_sim.hpp"
#include "dist/frame.hpp"
#include "dist/protocol.hpp"
#include "faults/channel.hpp"
#include "fsgen/corpus_store.hpp"
#include "fsgen/profile.hpp"
#include "obs/snapshot.hpp"
#include "util/rng.hpp"

namespace cksum::dist {
namespace {

/// Connect with exponential backoff and seeded jitter: 50ms doubling
/// to a 2s ceiling, each wait stretched by up to a quarter so a fleet
/// of workers spawned together does not hammer the service in
/// lockstep. Gives up after ~12s of cumulative waiting (same overall
/// patience as the old fixed 40x250ms schedule).
int connect_service(const std::string& host, std::uint16_t port,
                    std::uint64_t seed) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  util::Rng jitter = util::Rng(seed).child(0x5EED);
  std::uint64_t delay_ms = 50;
  for (std::uint64_t waited_ms = 0; waited_ms < 12000;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    ::close(fd);
    const std::uint64_t wait = delay_ms + jitter.below(delay_ms / 4 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    waited_ms += wait;
    delay_ms = std::min<std::uint64_t>(delay_ms * 2, 2000);
  }
  return -1;
}

/// The corpus as the worker sees it: either a synthetic filesystem or
/// a sorted real-file list. Shard indices address the same sequence a
/// single-process run walks, so shard evaluation reproduces exactly
/// the per-file stats that run would have merged.
struct WorkerCorpus {
  std::unique_ptr<fsgen::Filesystem> fs;
  std::vector<std::filesystem::path> files;  // directory mode
  std::unique_ptr<fsgen::CorpusReader> store;  // corpus-file mode

  std::size_t size() const {
    if (store) return store->file_count();
    return fs ? fs->file_count() : files.size();
  }
};

WorkerCorpus load_corpus(const ConfigMsg& cfg) {
  WorkerCorpus c;
  switch (cfg.corpus_kind) {
    case CorpusKind::kProfile:
      c.fs = std::make_unique<fsgen::Filesystem>(fsgen::profile(cfg.corpus),
                                                 cfg.scale);
      break;
    case CorpusKind::kManifest:
      c.fs = std::make_unique<fsgen::Filesystem>(fsgen::Filesystem::from_manifest(
          fsgen::profile("nsc05"), cfg.corpus));
      break;
    case CorpusKind::kDirectory:
      c.files = core::list_corpus_files(cfg.corpus);
      break;
    case CorpusKind::kCorpusFile: {
      std::string err;
      c.store = fsgen::CorpusReader::open(cfg.corpus, &err);
      if (!c.store)
        throw std::runtime_error("corpus store " + cfg.corpus + ": " + err);
      break;
    }
  }
  return c;
}

core::SpliceStats evaluate_range(const core::SpliceRunConfig& run,
                                 const WorkerCorpus& corpus,
                                 std::size_t begin, std::size_t end) {
  if (corpus.store) return core::run_corpus_range(run, *corpus.store, begin, end);
  if (corpus.fs) return core::run_filesystem_range(run, *corpus.fs, begin, end);
  // Directory mode: same skip-empty walk as core::run_directory, over
  // the lease's slice of the sorted file list.
  core::SpliceStats st;
  const core::DirLimits limits;
  end = std::min(end, corpus.files.size());
  for (std::size_t i = begin; i < end; ++i) {
    const util::Bytes file =
        core::read_file_prefix(corpus.files[i], limits.max_file_bytes);
    if (file.empty()) continue;
    st.merge(core::run_file(run, util::ByteView(file)));
  }
  return st;
}

/// Heartbeats for the lease under evaluation, sent from a side thread
/// while the main thread is busy inside the evaluator. The first one
/// goes out one (jittered) period after the lease begins; the period
/// comes from the lease's job.
class HeartbeatPump {
 public:
  HeartbeatPump(FrameChannel& ch, std::uint64_t seed)
      : ch_(ch), jitter_(util::Rng(seed).child(0xBEA7)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~HeartbeatPump() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void begin_lease(const HeartbeatMsg& hb, std::uint32_t interval_ms) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      hb_ = hb;
      interval_ms_ = std::max(50u, interval_ms);
      active_ = true;
      ++lease_;
    }
    cv_.notify_all();
  }
  void end_lease() {
    std::lock_guard<std::mutex> lk(mu_);
    active_ = false;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      if (!active_) {
        cv_.wait(lk);
        continue;
      }
      // Uniform in [0.75, 1.25] of the nominal interval (mean exactly
      // the interval, so lease-expiry math is unchanged) to keep a
      // worker fleet's heartbeats from arriving in synchronized waves.
      const std::uint64_t wait = interval_ms_ - interval_ms_ / 4 +
                                 jitter_.below(interval_ms_ / 2 + 1);
      const std::uint64_t lease = lease_;
      // A new lease restarts the period.
      if (cv_.wait_for(lk, std::chrono::milliseconds(wait),
                       [&] { return stop_ || lease_ != lease; }))
        continue;
      if (!active_) continue;
      const HeartbeatMsg hb = hb_;
      lk.unlock();
      ch_.send(MsgType::kHeartbeat, encode(hb));
      lk.lock();
    }
  }

  FrameChannel& ch_;
  util::Rng jitter_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool stop_ = false;
  bool active_ = false;
  std::uint64_t lease_ = 0;  ///< bumped by every begin_lease
  std::uint32_t interval_ms_ = 0;
  HeartbeatMsg hb_;
};

/// Reconstruct the exact run configuration for one job. A corpus
/// store's flow is authoritative (the transport checksum is baked into
/// its packet bytes), so kCorpusFile jobs take it from the store.
core::SpliceRunConfig make_run_config(const ConfigMsg& cfg,
                                      const WorkerCorpus& corpus) {
  core::SpliceRunConfig run;
  if (corpus.store) {
    run.flow = corpus.store->info().params.flow;
    run.compress_files = false;  // compression happened at build time
  } else {
    run.flow = core::paper_flow_config();
    run.flow.segment_size = cfg.segment;
    run.flow.packet.transport = static_cast<alg::Algorithm>(cfg.transport);
    run.flow.packet.placement = cfg.trailer ? net::ChecksumPlacement::kTrailer
                                            : net::ChecksumPlacement::kHeader;
    run.compress_files = cfg.compress;
  }
  run.threads = std::max(1u, cfg.threads);
  return run;
}

/// One job's worker-side state.
struct WorkerJob {
  std::string name;
  WorkerCorpus corpus;
  core::SpliceRunConfig run;
  std::uint32_t heartbeat_ms = 0;
};

/// The sub-manifest's run identity: the jobs this worker served, as a
/// "jobs" list and as the corpus (their names, comma-joined), with the
/// widest job's thread count.
void describe_jobs(const std::map<std::uint64_t, WorkerJob>& jobs,
                   obs::RunInfo* info) {
  info->threads = 1;
  std::string list;
  for (const auto& [id, j] : jobs) {
    if (!list.empty()) {
      info->corpus += ", ";
      list += ", ";
    }
    info->corpus += j.name;
    info->threads = std::max(info->threads, j.run.threads);
    list += "{\"job\": " + std::to_string(id) + ", \"name\": \"" +
            obs::json_escape(j.name) + "\"}";
  }
  info->extra_json += ", \"jobs\": [" + list + "]";
}

}  // namespace

int run_worker(const WorkerOptions& opts) {
  // Same up-front family registration as a single-process run, so the
  // delta snapshots and the sub-manifest carry complete families.
  core::register_splice_metrics();
  faults::register_fault_metrics();
  atm::register_atm_metrics();
  alg::kern::register_kernel_metrics();
  register_dist_metrics();

  const int fd = connect_service(opts.host, opts.port, opts.worker_id);
  if (fd < 0) {
    std::fprintf(stderr, "dist worker %llu: cannot connect to %s:%u\n",
                 static_cast<unsigned long long>(opts.worker_id),
                 opts.host.c_str(), opts.port);
    return 1;
  }
  FrameChannel ch(fd);

  HelloMsg hello;
  hello.worker_id = opts.worker_id;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  if (!ch.send(MsgType::kHello, encode(hello))) return 1;

  // Job table, filled by the JobConfig the service sends before the
  // first lease it grants this connection for each job.
  std::map<std::uint64_t, WorkerJob> jobs;
  auto add_job = [&](const JobConfigMsg& m) -> bool {
    WorkerJob j;
    j.name = m.name;
    j.heartbeat_ms = m.run.heartbeat_ms;
    try {
      j.corpus = load_corpus(m.run);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dist worker %llu: bad corpus config: %s\n",
                   static_cast<unsigned long long>(opts.worker_id), e.what());
      return false;
    }
    j.run = make_run_config(m.run, j.corpus);
    jobs.insert_or_assign(m.job, std::move(j));
    return true;
  };

  obs::Registry& reg = obs::Registry::global();
  const auto start = std::chrono::steady_clock::now();
  HeartbeatPump pump(ch, opts.worker_id);

  Frame f;
  while (true) {
    // Generous wait: the service may hold grants back until the whole
    // fleet has connected (the start barrier).
    if (!ch.recv(&f, 60000)) return 1;
    switch (f.type) {
      case MsgType::kJobConfig: {
        const auto m = decode_job_config(util::ByteView(f.payload));
        if (!m || !add_job(*m)) return 1;
        break;
      }
      case MsgType::kLeaseGrant: {
        const auto g = decode_lease_grant(util::ByteView(f.payload));
        if (!g) return 1;
        const auto it = jobs.find(g->job);
        if (it == jobs.end()) return 1;  // grant before JobConfig: bug
        const WorkerJob& job = it->second;
        pump.begin_lease(HeartbeatMsg{g->shard, g->epoch, g->job},
                         job.heartbeat_ms);
        const obs::Snapshot before = reg.snapshot();
        LeaseResultMsg res;
        res.shard = g->shard;
        res.epoch = g->epoch;
        res.job = g->job;
        res.stats = evaluate_range(job.run, job.corpus, g->begin, g->end);
        res.deltas = obs::counter_deltas(before, reg.snapshot());
        pump.end_lease();
        if (!ch.send(MsgType::kLeaseResult, encode(res))) return 1;
        break;
      }
      case MsgType::kShutdown: {
        GoodbyeMsg bye;
        if (!opts.metrics_out.empty()) {
          obs::RunInfo info;
          info.tool = opts.tool;
          info.seed = 0;
          info.wall_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          info.extra_json = alg::kern::kernel_manifest_json() +
                            ", \"worker\": " + std::to_string(opts.worker_id);
          describe_jobs(jobs, &info);
          if (obs::write_manifest(opts.metrics_out, info, reg.snapshot()))
            bye.manifest_path = opts.metrics_out;
        }
        ch.send(MsgType::kGoodbye, encode(bye));
        return 0;
      }
      default:
        return 1;
    }
  }
}

}  // namespace cksum::dist
