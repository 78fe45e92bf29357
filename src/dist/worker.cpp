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
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "atm/demux.hpp"
#include "checksum/kernels/kernel.hpp"
#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/splice_sim.hpp"
#include "dist/frame.hpp"
#include "dist/protocol.hpp"
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

/// The job's worker-side state.
struct WorkerJob {
  std::uint64_t id = 0;
  std::string name;
  std::optional<core::SpliceCorpus> corpus;
  core::SpliceRunConfig run;
  std::uint32_t heartbeat_ms = 0;
};

/// The sub-manifest's run identity: the job this worker served, as a
/// one-element "jobs" list and as the corpus (its name), with the
/// job's thread count ("jobs" is empty when no JobConfig arrived).
void describe_job(const std::optional<WorkerJob>& job, obs::RunInfo* info) {
  info->threads = 1;
  std::string list;
  if (job) {
    info->corpus = job->name;
    info->threads = job->run.threads;
    list = "{\"job\": " + std::to_string(job->id) + ", \"name\": \"" +
           obs::json_escape(job->name) + "\"}";
  }
  info->extra_json += ", \"jobs\": [" + list + "]";
}

}  // namespace

HeartbeatPump::HeartbeatPump(FrameChannel& ch, std::uint64_t seed)
    : ch_(ch),
      jitter_(util::Rng(seed).child(0xBEA7)),
      thread_([this] { loop(); }) {}

HeartbeatPump::~HeartbeatPump() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

HeartbeatPump::Clock::duration HeartbeatPump::jittered_period() {
  return std::chrono::milliseconds(interval_ms_ - interval_ms_ / 4 +
                                   jitter_.below(interval_ms_ / 2 + 1));
}

void HeartbeatPump::begin_lease(const HeartbeatMsg& hb,
                                std::uint32_t interval_ms) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    hb_ = hb;
    interval_ms_ = std::max(50u, interval_ms);
    active_ = true;
    due_ = Clock::now() + jittered_period();
    wake = idle_;
  }
  if (wake) cv_.notify_one();
}

void HeartbeatPump::end_lease() {
  std::lock_guard<std::mutex> lk(mu_);
  active_ = false;
}

void HeartbeatPump::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    if (!active_) {
      idle_ = true;
      cv_.wait(lk);
      idle_ = false;
      continue;
    }
    // Woken early, or by the due time of a lease that has since ended:
    // sleep on until the running lease's own due time.
    const Clock::time_point due = due_;
    if (Clock::now() < due) {
      cv_.wait_until(lk, due);
      continue;
    }
    const HeartbeatMsg hb = hb_;
    due_ = Clock::now() + jittered_period();
    lk.unlock();
    ch_.send(MsgType::kHeartbeat, encode(hb));
    lk.lock();
  }
}

int run_worker(const WorkerOptions& opts) {
  // Same up-front family registration as a single-process run, so the
  // delta snapshots and the sub-manifest carry complete families.
  core::register_splice_metrics();
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

  // The job, set by the JobConfig the service sends at the Hello when
  // it already knows the job's configuration (the serving process
  // still verifies the corpus meanwhile), else right before the first
  // lease it grants this connection.
  std::optional<WorkerJob> job;
  auto set_job = [&](const JobConfigMsg& m) -> bool {
    WorkerJob j;
    j.id = m.job;
    j.name = m.name;
    j.heartbeat_ms = m.run.heartbeat_ms;
    try {
      j.corpus.emplace(
          core::CorpusSource{m.run.corpus_kind, m.run.corpus, m.run.scale});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dist worker %llu: bad corpus config: %s\n",
                   static_cast<unsigned long long>(opts.worker_id), e.what());
      return false;
    }
    core::SpliceRunConfig run;  // a store's own flow wins in run_config
    run.flow = core::paper_flow_config();
    run.flow.segment_size = m.run.segment;
    run.flow.packet.transport = static_cast<alg::Algorithm>(m.run.transport);
    run.flow.packet.placement = m.run.trailer
                                    ? net::ChecksumPlacement::kTrailer
                                    : net::ChecksumPlacement::kHeader;
    run.compress_files = m.run.compress;
    run.threads = std::max(1u, m.run.threads);
    j.run = j.corpus->run_config(run);
    job = std::move(j);
    return true;
  };

  obs::Registry& reg = obs::Registry::global();
  const obs::Histogram lease_wait =
      reg.histogram("dist.lease_wait_ns", obs::Tag::kTiming);
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  // When the last result went out; the epoch until the first one has.
  Clock::time_point result_sent{};
  HeartbeatPump pump(ch, opts.worker_id);

  Frame f;
  bool granted = false;
  while (true) {
    // Until the first grant, wait without a bound: the serving process
    // spawns its workers before it verifies the corpus, which takes as
    // long as the store is large (a service that dies still closes the
    // socket). After it, a generous bound: a lost service or a hung
    // lease stream must not keep the worker forever.
    if (!ch.recv(&f, granted ? 60000 : -1)) return 1;
    switch (f.type) {
      case MsgType::kJobConfig: {
        const auto m = decode_job_config(util::ByteView(f.payload));
        if (!m || !set_job(*m)) return 1;
        break;
      }
      case MsgType::kLeaseGrant: {
        const auto g = decode_lease_grant(util::ByteView(f.payload));
        if (!g) return 1;
        // A grant before the JobConfig, or for another job: a bug.
        if (!job || g->job != job->id) return 1;
        granted = true;
        if (result_sent != Clock::time_point{})
          lease_wait.observe(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - result_sent)
                  .count()));
        pump.begin_lease(HeartbeatMsg{g->shard, g->epoch, g->job},
                         job->heartbeat_ms);
        // Only deterministic counters travel, so only they are taken.
        const obs::Snapshot before = reg.snapshot(obs::Tag::kDeterministic);
        LeaseResultMsg res;
        res.shard = g->shard;
        res.epoch = g->epoch;
        res.job = g->job;
        res.stats = job->corpus->run_range(job->run, g->begin, g->end);
        res.deltas = obs::counter_deltas(
            before, reg.snapshot(obs::Tag::kDeterministic));
        pump.end_lease();
        if (!ch.send(MsgType::kLeaseResult, encode(res))) return 1;
        result_sent = Clock::now();
        break;
      }
      case MsgType::kShutdown: {
        GoodbyeMsg bye;
        if (!opts.metrics_out.empty()) {
          obs::RunInfo info;
          info.tool = opts.tool;
          info.seed = 0;
          info.wall_seconds =
              std::chrono::duration<double>(Clock::now() - start).count();
          info.extra_json = alg::kern::kernel_manifest_json() +
                            ", \"worker\": " + std::to_string(opts.worker_id);
          describe_job(job, &info);
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
