#include "dist/service.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "dist/frame.hpp"
#include "dist/lease.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"

namespace cksum::dist {
namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Files per shard for `spec`: as asked, or auto-sized to
/// max(8, 4 * workers) shards of whole files.
std::size_t job_shard_files(const JobSpec& spec, unsigned expected_workers) {
  if (spec.shard_files != 0) return spec.shard_files;
  const std::size_t target_shards =
      std::max<std::size_t>(8, 4 * std::max(1u, expected_workers));
  return std::max<std::size_t>(1, spec.nfiles / target_shards);
}

std::string json_u64_map(const std::map<std::string, std::uint64_t>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + obs::json_escape(k) + "\": " + std::to_string(v);
  }
  out += "}";
  return out;
}

struct ServiceMetrics {
  obs::Counter connected, lost, granted, reassigned, accepted, stale,
      heartbeats;
};

ServiceMetrics service_metrics() {
  obs::Registry& reg = obs::Registry::global();
  ServiceMetrics m;
  m.connected = reg.counter("dist.workers_connected", obs::Tag::kScheduling);
  m.lost = reg.counter("dist.workers_lost", obs::Tag::kScheduling);
  m.granted = reg.counter("dist.leases_granted", obs::Tag::kScheduling);
  m.reassigned = reg.counter("dist.leases_reassigned", obs::Tag::kScheduling);
  m.accepted = reg.counter("dist.results_accepted", obs::Tag::kScheduling);
  m.stale = reg.counter("dist.results_stale", obs::Tag::kScheduling);
  m.heartbeats = reg.counter("dist.heartbeats", obs::Tag::kScheduling);
  return m;
}

/// The wire id of the one job a service runs.
constexpr std::uint64_t kJobId = 1;

/// Leases a connection may hold once one of its results has been
/// accepted: the one its worker evaluates and the next, queued in its
/// socket, so the worker never waits on the service between leases.
constexpr std::size_t kLeaseWindow = 2;

}  // namespace

std::string_view name(JobState s) noexcept {
  switch (s) {
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kAborted: return "aborted";
  }
  return "unknown";
}

std::string JobReport::json() const {
  std::string out = "{\"job\": " + std::to_string(job);
  out += ", \"name\": \"" + obs::json_escape(name) + "\"";
  out += ", \"state\": \"" + std::string(dist::name(state)) + "\"";
  out += ", \"workers\": " + std::to_string(report.workers.size());
  out += ", \"shards\": " + std::to_string(report.shards);
  out += ", \"reassigned\": " + std::to_string(report.reassigned);
  out += ", \"stale_results\": " + std::to_string(report.stale_results);
  out += ", \"complete\": " + std::string(report.complete ? "true" : "false");
  // The job's own deterministic totals: the sum of the accepted
  // per-worker contributions. check_manifest.py asserts both this
  // per-job identity and that the jobs sum to the aggregate metrics.
  std::map<std::string, std::uint64_t> totals;
  for (const DistReport::WorkerInfo& w : report.workers)
    for (const auto& [metric, v] : w.metrics) totals[metric] += v;
  out += ", \"metrics\": " + json_u64_map(totals);
  out += ", \"per_worker\": [";
  bool first = true;
  for (const DistReport::WorkerInfo& w : report.workers) {
    if (!first) out += ", ";
    first = false;
    out += "{\"worker\": " + std::to_string(w.worker_id);
    out += ", \"pid\": " + std::to_string(w.pid);
    out += ", \"shards\": " + std::to_string(w.shards_accepted);
    out += ", \"clean_exit\": " + std::string(w.clean_exit ? "true" : "false");
    if (!w.manifest.empty())
      out += ", \"manifest\": \"" + obs::json_escape(w.manifest) + "\"";
    out += ", \"metrics\": " + json_u64_map(w.metrics);
    out += "}";
  }
  out += "]}";
  return out;
}

/// A lease granted on a connection whose result has not come back.
struct HeldLease {
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
};

/// One worker connection and its service-side state.
struct SConn {
  std::unique_ptr<FrameChannel> ch;
  bool greeted = false;  ///< Hello received
  bool shutting_down = false;
  bool config_sent = false;  ///< JobConfig sent (before any grant)
  std::uint64_t worker_id = 0;
  std::uint64_t pid = 0;
  bool accepted_one = false;  ///< a result of this connection's merged
  /// Unanswered grants in grant order: the worker answers them in that
  /// order, so the front is the lease it is evaluating.
  std::vector<HeldLease> leases;
};

struct JobService::Impl {
  mutable std::mutex mu;
  std::condition_variable cv;
  std::function<void(const ServiceEvent&)> hook;
  bool has_config = false;  ///< spec.name and spec.run are known
  bool has_job = false;  ///< start() has handed the job over
  std::uint64_t start_ms = 0;  ///< when it did
  JobSpec spec;
  LeaseTable table{0, 1};
  JobReport rep;
  std::vector<std::unique_ptr<SConn>> conns;
  std::size_t greeted = 0;  ///< connections past Hello
  bool started = false;  ///< start barrier latched open (one-shot)
  std::uint64_t last_activity = 0;
  bool shutdown_sent = false;
  std::uint64_t shutdown_deadline = 0;
  bool drained = false;  ///< job terminal and the pool shut down
  bool stop = false;
  ServiceMetrics met;

  Impl() { rep.job = kJobId; }

  void set_job(JobSpec s, std::size_t shard_files) {
    if (has_job)
      throw std::logic_error("dist: JobService::start called twice");
    if (has_config && (s.name != spec.name || !(s.run == spec.run)))
      throw std::logic_error(
          "dist: JobService::start's job differs from the configured one");
    spec = std::move(s);
    table = LeaseTable(spec.nfiles, shard_files);
    has_config = has_job = true;
    rep.name = spec.name;
    rep.report.shards = table.shard_count();
    if (table.complete()) {  // nothing to lease: done at once
      rep.state = JobState::kDone;
      rep.report.complete = true;
    }
  }
};

JobService::JobService(ServiceConfig cfg) : cfg_(cfg) {
  register_dist_metrics();
  impl_ = std::make_unique<Impl>();
  impl_->met = service_metrics();
  impl_->last_activity = now_ms();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("dist: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("dist: cannot bind/listen on service port");
  }
  socklen_t alen = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) ==
      0)
    port_ = ntohs(addr.sin_port);

  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("dist: pipe2() failed");
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];

  thread_ = std::thread([this] { loop(); });
}

JobService::JobService(ServiceConfig cfg, JobSpec job) : JobService(cfg) {
  start(std::move(job));
}

JobService::~JobService() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_rd_);
  ::close(wake_wr_);
}

void JobService::start(JobSpec job) {
  const std::size_t shard_files = job_shard_files(job, cfg_.expected_workers);
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->set_job(std::move(job), shard_files);
    impl_->start_ms = impl_->last_activity = now_ms();
  }
  wake();
}

void JobService::configure(std::string name, ConfigMsg run) {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (impl_->has_config)
      throw std::logic_error(
          "dist: JobService::configure called twice or after start");
    impl_->spec.name = std::move(name);
    impl_->spec.run = std::move(run);
    impl_->has_config = true;
  }
  wake();
}

void JobService::wake() const {
  const char b = 1;
  (void)!::write(wake_wr_, &b, 1);
}

void JobService::set_event_hook(std::function<void(const ServiceEvent&)> hook) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->hook = std::move(hook);
}

JobReport JobService::wait() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->cv.wait(lk, [&] { return impl_->drained; });
  return impl_->rep;
}

std::string JobService::jobs_json() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return "[" + impl_->rep.json() + "]";
}

void JobService::loop() {
  Impl& im = *impl_;
  const int ep = ::epoll_create1(0);
  if (ep < 0) return;
  auto add_fd = [&](int fd, std::uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  };
  // Tags: 0 = listen, 1 = wake pipe, otherwise fd + 2 of a connection
  // (fds are looked up by value; connections are few).
  add_fd(listen_fd_, 0);
  add_fd(wake_rd_, 1);

  std::unique_lock<std::mutex> lk(im.mu);

  auto emit = [&](ServiceEvent::Kind kind, const SConn& c, std::size_t shard) {
    if (im.hook) im.hook(ServiceEvent{kind, c.worker_id, c.pid, shard});
  };

  auto running = [&] {
    return im.has_job && im.rep.state == JobState::kRunning;
  };

  auto drop_conn = [&](std::size_t i, bool lost) {
    SConn& c = *im.conns[i];
    if (lost && c.greeted && !c.shutting_down) {
      if (running()) im.table.revoke_worker(c.worker_id);
      im.met.lost.add(1);
      emit(ServiceEvent::Kind::kWorkerLost, c,
           c.leases.empty() ? 0 : c.leases.front().shard);
    }
    if (c.greeted) im.greeted--;
    im.conns.erase(im.conns.begin() + static_cast<std::ptrdiff_t>(i));
  };

  auto worker_info = [&](const SConn& c) -> DistReport::WorkerInfo& {
    for (auto& w : im.rep.report.workers)
      if (w.worker_id == c.worker_id) return w;
    im.rep.report.workers.push_back({c.worker_id, c.pid, 0, false, "", {}});
    return im.rep.report.workers.back();
  };

  auto end_job = [&](JobState state) {
    im.rep.state = state;
    im.rep.report.complete = state == JobState::kDone;
    im.rep.report.reassigned = im.table.reassigned_count();
  };

  auto shut_down = [&](SConn& c) {
    c.ch->send(MsgType::kShutdown, {});
    c.shutting_down = true;
  };

  // The one place a JobConfig goes out: once per greeted connection,
  // as soon as the configuration is known (at the Hello when
  // configure() came first, else when start() hands the job over), and
  // never once the job is terminal, when a Hello gets only Shutdown.
  auto send_config = [&](SConn& c) {
    if (c.config_sent || !c.greeted || c.shutting_down || !im.has_config ||
        (im.has_job && !running()))
      return;
    c.ch->send(MsgType::kJobConfig,
               encode(JobConfigMsg{kJobId, im.spec.name, im.spec.run}));
    c.config_sent = true;
  };

  // Fill a greeted connection's lease window with pending shards: one
  // lease until its first result is accepted (so a worker that dies or
  // cannot open the corpus strands one lease), kLeaseWindow after. A
  // lease is queued behind a running one only while the pending shards
  // outnumber the greeted connections: at the tail each worker holds one
  // lease, as with no window, so none idles while another still has a
  // shard queued. A grant counts against the window until its result
  // arrives, even once expired, so a hung worker is not handed its own
  // lost shards. The start barrier is a one-shot latch: once the
  // expected pool has checked in it stays open, so a worker death
  // mid-run never re-arms it (which would starve the survivors until
  // their recv timeout). It also opens once a lease timeout has passed
  // since start(), for whoever has said Hello by then: a worker lost
  // before its Hello would otherwise hold the others, which wait for
  // their JobConfig without a bound, until the run is interrupted.
  auto try_grant = [&](SConn& c) {
    if (!c.config_sent || c.shutting_down || !running()) return;
    if (im.greeted >= cfg_.expected_workers ||
        now_ms() - im.start_ms >= cfg_.lease_timeout_ms)
      im.started = true;
    if (!im.started) return;
    const std::size_t window = c.accepted_one ? kLeaseWindow : 1;
    while (c.leases.size() < window) {
      if (!c.leases.empty() && im.table.pending_count() <= im.greeted) return;
      const auto idx =
          im.table.acquire(c.worker_id, now_ms() + cfg_.lease_timeout_ms);
      if (!idx) return;
      const Shard& s = im.table.shard(*idx);
      if (s.grants > 1) {
        im.met.reassigned.add(1);
        emit(ServiceEvent::Kind::kLeaseReassigned, c, *idx);
      }
      im.met.granted.add(1);
      c.ch->send(MsgType::kLeaseGrant,
                 encode(LeaseGrantMsg{*idx, s.epoch, s.begin, s.end, kJobId}));
      c.leases.push_back({*idx, s.epoch});
    }
  };

  // Push every lease `c` holds to `deadline`: the queued lease's clock
  // follows the running one, so it cannot expire while its worker is
  // alive and making progress.
  auto extend_held = [&](const SConn& c, std::uint64_t deadline) {
    for (const HeldLease& l : c.leases)
      im.table.extend(l.shard, l.epoch, c.worker_id, deadline);
  };

  // Act on one frame from connection `ci`; false once the frame has
  // dropped the connection.
  auto handle = [&](std::size_t ci, const Frame& f) -> bool {
    SConn& c = *im.conns[ci];
    switch (f.type) {
      case MsgType::kHello: {
        const auto m = decode_hello(util::ByteView(f.payload));
        if (!m || m->proto != kProtocolVersion) {
          drop_conn(ci, false);
          return false;
        }
        c.worker_id = m->worker_id;
        c.pid = m->pid;
        c.greeted = true;
        im.greeted++;
        im.met.connected.add(1);
        emit(ServiceEvent::Kind::kWorkerConnected, c, 0);
        if (im.shutdown_sent) shut_down(c);
        break;
      }
      case MsgType::kHeartbeat: {
        const auto m = decode_heartbeat(util::ByteView(f.payload));
        if (m) {
          im.met.heartbeats.add(1);
          // A worker heartbeats the lease it runs, the front of
          // c.leases; the queued lease's clock follows it.
          if (m->job == kJobId && running())
            extend_held(c, now_ms() + cfg_.lease_timeout_ms);
        }
        break;
      }
      case MsgType::kLeaseResult: {
        const auto m = decode_lease_result(util::ByteView(f.payload));
        if (!m) {
          drop_conn(ci, true);
          return false;
        }
        const auto held = std::find_if(
            c.leases.begin(), c.leases.end(), [&](const HeldLease& l) {
              return l.shard == m->shard && l.epoch == m->epoch;
            });
        if (held != c.leases.end()) c.leases.erase(held);
        // A result for another job id, or after the job ended, is
        // discarded exactly like a stale epoch.
        if (m->job != kJobId || !running() ||
            im.table.deliver(m->shard, m->epoch, c.worker_id) !=
                DeliverOutcome::kAccepted) {
          im.met.stale.add(1);
          im.rep.report.stale_results++;
          break;
        }
        im.rep.report.stats.merge(m->stats);
        c.accepted_one = true;
        // The queued lease starts running now: restart its clock.
        extend_held(c, now_ms() + cfg_.lease_timeout_ms);
        DistReport::WorkerInfo& w = worker_info(c);
        w.shards_accepted++;
        obs::Registry& reg = obs::Registry::global();
        for (const obs::CounterDelta& d : m->deltas) {
          // Replay the worker's deterministic growth: the service
          // aggregate equals the single-process run, and the job's
          // per-worker decomposition carries each worker's share
          // (the accounting identity).
          reg.counter(d.name, obs::Tag::kDeterministic).add(d.delta);
          w.metrics[d.name] += d.delta;
        }
        im.met.accepted.add(1);
        emit(ServiceEvent::Kind::kResultAccepted, c, m->shard);
        if (im.table.complete()) {
          end_job(JobState::kDone);
          emit(ServiceEvent::Kind::kJobDone, c, 0);
        }
        break;
      }
      case MsgType::kGoodbye: {
        const auto m = decode_goodbye(util::ByteView(f.payload));
        if (m && c.greeted) {
          for (auto& w : im.rep.report.workers) {
            if (w.worker_id != c.worker_id) continue;
            w.clean_exit = true;
            w.manifest = m->manifest_path;
          }
        }
        drop_conn(ci, false);
        return false;
      }
      default:
        drop_conn(ci, true);
        return false;
    }
    return true;
  };

  std::vector<epoll_event> events(32);
  while (true) {
    if (im.stop) break;

    // A dead fleet must not hang wait(): abort the job when no worker
    // has been around for idle_abort_ms.
    if (running() && im.conns.empty() &&
        now_ms() - im.last_activity >= cfg_.idle_abort_ms)
      end_job(JobState::kAborted);

    // Once the job is terminal, shut the pool down and wait (bounded)
    // for Goodbyes.
    if (im.has_job && !running() && !im.drained) {
      if (!im.shutdown_sent) {
        im.shutdown_sent = true;
        im.shutdown_deadline = now_ms() + 5000;
        for (auto& c : im.conns)
          if (c->greeted && !c->shutting_down) shut_down(*c);
      }
      if (im.conns.empty() || now_ms() > im.shutdown_deadline) {
        for (std::size_t i = im.conns.size(); i-- > 0;) drop_conn(i, false);
        im.drained = true;
        im.cv.notify_all();
      }
    }

    lk.unlock();
    const int nev =
        ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), 200);
    lk.lock();
    if (nev < 0 && errno != EINTR) break;

    for (int e = 0; e < std::max(nev, 0); ++e) {
      const std::uint64_t tag = events[static_cast<std::size_t>(e)].data.u64;
      if (tag == 1) {
        char buf[64];
        while (::read(wake_rd_, buf, sizeof buf) > 0) {
        }
        continue;
      }
      if (tag == 0) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          auto c = std::make_unique<SConn>();
          c->ch = std::make_unique<FrameChannel>(fd);
          add_fd(fd, static_cast<std::uint64_t>(fd) + 2);
          im.conns.push_back(std::move(c));
          im.last_activity = now_ms();
        }
        continue;
      }
      const int fd = static_cast<int>(tag - 2);
      std::size_t ci = im.conns.size();
      for (std::size_t i = 0; i < im.conns.size(); ++i)
        if (im.conns[i]->ch->fd() == fd) {
          ci = i;
          break;
        }
      if (ci == im.conns.size()) continue;  // already dropped
      SConn& c = *im.conns[ci];
      // Level-triggered epoll cannot see frames already in the
      // channel's read buffer: act on every whole buffered frame now.
      Frame f;
      do {
        if (!c.ch->recv(&f, 2000)) {
          drop_conn(ci, true);
          break;
        }
        im.last_activity = now_ms();
      } while (handle(ci, f) && c.ch->frame_buffered());
    }

    if (running()) im.table.expire(now_ms());
    for (auto& c : im.conns) {
      send_config(*c);
      try_grant(*c);
    }
  }

  ::close(ep);
}

}  // namespace cksum::dist
