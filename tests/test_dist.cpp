// Distributed splice service: frame codec + CRC/NACK recovery, message
// serde, the lease state machine, delta export, and the algebraic
// properties of SpliceStats::merge that make the distributed merge
// bitwise-deterministic in the first place.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/splice_sim.hpp"
#include "dist/frame.hpp"
#include "dist/lease.hpp"
#include "dist/protocol.hpp"
#include "dist/service.hpp"
#include "dist/worker.hpp"
#include "fsgen/profile.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "util/rng.hpp"

namespace cksum {
namespace {

using dist::DeliverOutcome;
using dist::FrameChannel;
using dist::LeaseTable;
using dist::MsgType;

// --- Frame codec ----------------------------------------------------

TEST(DistFrame, EncodeDecodeRoundtrip) {
  const util::Bytes payload = {1, 2, 3, 4, 5};
  const util::Bytes wire =
      dist::encode_frame(MsgType::kLeaseGrant, 7, util::ByteView(payload));
  ASSERT_EQ(wire.size(), dist::kFrameHeaderLen + payload.size() +
                             dist::kFrameTrailerLen);
  MsgType type{};
  std::uint32_t seq = 0, len = 0;
  ASSERT_TRUE(dist::decode_frame_header(wire.data(), &type, &seq, &len));
  EXPECT_EQ(type, MsgType::kLeaseGrant);
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(len, payload.size());
  const std::uint32_t stored =
      static_cast<std::uint32_t>(wire[wire.size() - 4]) |
      (static_cast<std::uint32_t>(wire[wire.size() - 3]) << 8) |
      (static_cast<std::uint32_t>(wire[wire.size() - 2]) << 16) |
      (static_cast<std::uint32_t>(wire[wire.size() - 1]) << 24);
  EXPECT_TRUE(dist::frame_crc_ok(
      util::ByteView(wire.data(), wire.size() - 4), stored));
}

TEST(DistFrame, HeaderCorruptionIsUnrecoverable) {
  util::Bytes wire = dist::encode_frame(MsgType::kHello, 0, {});
  wire[0] ^= 0xff;  // magic
  MsgType type{};
  std::uint32_t seq = 0, len = 0;
  EXPECT_FALSE(dist::decode_frame_header(wire.data(), &type, &seq, &len));
}

TEST(DistFrame, PayloadCorruptionFailsCrc) {
  util::Bytes payload(64, 0xab);
  util::Bytes wire =
      dist::encode_frame(MsgType::kLeaseResult, 3, util::ByteView(payload));
  wire[dist::kFrameHeaderLen + 10] ^= 0x01;
  const std::uint32_t stored =
      static_cast<std::uint32_t>(wire[wire.size() - 4]) |
      (static_cast<std::uint32_t>(wire[wire.size() - 3]) << 8) |
      (static_cast<std::uint32_t>(wire[wire.size() - 2]) << 16) |
      (static_cast<std::uint32_t>(wire[wire.size() - 1]) << 24);
  EXPECT_FALSE(dist::frame_crc_ok(
      util::ByteView(wire.data(), wire.size() - 4), stored));
}

/// Run `ch`'s receive side, which answers the peer's NACKs with
/// replays, in short slices until `done` (the peer holds every frame)
/// or 10 s have passed (the peer failed an assertion). A NACK is one
/// small write on a socketpair, so a slice never ends inside one.
void pump_until(FrameChannel& ch, const std::atomic<bool>& done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  dist::Frame f;
  while (!done.load() && std::chrono::steady_clock::now() < give_up)
    ch.recv(&f, 5);
}

/// A corrupted frame over a real socketpair is NACKed and replayed;
/// the receiver sees every message intact and in order.
TEST(DistFrame, CorruptedFrameRecoveredByNackResend) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  FrameChannel a(fds[0]);
  FrameChannel b(fds[1]);

  // Receiver thread: b must see three intact frames despite the
  // corruption of the second. b's recv also services a's NACK traffic.
  std::atomic<bool> received{false};
  std::thread rx([&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      dist::Frame f;
      ASSERT_TRUE(b.recv(&f, 5000)) << "frame " << i;
      ASSERT_EQ(f.type, MsgType::kHeartbeat);
      ASSERT_EQ(f.payload.size(), 1u);
      EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
    }
    received.store(true);
  });

  const auto send_one = [&](std::uint8_t i) {
    const util::Bytes payload = {i};
    ASSERT_TRUE(a.send(MsgType::kHeartbeat, util::ByteView(payload)));
  };
  send_one(0);
  a.corrupt_next_send();
  send_one(1);
  send_one(2);
  // a must observe and answer b's NACK: pump its receive side until
  // the receiver holds every frame.
  pump_until(a, received);
  rx.join();

  EXPECT_GE(b.stats().crc_rejects, 1u);
  EXPECT_GE(a.stats().resends, 1u);
}

/// The timeout bounds the whole frame: a peer that sends a header and
/// then trickles the payload a byte at a time, each byte well inside
/// the timeout, must not hold recv past it.
TEST(DistFrame, RecvTimeoutBoundsWholeFrame) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  FrameChannel b(fds[1]);
  const util::Bytes payload(100, 0x5a);
  const util::Bytes wire =
      dist::encode_frame(MsgType::kHeartbeat, 0, util::ByteView(payload));

  std::atomic<bool> done{false};
  std::thread trickle([&] {
    ::send(fds[0], wire.data(), dist::kFrameHeaderLen, MSG_NOSIGNAL);
    for (std::size_t i = 0; i < 10 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      ::send(fds[0], wire.data() + dist::kFrameHeaderLen + i, 1, MSG_NOSIGNAL);
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  dist::Frame f;
  EXPECT_FALSE(b.recv(&f, 1000));
  const auto waited = std::chrono::steady_clock::now() - t0;
  done.store(true);
  trickle.join();
  ::close(fds[0]);
  EXPECT_LT(waited, std::chrono::milliseconds(1500));
}

TEST(DistFrame, SerialOrderSoundAcrossWrap) {
  EXPECT_TRUE(dist::seq_before(0xfffffffeu, 0xffffffffu));
  EXPECT_TRUE(dist::seq_before(0xffffffffu, 0u));  // across the wrap
  EXPECT_TRUE(dist::seq_before(0xffffffffu, 5u));
  EXPECT_FALSE(dist::seq_before(0u, 0xffffffffu));
  EXPECT_FALSE(dist::seq_before(7u, 7u));
  EXPECT_TRUE(dist::seq_before(7u, 8u));
  EXPECT_FALSE(dist::seq_before(8u, 7u));
}

/// Regression: NACK replay across the 2^32 sequence wraparound. The
/// resend ring used raw u32 comparisons, so a replay whose buffered
/// frames straddle the wrap (..., 0xffffffff, 0x0, ...) skipped the
/// post-wrap frames and the receiver could never resynchronize.
TEST(DistFrame, NackRecoveryAcrossSeqWraparound) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  FrameChannel a(fds[0]);
  FrameChannel b(fds[1]);
  // Start the a->b stream two frames short of the wrap (both ends must
  // agree); the b->a direction (carrying b's NACKs) stays at zero.
  a.preset_sequences_for_test(/*send_seq=*/0xfffffffeu, /*recv_next=*/0);
  b.preset_sequences_for_test(/*send_seq=*/0, /*recv_next=*/0xfffffffeu);

  constexpr std::uint32_t kFrames = 6;  // seqs 0xfffffffe .. 0x00000003
  std::atomic<bool> received{false};
  std::thread rx([&] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      dist::Frame f;
      ASSERT_TRUE(b.recv(&f, 5000)) << "frame " << i;
      ASSERT_EQ(f.type, MsgType::kHeartbeat);
      ASSERT_EQ(f.payload.size(), 1u);
      EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
      EXPECT_EQ(f.seq, static_cast<std::uint32_t>(0xfffffffeu + i));
    }
    received.store(true);
  });

  for (std::uint32_t i = 0; i < kFrames; ++i) {
    if (i == 1) a.corrupt_next_send();  // corrupt seq 0xffffffff
    const util::Bytes payload = {static_cast<std::uint8_t>(i)};
    ASSERT_TRUE(a.send(MsgType::kHeartbeat, util::ByteView(payload)));
  }
  pump_until(a, received);  // so a services b's NACK
  rx.join();

  EXPECT_GE(b.stats().crc_rejects, 1u);
  // The replay must include the post-wrap frames (seq 0x0 onward).
  EXPECT_GE(a.stats().resends, kFrames - 1);
}

// --- Message serde --------------------------------------------------

core::SpliceStats random_stats(util::Rng& rng) {
  core::SpliceStats st;
  const auto r = [&] { return rng.below(1u << 30); };
  st.files = r();
  st.packets = r();
  st.pairs = r();
  st.total = r();
  st.caught_by_header = r();
  st.identical = r();
  st.remaining = r();
  st.missed_crc = r();
  st.missed_transport = r();
  st.missed_both = r();
  st.missed_koopman_dual = r();
  st.missed_koopman_single = r();
  st.fail_identical = r();
  st.pass_identical = r();
  st.fail_changed = r();
  st.pass_changed = r();
  st.remaining_with_hdr2 = r();
  st.missed_with_hdr2 = r();
  for (auto& v : st.remaining_by_k) v = r();
  for (auto& v : st.missed_by_k) v = r();
  st.slow_path = r();
  st.fast_path = r();
  return st;
}

TEST(DistProtocol, SpliceStatsSerdeRoundtrip) {
  util::Rng rng(0xD15721);
  for (int i = 0; i < 16; ++i) {
    const core::SpliceStats st = random_stats(rng);
    util::Bytes buf;
    dist::encode_stats(buf, st);
    core::SpliceStats back;
    std::size_t off = 0;
    ASSERT_TRUE(dist::decode_stats(util::ByteView(buf), &off, &back));
    EXPECT_EQ(off, buf.size());
    EXPECT_EQ(st, back);
  }
}

TEST(DistProtocol, LeaseResultRoundtrip) {
  util::Rng rng(0xD15722);
  dist::LeaseResultMsg m;
  m.shard = 5;
  m.epoch = 9;
  m.stats = random_stats(rng);
  m.deltas = {{"splice.total", 123}, {"splice.files", 4}};
  const util::Bytes buf = dist::encode(m);
  const auto back = dist::decode_lease_result(util::ByteView(buf));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->shard, 5u);
  EXPECT_EQ(back->epoch, 9u);
  EXPECT_EQ(back->stats, m.stats);
  EXPECT_EQ(back->deltas, m.deltas);
}

TEST(DistProtocol, ConfigRoundtrip) {
  dist::ConfigMsg m;
  m.corpus_kind = dist::CorpusKind::kManifest;
  m.corpus = "txt 1a 4096\nexe 2b 100\n";
  m.scale = 0.125;
  m.segment = 512;
  m.transport = 2;
  m.trailer = true;
  m.threads = 4;
  m.heartbeat_ms = 250;
  const auto back = dist::decode_config(util::ByteView(dist::encode(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->corpus_kind, dist::CorpusKind::kManifest);
  EXPECT_EQ(back->corpus, m.corpus);
  EXPECT_EQ(back->scale, 0.125);
  EXPECT_EQ(back->segment, 512u);
  EXPECT_EQ(back->transport, 2);
  EXPECT_TRUE(back->trailer);
  EXPECT_EQ(back->threads, 4u);
  EXPECT_EQ(back->heartbeat_ms, 250u);
}

TEST(DistProtocol, TruncatedPayloadsRejected) {
  dist::HeartbeatMsg hb{1, 2};
  util::Bytes buf = dist::encode(hb);
  buf.pop_back();
  EXPECT_FALSE(dist::decode_heartbeat(util::ByteView(buf)).has_value());
  buf.push_back(0);
  buf.push_back(0);  // trailing garbage is an error too
  EXPECT_FALSE(dist::decode_heartbeat(util::ByteView(buf)).has_value());
}

// --- Lease state machine --------------------------------------------

TEST(DistLease, ShardsPartitionTheCorpus) {
  LeaseTable t(10, 3);
  ASSERT_EQ(t.shard_count(), 4u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < t.shard_count(); ++i) {
    const dist::Shard& s = t.shard(i);
    EXPECT_EQ(s.begin, covered);
    covered = s.end;
  }
  EXPECT_EQ(covered, 10u);
}

TEST(DistLease, AtMostOnceAcrossReassignment) {
  LeaseTable t(4, 2);  // two shards
  const auto s0 = t.acquire(/*worker=*/1, /*deadline=*/100);
  ASSERT_TRUE(s0.has_value());
  const std::uint64_t epoch1 = t.shard(*s0).epoch;

  // Worker 1 goes silent; the lease expires and worker 2 takes over.
  EXPECT_EQ(t.expire(101), 1u);
  const auto s0again = t.acquire(/*worker=*/2, /*deadline=*/300);
  ASSERT_TRUE(s0again.has_value());
  EXPECT_EQ(*s0again, *s0);
  const std::uint64_t epoch2 = t.shard(*s0again).epoch;
  EXPECT_GT(epoch2, epoch1);

  // Worker 1's late result is stale; worker 2's is accepted; a replay
  // of worker 2's is a duplicate. Exactly one merge.
  EXPECT_EQ(t.deliver(*s0, epoch1, 1), DeliverOutcome::kStale);
  EXPECT_EQ(t.deliver(*s0, epoch2, 2), DeliverOutcome::kAccepted);
  EXPECT_EQ(t.deliver(*s0, epoch2, 2), DeliverOutcome::kDuplicate);
  EXPECT_EQ(t.reassigned_count(), 1u);
  EXPECT_FALSE(t.complete());
}

TEST(DistLease, HeartbeatExtendsOnlyTheHolder) {
  LeaseTable t(2, 2);
  const auto s = t.acquire(1, 100);
  ASSERT_TRUE(s.has_value());
  const std::uint64_t epoch = t.shard(*s).epoch;
  t.extend(*s, epoch, /*worker=*/2, 500);  // not the holder: ignored
  EXPECT_EQ(t.expire(200), 1u);
  const auto s2 = t.acquire(1, 300);
  ASSERT_TRUE(s2.has_value());
  t.extend(*s2, t.shard(*s2).epoch, 1, 500);
  EXPECT_EQ(t.expire(400), 0u);  // heartbeat kept it alive
}

TEST(DistLease, RevokeWorkerReturnsItsLeases) {
  LeaseTable t(6, 2);  // three shards
  ASSERT_TRUE(t.acquire(1, 100).has_value());
  ASSERT_TRUE(t.acquire(1, 100).has_value());
  ASSERT_TRUE(t.acquire(2, 100).has_value());
  EXPECT_EQ(t.revoke_worker(1), 2u);
  // Both revoked shards are grantable again.
  EXPECT_TRUE(t.acquire(3, 200).has_value());
  EXPECT_TRUE(t.acquire(3, 200).has_value());
  EXPECT_FALSE(t.acquire(3, 200).has_value());  // worker 2 still holds #2
}

TEST(DistLease, CompletionCountsEveryShardOnce) {
  LeaseTable t(5, 2);  // shards of 2+2+1 files
  for (int round = 0; round < 3; ++round) {
    const auto s = t.acquire(7, 1000);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(t.deliver(*s, t.shard(*s).epoch, 7), DeliverOutcome::kAccepted);
  }
  EXPECT_TRUE(t.complete());
  EXPECT_FALSE(t.acquire(7, 2000).has_value());
}

TEST(DistLease, PendingCountFollowsEveryTransition) {
  LeaseTable t(5, 1);  // five shards
  EXPECT_EQ(t.pending_count(), 5u);
  const auto a = t.acquire(1, 100);
  const auto b = t.acquire(2, 100);
  const auto c = t.acquire(2, 500);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(t.pending_count(), 2u);
  EXPECT_EQ(t.deliver(*a, t.shard(*a).epoch, 1), DeliverOutcome::kAccepted);
  EXPECT_EQ(t.pending_count(), 2u);  // done is not pending
  EXPECT_EQ(t.expire(200), 1u);      // b
  EXPECT_EQ(t.pending_count(), 3u);
  EXPECT_EQ(t.revoke_worker(2), 1u);  // c; b is pending already
  EXPECT_EQ(t.pending_count(), 4u);
  EXPECT_EQ(t.deliver(*a, t.shard(*a).epoch, 1), DeliverOutcome::kDuplicate);
  EXPECT_EQ(t.pending_count(), 4u);
}

// --- Delta export ---------------------------------------------------

/// The worker brackets each lease with deterministic-only snapshots;
/// their deltas must equal those of full snapshots, including for a
/// counter registered between the two.
TEST(DistDeltas, TagFilteredPairMatchesFullPair) {
  obs::Registry reg;
  obs::Counter det = reg.counter("fam.det", obs::Tag::kDeterministic);
  obs::Counter sched = reg.counter("fam.sched", obs::Tag::kScheduling);
  obs::Histogram wait = reg.histogram("fam.wait_ns", obs::Tag::kTiming);
  reg.counter("fam.idle", obs::Tag::kDeterministic);
  det.add(5);
  sched.add(2);
  wait.observe(40);
  const obs::Snapshot full_before = reg.snapshot();
  const obs::Snapshot det_before = reg.snapshot(obs::Tag::kDeterministic);
  det.add(37);
  sched.add(100);
  wait.observe(7);
  reg.counter("fam.late", obs::Tag::kDeterministic).add(4);
  const obs::Snapshot det_after = reg.snapshot(obs::Tag::kDeterministic);
  const auto full = obs::counter_deltas(full_before, reg.snapshot());
  EXPECT_EQ(obs::counter_deltas(det_before, det_after), full);
  // Mixed pairs line up by name instead of by index.
  EXPECT_EQ(obs::counter_deltas(full_before, det_after), full);
#ifndef OBS_DISABLE
  ASSERT_EQ(full.size(), 2u);
  EXPECT_EQ(full[0], (obs::CounterDelta{"fam.det", 37}));
  EXPECT_EQ(full[1], (obs::CounterDelta{"fam.late", 4}));
  std::vector<std::string> names;
  for (const obs::MetricValue& m : det_after.metrics) names.push_back(m.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"fam.det", "fam.idle", "fam.late"}));
#endif
}

TEST(DistDeltas, CounterDeltasCaptureDeterministicGrowthOnly) {
  obs::Registry reg;
  obs::Counter det = reg.counter("fam.det", obs::Tag::kDeterministic);
  obs::Counter sched = reg.counter("fam.sched", obs::Tag::kScheduling);
  obs::Counter idle = reg.counter("fam.idle", obs::Tag::kDeterministic);
  det.add(5);
  const obs::Snapshot before = reg.snapshot();
  det.add(37);
  sched.add(100);  // non-deterministic: excluded
  idle.add(0);     // no growth: excluded
  const auto deltas = obs::counter_deltas(before, reg.snapshot());
#ifndef OBS_DISABLE
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].name, "fam.det");
  EXPECT_EQ(deltas[0].delta, 37u);
#else
  EXPECT_TRUE(deltas.empty());  // counters compile to no-ops
#endif
}

// --- The merge algebra the whole design rests on --------------------

/// merge() must be commutative and associative with the zero stats as
/// identity; otherwise shard results arriving in nondeterministic
/// order could not reproduce the single-process report bit for bit.
TEST(DistMergeProperty, CommutativeAssociativeWithIdentity) {
  util::Rng rng(0xD15723);
  for (int trial = 0; trial < 64; ++trial) {
    const core::SpliceStats a = random_stats(rng);
    const core::SpliceStats b = random_stats(rng);
    const core::SpliceStats c = random_stats(rng);

    core::SpliceStats ab = a;
    ab.merge(b);
    core::SpliceStats ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);  // commutative

    core::SpliceStats ab_c = ab;
    ab_c.merge(c);
    core::SpliceStats bc = b;
    bc.merge(c);
    core::SpliceStats a_bc = a;
    a_bc.merge(bc);
    EXPECT_EQ(ab_c, a_bc);  // associative

    core::SpliceStats a_zero = a;
    a_zero.merge(core::SpliceStats{});
    EXPECT_EQ(a_zero, a);  // identity
    core::SpliceStats zero_a;
    zero_a.merge(a);
    EXPECT_EQ(zero_a, a);
  }
}

// --- JobService --------------------------------------------------------

namespace {

dist::JobSpec profile_job(const std::string& name, double scale,
                          std::size_t shard_files = 0) {
  dist::JobSpec spec;
  spec.name = name;
  spec.run.corpus_kind = dist::CorpusKind::kProfile;
  spec.run.corpus = "nsc05";
  spec.run.scale = scale;
  spec.run.segment = 256;
  spec.run.transport =
      static_cast<std::uint8_t>(alg::Algorithm::kInternet);
  spec.run.threads = 1;
  spec.nfiles = fsgen::Filesystem(fsgen::profile("nsc05"), scale).file_count();
  spec.shard_files = shard_files;
  return spec;
}

core::SpliceStats profile_oracle(double scale) {
  core::SpliceRunConfig cfg;
  cfg.flow = core::paper_flow_config();
  cfg.threads = 1;
  return core::run_filesystem(cfg,
                              fsgen::Filesystem(fsgen::profile("nsc05"), scale));
}

/// Each shard's true result, as a worker evaluates it, for a job made
/// by profile_job(_, scale, shard_files).
std::vector<core::SpliceStats> shard_oracles(double scale,
                                             std::size_t shard_files) {
  const core::SpliceCorpus corpus(
      core::CorpusSource{core::CorpusKind::kProfile, "nsc05", scale});
  core::SpliceRunConfig cfg;
  cfg.flow = core::paper_flow_config();
  cfg.threads = 1;
  cfg = corpus.run_config(cfg);
  const LeaseTable table(corpus.file_count(), shard_files);
  std::vector<core::SpliceStats> out;
  for (std::size_t i = 0; i < table.shard_count(); ++i)
    out.push_back(
        corpus.run_range(cfg, table.shard(i).begin, table.shard(i).end));
  return out;
}

/// A scripted worker: a connected channel that has said Hello.
std::unique_ptr<FrameChannel> scripted_client(std::uint16_t port,
                                              std::uint64_t worker_id) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  auto ch = std::make_unique<FrameChannel>(fd);  // closes fd
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    return nullptr;
  dist::HelloMsg hello;
  hello.worker_id = worker_id;
  if (!ch->send(MsgType::kHello, dist::encode(hello))) return nullptr;
  return ch;
}

/// The next frame, which must be a grant; nullopt (and a test failure)
/// otherwise.
std::optional<dist::LeaseGrantMsg> next_grant(FrameChannel& ch,
                                              int timeout_ms = 10000) {
  dist::Frame f;
  if (!ch.recv(&f, timeout_ms)) {
    ADD_FAILURE() << "no frame within " << timeout_ms << " ms";
    return std::nullopt;
  }
  if (f.type != MsgType::kLeaseGrant) {
    ADD_FAILURE() << "expected a grant, got type "
                  << static_cast<int>(f.type);
    return std::nullopt;
  }
  return dist::decode_lease_grant(util::ByteView(f.payload));
}

bool deliver(FrameChannel& ch, const dist::LeaseGrantMsg& g,
             const core::SpliceStats& stats) {
  dist::LeaseResultMsg res;
  res.shard = g.shard;
  res.epoch = g.epoch;
  res.job = g.job;
  res.stats = stats;
  return ch.send(MsgType::kLeaseResult, dist::encode(res));
}

/// Read until the service's Shutdown, answered with a Goodbye, or a
/// grant, answered by hanging up (so a wrong grant cannot stall the
/// job). Returns whether a grant came.
bool granted_before_shutdown(FrameChannel& ch) {
  dist::Frame f;
  while (ch.recv(&f, 10000)) {
    if (f.type == MsgType::kShutdown) {
      ch.send(MsgType::kGoodbye, dist::encode(dist::GoodbyeMsg{}));
      return false;
    }
    if (f.type == MsgType::kLeaseGrant) {
      ch.close();
      return true;
    }
  }
  ADD_FAILURE() << "neither a Shutdown nor a grant within 10 s";
  return false;
}

/// Answer every grant with its shard's true result until the service's
/// Shutdown, answered with a Goodbye. Returns the grants answered, or
/// -1 (and a test failure) if a frame does not come within 10 s.
int answer_until_shutdown(FrameChannel& ch,
                          const std::vector<core::SpliceStats>& truth) {
  int answered = 0;
  dist::Frame f;
  while (ch.recv(&f, 10000)) {
    if (f.type == MsgType::kShutdown) {
      ch.send(MsgType::kGoodbye, dist::encode(dist::GoodbyeMsg{}));
      return answered;
    }
    if (f.type != MsgType::kLeaseGrant) continue;
    const auto g = dist::decode_lease_grant(util::ByteView(f.payload));
    if (!g || g->shard >= truth.size() || !deliver(ch, *g, truth[g->shard]))
      break;
    answered++;
  }
  ADD_FAILURE() << "no Shutdown after " << answered << " answered grants";
  return -1;
}

std::thread worker_thread(std::uint16_t port, std::uint64_t id, int* rc) {
  return std::thread([port, id, rc] {
    dist::WorkerOptions w;
    w.host = "127.0.0.1";
    w.port = port;
    w.worker_id = id;
    w.tool = "cksum_tests worker";
    *rc = dist::run_worker(w);
  });
}

}  // namespace

/// The tentpole guarantee: one named job leased over three in-process
/// workers merges to exactly the stats a single-process run of the
/// same corpus produces. (Counter-delta accounting needs
/// process-isolated workers and is exercised by the faultlab drill;
/// SpliceStats travel in lease results and stay exact even with every
/// worker in this one process.)
TEST(DistJobService, ConcurrentJobsBitwiseEqualOracles) {
  dist::ServiceConfig sc;
  sc.expected_workers = 3;
  sc.lease_timeout_ms = 60000;
  dist::JobService svc(sc, profile_job("job", 0.08, 1));

  int rcs[3] = {-1, -1, -1};
  std::thread workers[3];
  for (int i = 0; i < 3; ++i)
    workers[i] = worker_thread(svc.port(), i + 1, &rcs[i]);

  const dist::JobReport rep = svc.wait();
  for (auto& t : workers) t.join();
  EXPECT_EQ(rep.job, 1u);
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  EXPECT_TRUE(rep.report.complete);
  EXPECT_EQ(rep.report.stats, profile_oracle(0.08))
      << "the job diverged from its single-process oracle";
  for (const int rc : rcs) EXPECT_EQ(rc, 0);

  // The manifest member is a one-element array.
  EXPECT_EQ(svc.jobs_json(), "[" + rep.json() + "]");
}

/// Worker loss without timing: a scripted client says Hello, takes the
/// JobConfig and the first lease, and hangs up holding it. The service
/// revokes the lease when the connection drops, so a real worker
/// started only afterwards must be re-granted that shard and still
/// merge to the single-process oracle.
TEST(DistJobService, DroppedLeaseIsReassigned) {
  dist::ServiceConfig sc;
  sc.lease_timeout_ms = 60000;  // revocation, not expiry, frees the lease
  dist::JobService svc(sc, profile_job("dropped", 0.04, 1));

  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(svc.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    FrameChannel ch(fd);  // closes fd on scope exit
    dist::HelloMsg hello;
    hello.worker_id = 99;
    ASSERT_TRUE(ch.send(MsgType::kHello, dist::encode(hello)));
    dist::Frame f;
    ASSERT_TRUE(ch.recv(&f, 10000));
    ASSERT_EQ(f.type, MsgType::kJobConfig);
    ASSERT_TRUE(ch.recv(&f, 10000));
    ASSERT_EQ(f.type, MsgType::kLeaseGrant);
    const auto g = dist::decode_lease_grant(util::ByteView(f.payload));
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->job, 1u);
    EXPECT_EQ(g->epoch, 1u);
  }

  int rc = -1;
  std::thread w = worker_thread(svc.port(), 1, &rc);
  const dist::JobReport rep = svc.wait();
  w.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  EXPECT_TRUE(rep.report.complete);
  EXPECT_EQ(rep.report.reassigned, 1u);
  EXPECT_EQ(rep.report.stale_results, 0u);
  EXPECT_EQ(rep.report.stats, profile_oracle(0.04));
  ASSERT_EQ(rep.report.workers.size(), 1u);  // the dropped client merged none
  EXPECT_EQ(rep.report.workers[0].worker_id, 1u);
}

/// A service bound before its job (the serving CLI spawns its workers
/// while it still verifies the corpus) greets a worker and holds it;
/// start() then sends it the JobConfig and its first lease.
TEST(DistJobService, HelloBeforeStartWaitsForTheJob) {
  dist::ServiceConfig sc;
  sc.lease_timeout_ms = 60000;
  dist::JobService svc(sc);

  const auto ch = scripted_client(svc.port(), 1);
  ASSERT_NE(ch, nullptr);
  dist::Frame f;
  EXPECT_FALSE(ch->recv(&f, 200)) << "a frame before the job was handed over";

  svc.start(profile_job("late", 0.04, 1));
  ASSERT_TRUE(ch->recv(&f, 10000));
  ASSERT_EQ(f.type, MsgType::kJobConfig);
  const auto g = next_grant(*ch);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->job, 1u);
  EXPECT_THROW(svc.start(profile_job("again", 0.04, 1)), std::logic_error);
}

/// A Hello that arrives once the job is terminal gets a Shutdown, never
/// a JobConfig.
TEST(DistJobService, NoJobConfigAfterTheJobEnds) {
  dist::JobSpec empty = profile_job("ended", 0.04);
  empty.nfiles = 0;  // done at once
  dist::JobService svc({}, empty);
  EXPECT_EQ(svc.wait().state, dist::JobState::kDone);

  const auto ch = scripted_client(svc.port(), 1);
  ASSERT_NE(ch, nullptr);
  dist::Frame f;
  ASSERT_TRUE(ch->recv(&f, 10000));
  EXPECT_EQ(f.type, MsgType::kShutdown);
}

/// The lease window: a connection holds one lease until its first
/// result is accepted, then two — the one its worker runs and the next,
/// queued behind it. A client that hangs up holding both loses both,
/// and a real worker re-runs them.
TEST(DistJobService, SecondLeaseFollowsFirstResult) {
  dist::ServiceConfig sc;
  sc.lease_timeout_ms = 60000;  // revocation, not expiry, frees the leases
  dist::JobService svc(sc, profile_job("window", 0.08, 1));
  const std::vector<core::SpliceStats> truth = shard_oracles(0.08, 1);
  ASSERT_EQ(truth.size(), 5u);  // a queued lease needs two more pending

  {
    const auto ch = scripted_client(svc.port(), 99);
    ASSERT_NE(ch, nullptr);
    dist::Frame f;
    ASSERT_TRUE(ch->recv(&f, 10000));
    ASSERT_EQ(f.type, MsgType::kJobConfig);
    const auto g0 = next_grant(*ch);
    ASSERT_TRUE(g0.has_value());
    EXPECT_FALSE(ch->recv(&f, 200)) << "a second lease before any result";
    ASSERT_LT(g0->shard, truth.size());
    ASSERT_TRUE(deliver(*ch, *g0, truth[g0->shard]));
    const auto g1 = next_grant(*ch);
    const auto g2 = next_grant(*ch);
    ASSERT_TRUE(g1.has_value() && g2.has_value());
    EXPECT_NE(g1->shard, g0->shard);
    EXPECT_NE(g2->shard, g1->shard);
  }  // hang up holding both

  int rc = -1;
  std::thread w = worker_thread(svc.port(), 1, &rc);
  const dist::JobReport rep = svc.wait();
  w.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  EXPECT_EQ(rep.report.reassigned, 2u);
  EXPECT_EQ(rep.report.stale_results, 0u);
  EXPECT_EQ(rep.report.stats, profile_oracle(0.08));
  ASSERT_EQ(rep.report.workers.size(), 2u);
  EXPECT_EQ(rep.report.workers[0].worker_id, 99u);
  EXPECT_EQ(rep.report.workers[0].shards_accepted, 1u);
}

/// The queued lease's clock follows the running one: heartbeats for
/// the running lease alone keep both alive well past the lease
/// timeout, and both results are then accepted.
TEST(DistJobService, QueuedLeaseFollowsHeartbeats) {
  dist::ServiceConfig sc;
  sc.lease_timeout_ms = 300;
  sc.idle_abort_ms = 2000;  // a broken window aborts instead of hanging
  dist::JobService svc(sc, profile_job("queued", 0.08, 1));
  const std::vector<core::SpliceStats> truth = shard_oracles(0.08, 1);
  ASSERT_EQ(truth.size(), 5u);

  int rest = -1;
  {
    const auto ch = scripted_client(svc.port(), 99);
    ASSERT_NE(ch, nullptr);
    dist::Frame f;
    ASSERT_TRUE(ch->recv(&f, 10000));
    ASSERT_EQ(f.type, MsgType::kJobConfig);
    const auto g0 = next_grant(*ch);
    ASSERT_TRUE(g0.has_value());
    ASSERT_TRUE(deliver(*ch, *g0, truth[g0->shard]));
    const auto running = next_grant(*ch);
    const auto queued = next_grant(*ch);
    ASSERT_TRUE(running.has_value() && queued.has_value());
    for (int i = 0; i < 18; ++i) {  // 900 ms, three lease timeouts
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ASSERT_TRUE(ch->send(MsgType::kHeartbeat,
                           dist::encode(dist::HeartbeatMsg{
                               running->shard, running->epoch, running->job})));
    }
    ASSERT_TRUE(deliver(*ch, *running, truth[running->shard]));
    ASSERT_TRUE(deliver(*ch, *queued, truth[queued->shard]));
    rest = answer_until_shutdown(*ch, truth);
  }

  const dist::JobReport rep = svc.wait();
  EXPECT_EQ(rest, 2);  // the two shards never granted before
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  EXPECT_EQ(rep.report.reassigned, 0u);
  EXPECT_EQ(rep.report.stale_results, 0u);
  EXPECT_EQ(rep.report.stats, profile_oracle(0.08));
}

/// A lease is queued only while the pending shards outnumber the
/// greeted connections: at the tail a worker holds one lease at a
/// time, as with no window, so none idles while another still has a
/// shard queued.
TEST(DistJobService, TailLeasesAreNotQueued) {
  dist::ServiceConfig sc;
  sc.lease_timeout_ms = 60000;
  sc.idle_abort_ms = 5000;  // a missing grant aborts instead of hanging
  dist::JobService svc(sc, profile_job("tail", 0.08, 1));
  const std::vector<core::SpliceStats> truth = shard_oracles(0.08, 1);
  ASSERT_EQ(truth.size(), 5u);

  int rest = -1;
  {
    const auto ch = scripted_client(svc.port(), 99);
    ASSERT_NE(ch, nullptr);
    dist::Frame f;
    ASSERT_TRUE(ch->recv(&f, 10000));
    ASSERT_EQ(f.type, MsgType::kJobConfig);
    const auto g0 = next_grant(*ch);
    ASSERT_TRUE(g0.has_value());
    ASSERT_TRUE(deliver(*ch, *g0, truth[g0->shard]));
    const auto g1 = next_grant(*ch);
    const auto g2 = next_grant(*ch);  // queued: three shards pending
    ASSERT_TRUE(g1.has_value() && g2.has_value());
    ASSERT_TRUE(deliver(*ch, *g1, truth[g1->shard]));
    const auto g3 = next_grant(*ch);  // queued: two pending, one worker
    ASSERT_TRUE(g3.has_value());
    ASSERT_TRUE(deliver(*ch, *g2, truth[g2->shard]));
    EXPECT_FALSE(ch->recv(&f, 200))
        << "a lease queued with one shard pending for one worker";
    ASSERT_TRUE(deliver(*ch, *g3, truth[g3->shard]));
    rest = answer_until_shutdown(*ch, truth);
  }

  const dist::JobReport rep = svc.wait();
  EXPECT_EQ(rest, 1);
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  EXPECT_EQ(rep.report.reassigned, 0u);
  EXPECT_EQ(rep.report.stats, profile_oracle(0.08));
}

/// A grant fills its slot until the worker answers it, even once it
/// has expired: a worker that hangs holding its lease is never handed
/// more (not even its own lost shard back), so the shard goes to a
/// live worker and the job ends.
TEST(DistJobService, HungWorkerIsNotRegranted) {
  dist::ServiceConfig sc;
  sc.lease_timeout_ms = 200;
  dist::JobSpec spec = profile_job("hung", 0.04, 1);
  spec.run.heartbeat_ms = 50;  // the live worker keeps its leases
  dist::JobService svc(sc, spec);

  const auto ch = scripted_client(svc.port(), 99);
  ASSERT_NE(ch, nullptr);
  dist::Frame f;
  ASSERT_TRUE(ch->recv(&f, 10000));
  ASSERT_EQ(f.type, MsgType::kJobConfig);
  ASSERT_TRUE(next_grant(*ch).has_value());
  bool regranted = false;
  std::thread hung([&] { regranted = granted_before_shutdown(*ch); });

  int rc = -1;
  std::thread w = worker_thread(svc.port(), 1, &rc);
  const dist::JobReport rep = svc.wait();
  w.join();
  hung.join();
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(regranted);
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  EXPECT_GE(rep.report.reassigned, 1u);
  EXPECT_EQ(rep.report.stats, profile_oracle(0.04));
}

/// The manifest record renders every member in one pass, in the
/// documented order (docs/DIST.md), with the job's metrics summed over
/// its workers.
TEST(DistJobReport, JsonRendersTheWholeRecord) {
  dist::JobReport jr;
  jr.job = 2;
  jr.name = "a\"b";
  jr.state = dist::JobState::kAborted;
  jr.report.shards = 5;
  jr.report.reassigned = 1;
  jr.report.stale_results = 3;
  jr.report.workers.push_back({7, 70, 2, true, "w7.json", {{"x.n", 4}}});
  jr.report.workers.push_back({8, 80, 1, false, "", {{"x.n", 1}, {"x.m", 2}}});
  EXPECT_EQ(jr.json(),
            "{\"job\": 2, \"name\": \"a\\\"b\", \"state\": \"aborted\", "
            "\"workers\": 2, \"shards\": 5, \"reassigned\": 1, "
            "\"stale_results\": 3, \"complete\": false, "
            "\"metrics\": {\"x.m\": 2, \"x.n\": 5}, \"per_worker\": ["
            "{\"worker\": 7, \"pid\": 70, \"shards\": 2, \"clean_exit\": true, "
            "\"manifest\": \"w7.json\", \"metrics\": {\"x.n\": 4}}, "
            "{\"worker\": 8, \"pid\": 80, \"shards\": 1, \"clean_exit\": false, "
            "\"metrics\": {\"x.m\": 2, \"x.n\": 1}}]}");
}

/// The shard space is sized from the job: as many shards as files at
/// one file a shard, max(8, 4 * workers) shards of whole files when
/// auto-sized; a job with no files is done at once.
TEST(DistJobService, SizedFromItsOneJob) {
  const auto shards = [](const dist::JobSpec& spec, unsigned workers) {
    dist::ServiceConfig sc;
    sc.expected_workers = workers;
    sc.idle_abort_ms = 0;  // no worker ever comes: abort at once
    dist::JobService svc(sc, spec);
    return svc.wait().report.shards;
  };
  const dist::JobSpec wide = profile_job("wide", 0.08, 1);
  EXPECT_EQ(shards(wide, 2), wide.nfiles);
  dist::JobSpec autos;
  autos.nfiles = 100;
  EXPECT_EQ(shards(autos, 2), 9u);   // 12 files a shard
  EXPECT_EQ(shards(autos, 3), 13u);  // 8 files a shard

  dist::JobSpec empty = profile_job("empty", 0.08);
  empty.nfiles = 0;
  dist::JobService svc({}, empty);
  const dist::JobReport rep = svc.wait();
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  EXPECT_TRUE(rep.report.complete);
  EXPECT_EQ(rep.report.shards, 0u);
}

/// A worker's sub-manifest names the job it served — its corpus and
/// its "jobs" list come from the JobConfig, its thread count from the
/// job's run configuration.
TEST(DistJobService, WorkerSubManifestNamesItsJob) {
  dist::ServiceConfig sc;
  sc.expected_workers = 1;
  sc.lease_timeout_ms = 60000;
  dist::JobSpec spec = profile_job("named-job", 0.04);
  spec.run.threads = 2;
  dist::JobService svc(sc, spec);

  const std::string path = testing::TempDir() + "dist_sub_manifest.json";
  int rc = -1;
  std::thread w([&] {
    dist::WorkerOptions opts;
    opts.port = svc.port();
    opts.worker_id = 1;
    opts.metrics_out = path;
    rc = dist::run_worker(opts);
  });
  const dist::JobReport rep = svc.wait();
  w.join();
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(rep.state, dist::JobState::kDone);
  ASSERT_EQ(rep.report.workers.size(), 1u);
  EXPECT_EQ(rep.report.workers[0].manifest, path);

  std::ifstream in(path);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(doc.find("\"corpus\": \"named-job\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"threads\": 2,"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"jobs\": [{\"job\": 1, \"name\": \"named-job\"}]"),
            std::string::npos)
      << doc;
}

}  // namespace
}  // namespace cksum
