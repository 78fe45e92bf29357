#include "dist/protocol.hpp"

#include <cstring>

#include "obs/registry.hpp"

namespace cksum::dist {
namespace {

void put_u8(util::Bytes& out, std::uint8_t v) { out.push_back(v); }

void put_u32(util::Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(util::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(util::Bytes& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_str(util::Bytes& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked little-endian reader over one payload.
struct Reader {
  util::ByteView in;
  std::size_t off = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || in.size() - off < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return in[off++];
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(in[off++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(in[off++]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(in.data() + off), n);
    off += n;
    return s;
  }
  /// Whole payload consumed with no trailing garbage.
  bool done() const { return ok && off == in.size(); }
};

}  // namespace

// Stats travel as a field count, then every counter in
// core::for_each_splice_counter's order: one list keeps encode, decode
// and SpliceStats::merge structurally identical.
void encode_stats(util::Bytes& out, const core::SpliceStats& st) {
  put_u32(out, core::kSpliceCounterCount);
  core::for_each_splice_counter([&](std::uint64_t v) { put_u64(out, v); },
                                st);
}

bool decode_stats(util::ByteView in, std::size_t* offset,
                  core::SpliceStats* out) {
  Reader r{in, *offset};
  if (r.u32() != core::kSpliceCounterCount) return false;
  core::for_each_splice_counter([&](std::uint64_t& v) { v = r.u64(); },
                                *out);
  if (!r.ok) return false;
  *offset = r.off;
  return true;
}

util::Bytes encode(const HelloMsg& m) {
  util::Bytes out;
  put_u32(out, m.proto);
  put_u64(out, m.worker_id);
  put_u64(out, m.pid);
  return out;
}

std::optional<HelloMsg> decode_hello(util::ByteView in) {
  Reader r{in};
  HelloMsg m;
  m.proto = r.u32();
  m.worker_id = r.u64();
  m.pid = r.u64();
  if (!r.done()) return std::nullopt;
  return m;
}

util::Bytes encode(const ConfigMsg& m) {
  util::Bytes out;
  put_u8(out, static_cast<std::uint8_t>(m.corpus_kind));
  put_str(out, m.corpus);
  put_f64(out, m.scale);
  put_u64(out, m.segment);
  put_u8(out, m.transport);
  put_u8(out, m.trailer ? 1 : 0);
  put_u8(out, m.compress ? 1 : 0);
  put_u32(out, m.threads);
  put_u32(out, m.heartbeat_ms);
  return out;
}

std::optional<ConfigMsg> decode_config(util::ByteView in) {
  Reader r{in};
  ConfigMsg m;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(CorpusKind::kCorpusFile))
    return std::nullopt;
  m.corpus_kind = static_cast<CorpusKind>(kind);
  m.corpus = r.str();
  m.scale = r.f64();
  m.segment = r.u64();
  m.transport = r.u8();
  m.trailer = r.u8() != 0;
  m.compress = r.u8() != 0;
  m.threads = r.u32();
  m.heartbeat_ms = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

util::Bytes encode(const JobConfigMsg& m) {
  util::Bytes out;
  put_u64(out, m.job);
  put_str(out, m.name);
  const util::Bytes cfg = encode(m.run);
  out.insert(out.end(), cfg.begin(), cfg.end());
  return out;
}

std::optional<JobConfigMsg> decode_job_config(util::ByteView in) {
  Reader r{in};
  JobConfigMsg m;
  m.job = r.u64();
  m.name = r.str();
  if (!r.ok) return std::nullopt;
  const auto cfg =
      decode_config(util::ByteView(in.data() + r.off, in.size() - r.off));
  if (!cfg) return std::nullopt;
  m.run = *cfg;
  return m;
}

util::Bytes encode(const LeaseGrantMsg& m) {
  util::Bytes out;
  put_u64(out, m.shard);
  put_u64(out, m.epoch);
  put_u64(out, m.begin);
  put_u64(out, m.end);
  put_u64(out, m.job);
  return out;
}

std::optional<LeaseGrantMsg> decode_lease_grant(util::ByteView in) {
  Reader r{in};
  LeaseGrantMsg m;
  m.shard = r.u64();
  m.epoch = r.u64();
  m.begin = r.u64();
  m.end = r.u64();
  m.job = r.u64();
  if (!r.done()) return std::nullopt;
  return m;
}

util::Bytes encode(const LeaseResultMsg& m) {
  util::Bytes out;
  put_u64(out, m.shard);
  put_u64(out, m.epoch);
  encode_stats(out, m.stats);
  put_u32(out, static_cast<std::uint32_t>(m.deltas.size()));
  for (const obs::CounterDelta& d : m.deltas) {
    put_str(out, d.name);
    put_u64(out, d.delta);
  }
  put_u64(out, m.job);
  return out;
}

std::optional<LeaseResultMsg> decode_lease_result(util::ByteView in) {
  Reader r{in};
  LeaseResultMsg m;
  m.shard = r.u64();
  m.epoch = r.u64();
  if (!r.ok) return std::nullopt;
  std::size_t off = r.off;
  if (!decode_stats(in, &off, &m.stats)) return std::nullopt;
  r.off = off;
  const std::uint32_t n = r.u32();
  if (!r.ok || n > 65536) return std::nullopt;
  m.deltas.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    obs::CounterDelta d;
    d.name = r.str();
    d.delta = r.u64();
    if (!r.ok) return std::nullopt;
    m.deltas.push_back(std::move(d));
  }
  m.job = r.u64();
  if (!r.done()) return std::nullopt;
  return m;
}

util::Bytes encode(const HeartbeatMsg& m) {
  util::Bytes out;
  put_u64(out, m.shard);
  put_u64(out, m.epoch);
  put_u64(out, m.job);
  return out;
}

std::optional<HeartbeatMsg> decode_heartbeat(util::ByteView in) {
  Reader r{in};
  HeartbeatMsg m;
  m.shard = r.u64();
  m.epoch = r.u64();
  m.job = r.u64();
  if (!r.done()) return std::nullopt;
  return m;
}

util::Bytes encode(const GoodbyeMsg& m) {
  util::Bytes out;
  put_str(out, m.manifest_path);
  return out;
}

std::optional<GoodbyeMsg> decode_goodbye(util::ByteView in) {
  Reader r{in};
  GoodbyeMsg m;
  m.manifest_path = r.str();
  if (!r.done()) return std::nullopt;
  return m;
}

void register_dist_metrics() {
  obs::Registry& reg = obs::Registry::global();
  // Frame-level traffic (recorded by FrameChannel).
  reg.counter("dist.frames_sent", obs::Tag::kScheduling);
  reg.counter("dist.frames_received", obs::Tag::kScheduling);
  reg.counter("dist.bytes_sent", obs::Tag::kScheduling);
  reg.counter("dist.bytes_received", obs::Tag::kScheduling);
  reg.counter("dist.frame_crc_rejects", obs::Tag::kScheduling);
  reg.counter("dist.frame_resends", obs::Tag::kScheduling);
  // Lease lifecycle (recorded by the service).
  reg.counter("dist.workers_connected", obs::Tag::kScheduling);
  reg.counter("dist.workers_lost", obs::Tag::kScheduling);
  reg.counter("dist.leases_granted", obs::Tag::kScheduling);
  reg.counter("dist.leases_reassigned", obs::Tag::kScheduling);
  reg.counter("dist.results_accepted", obs::Tag::kScheduling);
  reg.counter("dist.results_stale", obs::Tag::kScheduling);
  reg.counter("dist.heartbeats", obs::Tag::kScheduling);
  // Multi-tenant job service (service.hpp).
  reg.counter("dist.jobs_submitted", obs::Tag::kScheduling);
  reg.counter("dist.jobs_rejected", obs::Tag::kScheduling);
  reg.counter("dist.jobs_cancelled", obs::Tag::kScheduling);
  reg.counter("dist.jobs_completed", obs::Tag::kScheduling);
  // High-water mark of any connection's bounded write queue (monotone
  // max, recorded as the counter's value) and grants deferred because
  // a queue was at capacity.
  reg.counter("dist.write_queue_hwm", obs::Tag::kScheduling);
  reg.counter("dist.grants_deferred", obs::Tag::kScheduling);
}

}  // namespace cksum::dist
