#include "dist/frame.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "checksum/kernels/kernel.hpp"
#include "obs/registry.hpp"

namespace cksum::dist {
namespace {

constexpr std::uint8_t kMagic[4] = {'C', 'K', 'D', 'F'};

// Little-endian wire integers: the protocol is new, so it uses the
// natural order of every machine it will run on rather than network
// order (the packet simulator's big-endian helpers stay for the
// simulated IP/TCP headers, which the paper fixes as network order).
void put_le32(util::Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

struct FrameMetrics {
  obs::Counter sent;
  obs::Counter received;
  obs::Counter bytes_sent;
  obs::Counter bytes_received;
  obs::Counter crc_rejects;
  obs::Counter resends;
};

// All kScheduling: wire traffic depends on shard assignment and
// timing, never on the corpus, so it must stay out of determinism
// diffs.
FrameMetrics& frame_metrics() {
  static FrameMetrics m = [] {
    obs::Registry& reg = obs::Registry::global();
    FrameMetrics f;
    f.sent = reg.counter("dist.frames_sent", obs::Tag::kScheduling);
    f.received = reg.counter("dist.frames_received", obs::Tag::kScheduling);
    f.bytes_sent = reg.counter("dist.bytes_sent", obs::Tag::kScheduling);
    f.bytes_received =
        reg.counter("dist.bytes_received", obs::Tag::kScheduling);
    f.crc_rejects = reg.counter("dist.frame_crc_rejects", obs::Tag::kScheduling);
    f.resends = reg.counter("dist.frame_resends", obs::Tag::kScheduling);
    return f;
  }();
  return m;
}

}  // namespace

std::string_view name(MsgType t) noexcept {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kLeaseGrant: return "lease_grant";
    case MsgType::kLeaseResult: return "lease_result";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kGoodbye: return "goodbye";
    case MsgType::kNack: return "nack";
    case MsgType::kJobConfig: return "job_config";
  }
  return "unknown";
}

util::Bytes encode_frame(MsgType type, std::uint32_t seq,
                         util::ByteView payload) {
  util::Bytes out;
  out.reserve(kFrameHeaderLen + payload.size() + kFrameTrailerLen);
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);  // reserved
  out.push_back(0);
  put_le32(out, seq);
  put_le32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc =
      alg::kern::crc32(util::ByteView(out.data(), out.size()));
  put_le32(out, crc);
  return out;
}

bool decode_frame_header(const std::uint8_t* hdr, MsgType* type,
                         std::uint32_t* seq, std::uint32_t* payload_len) {
  if (std::memcmp(hdr, kMagic, 4) != 0) return false;
  if (hdr[4] != kFrameVersion) return false;
  const std::uint8_t t = hdr[5];
  if (t < static_cast<std::uint8_t>(MsgType::kHello) ||
      t > static_cast<std::uint8_t>(MsgType::kJobConfig))
    return false;
  const std::uint32_t len = get_le32(hdr + 12);
  if (len > kMaxFramePayload) return false;
  *type = static_cast<MsgType>(t);
  *seq = get_le32(hdr + 8);
  *payload_len = len;
  return true;
}

bool frame_crc_ok(util::ByteView header_and_payload, std::uint32_t stored) {
  return alg::kern::crc32(header_and_payload) == stored;
}

FrameChannel::FrameChannel(int fd) : fd_(fd) { frame_metrics(); }

FrameChannel::~FrameChannel() { close(); }

void FrameChannel::close() noexcept {
  std::lock_guard<std::mutex> lk(send_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  broken_ = true;
}

bool FrameChannel::write_all(const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool FrameChannel::send(MsgType type, util::ByteView payload) {
  std::lock_guard<std::mutex> lk(send_mu_);
  return send_locked(type, payload);
}

bool FrameChannel::send_locked(MsgType type, util::ByteView payload) {
  if (fd_ < 0 || broken_) return false;
  const std::uint32_t seq = send_seq_++;
  util::Bytes wire = encode_frame(type, seq, payload);
  // Keep the intact encoding for replay; corrupt only the copy that
  // hits the wire.
  sent_.emplace_back(seq, wire);
  while (sent_.size() > kResendWindow) sent_.pop_front();
  if (corrupt_next_ && !payload.empty()) {
    corrupt_next_ = false;
    wire[kFrameHeaderLen] ^= 0x40;
  }
  if (!write_all(wire.data(), wire.size())) {
    broken_ = true;
    return false;
  }
  stats_.frames_sent++;
  frame_metrics().sent.add(1);
  frame_metrics().bytes_sent.add(wire.size());
  return true;
}

bool FrameChannel::read_exact(std::uint8_t* data, std::size_t len,
                              int timeout_ms) {
  while (len > 0) {
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) return false;  // timeout
    const ssize_t n = ::recv(fd_, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool FrameChannel::send_nack() {
  if (nacks_left_ == 0) return false;
  --nacks_left_;
  util::Bytes payload;
  put_le32(payload, recv_next_);
  std::lock_guard<std::mutex> lk(send_mu_);
  return send_locked(MsgType::kNack, payload);
}

bool FrameChannel::handle_nack(std::uint32_t resume_seq) {
  if (nacks_left_ == 0) return false;
  --nacks_left_;
  std::lock_guard<std::mutex> lk(send_mu_);
  if (fd_ < 0 || broken_) return false;
  // The peer wants every frame from resume_seq replayed in order. A
  // resume point older than the window means the gap is unrecoverable.
  // Serial-number comparisons: raw < would invert at the u32 wrap
  // (e.g. resume_seq 0xffffffff against a buffered seq of 0x00000001).
  if (!sent_.empty() && seq_before(resume_seq, sent_.front().first))
    return false;
  for (const auto& [seq, wire] : sent_) {
    if (seq_before(seq, resume_seq)) continue;
    if (!write_all(wire.data(), wire.size())) {
      broken_ = true;
      return false;
    }
    stats_.resends++;
    frame_metrics().resends.add(1);
    frame_metrics().bytes_sent.add(wire.size());
  }
  return true;
}

bool FrameChannel::recv(Frame* out, int timeout_ms) {
  if (fd_ < 0) return false;
  std::uint8_t hdr[kFrameHeaderLen];
  for (;;) {
    if (!read_exact(hdr, sizeof hdr, timeout_ms)) return false;
    MsgType type;
    std::uint32_t seq = 0;
    std::uint32_t payload_len = 0;
    if (!decode_frame_header(hdr, &type, &seq, &payload_len)) {
      // Corrupted header: the length field can no longer be trusted,
      // so framing is lost. Abort; the service's lease layer
      // re-runs whatever this connection was carrying.
      broken_ = true;
      return false;
    }
    util::Bytes body(kFrameHeaderLen + payload_len);
    std::memcpy(body.data(), hdr, kFrameHeaderLen);
    if (!read_exact(body.data() + kFrameHeaderLen, payload_len, timeout_ms))
      return false;
    std::uint8_t crc_buf[kFrameTrailerLen];
    if (!read_exact(crc_buf, sizeof crc_buf, timeout_ms)) return false;
    if (!frame_crc_ok(util::ByteView(body.data(), body.size()),
                      get_le32(crc_buf))) {
      {
        std::lock_guard<std::mutex> lk(send_mu_);
        stats_.crc_rejects++;
      }
      frame_metrics().crc_rejects.add(1);
      if (!send_nack()) {
        broken_ = true;
        return false;
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(send_mu_);
      stats_.frames_received++;
    }
    frame_metrics().received.add(1);
    frame_metrics().bytes_received.add(body.size() + kFrameTrailerLen);
    if (type == MsgType::kNack) {
      // Control frame for our send side; never surfaces to the caller.
      // NACKs ride outside the peer's data sequence only in effect —
      // they still consume a seq on the peer's side, so advance ours.
      if (payload_len != 4) {
        broken_ = true;
        return false;
      }
      if (seq == recv_next_) recv_next_ = seq + 1;
      if (!handle_nack(get_le32(body.data() + kFrameHeaderLen))) {
        broken_ = true;
        return false;
      }
      continue;
    }
    if (seq != recv_next_) {
      // Duplicate from a replay that started earlier than our resume
      // point, or frames racing ahead of a pending replay: drop until
      // the expected seq arrives. A seq from the future without a
      // pending NACK would also land here and be re-NACKed by the
      // peer's next real frame... but frames on a stream socket can't
      // reorder, so in practice only replay overlap hits this.
      // Serial order, not raw order: a replayed seq 0xffffffff while
      // we expect 0x00000002 is behind us, not four billion ahead.
      if (seq_before(recv_next_, seq)) {
        if (!send_nack()) {
          broken_ = true;
          return false;
        }
      }
      continue;
    }
    recv_next_ = seq + 1;
    out->type = type;
    out->seq = seq;
    out->payload.assign(body.begin() + kFrameHeaderLen, body.end());
    return true;
  }
}

FrameChannel::Stats FrameChannel::stats() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return stats_;
}

}  // namespace cksum::dist
