#include "dist/frame.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
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

bool FrameChannel::buffer_at_least(
    std::size_t len, std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  if (rend_ - rpos_ >= len) return true;
  if (rbuf_.size() - rpos_ < len) {
    // Move the unconsumed tail to the front; grow only for a frame
    // larger than the buffer.
    const std::size_t have = rend_ - rpos_;
    if (have != 0) std::memmove(rbuf_.data(), rbuf_.data() + rpos_, have);
    rpos_ = 0;
    rend_ = have;
    if (rbuf_.size() < len) rbuf_.resize(std::max(len, kReadBuffer));
  }
  while (rend_ - rpos_ < len) {
    const ssize_t n = ::recv(fd_, rbuf_.data() + rend_, rbuf_.size() - rend_,
                             MSG_DONTWAIT);
    if (n > 0) {
      rend_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    // Nothing queued: poll for the time left, rounded up (0 once the
    // deadline has passed, which is then a timeout).
    int wait_ms = -1;
    if (deadline != Clock::time_point::max())
      wait_ms = static_cast<int>(std::max<std::int64_t>(
          0, std::chrono::ceil<std::chrono::milliseconds>(deadline -
                                                          Clock::now())
                 .count()));
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) return false;  // timeout
  }
  return true;
}

bool FrameChannel::frame_buffered() const noexcept {
  const std::size_t have = rend_ - rpos_;
  if (have < kFrameHeaderLen) return false;
  MsgType type;
  std::uint32_t seq = 0;
  std::uint32_t payload_len = 0;
  if (!decode_frame_header(rbuf_.data() + rpos_, &type, &seq, &payload_len))
    return true;  // recv() reports the lost framing at once
  return have >= kFrameHeaderLen + payload_len + kFrameTrailerLen;
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
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      timeout_ms < 0 ? Clock::time_point::max()
                     : Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (!buffer_at_least(kFrameHeaderLen, deadline)) return false;
    MsgType type;
    std::uint32_t seq = 0;
    std::uint32_t payload_len = 0;
    if (!decode_frame_header(rbuf_.data() + rpos_, &type, &seq,
                             &payload_len)) {
      // Corrupted header: the length field can no longer be trusted,
      // so framing is lost. Abort; the service's lease layer
      // re-runs whatever this connection was carrying.
      broken_ = true;
      return false;
    }
    const std::size_t body_len = kFrameHeaderLen + payload_len;
    if (!buffer_at_least(body_len + kFrameTrailerLen, deadline)) return false;
    // The frame is consumed here; `body` stays valid until the next
    // buffer_at_least.
    const std::uint8_t* body = rbuf_.data() + rpos_;
    rpos_ += body_len + kFrameTrailerLen;
    if (rpos_ == rend_) rpos_ = rend_ = 0;
    if (!frame_crc_ok(util::ByteView(body, body_len),
                      get_le32(body + body_len))) {
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
    frame_metrics().bytes_received.add(body_len + kFrameTrailerLen);
    if (type == MsgType::kNack) {
      // Control frame for our send side; never surfaces to the caller.
      // NACKs ride outside the peer's data sequence only in effect —
      // they still consume a seq on the peer's side, so advance ours.
      if (payload_len != 4) {
        broken_ = true;
        return false;
      }
      if (seq == recv_next_) recv_next_ = seq + 1;
      if (!handle_nack(get_le32(body + kFrameHeaderLen))) {
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
    out->payload.assign(body + kFrameHeaderLen, body + body_len);
    return true;
  }
}

FrameChannel::Stats FrameChannel::stats() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return stats_;
}

}  // namespace cksum::dist
