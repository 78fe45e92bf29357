// Framed, integrity-checked message transport for the distributed
// splice service (docs/DIST.md).
//
// Every frame is
//
//   magic "CKDF" | u8 version | u8 type | u16 reserved | u32 seq |
//   u32 payload_len | payload bytes | u32 CRC-32
//
// with all integers little-endian and the trailing CRC-32 computed —
// through the checksum kernel registry, the same code path the paper's
// experiment studies — over header + payload. A frame whose CRC fails
// is rejected and recovered by go-back-N retransmission: the receiver
// NACKs the sequence number it expects next and the sender replays
// every buffered frame from there, so a corrupted result can never be
// merged into the run. Unrecoverable corruption (a mangled header, a
// replay gap past the resend window, or an exhausted NACK budget)
// aborts the connection instead, degrading to the service's
// lease-reassignment path.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string_view>

#include "util/bytes.hpp"

namespace cksum::dist {

/// Protocol frame types (payload encodings in protocol.hpp). Values 2
/// and 6 belonged to retired messages and stay unassigned, so no live
/// type's wire value ever moves.
enum class MsgType : std::uint8_t {
  kHello = 1,        ///< worker -> service: identity
  kLeaseGrant = 3,   ///< service -> worker: shard lease
  kLeaseResult = 4,  ///< worker -> service: stats + metric deltas
  kHeartbeat = 5,    ///< worker -> service: liveness + progress
  kShutdown = 7,     ///< service -> worker: pool draining, finish up
  kGoodbye = 8,      ///< worker -> service: clean exit (+ manifest)
  kNack = 9,         ///< either: CRC reject, resend from carried seq
  kJobConfig = 10,   ///< service -> worker: a named job's config
};

std::string_view name(MsgType t) noexcept;

inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderLen = 16;
inline constexpr std::size_t kFrameTrailerLen = 4;  ///< the CRC-32
/// Largest accepted payload; a bigger length field means the header is
/// corrupt (LeaseResult, the largest real frame, is a few KiB).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 24;

struct Frame {
  MsgType type = MsgType::kHello;
  std::uint32_t seq = 0;
  util::Bytes payload;
};

/// Serial-number order (RFC 1982 style) for the u32 frame sequence
/// space: true when `a` precedes `b`, correct across 2^32 wraparound
/// as long as the two are within 2^31 of each other — the resend
/// window is 16 frames, so that always holds on a live connection.
constexpr bool seq_before(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}

/// Encode one complete wire frame.
util::Bytes encode_frame(MsgType type, std::uint32_t seq,
                         util::ByteView payload);

/// Header-only decode (first kFrameHeaderLen bytes). Returns false on
/// bad magic/version/oversize-length — unrecoverable, abort the
/// connection. `payload_len` is the number of bytes that follow the
/// header before the 4 CRC bytes.
bool decode_frame_header(const std::uint8_t* hdr, MsgType* type,
                         std::uint32_t* seq, std::uint32_t* payload_len);

/// CRC check over header + payload against the trailing stored CRC.
bool frame_crc_ok(util::ByteView header_and_payload, std::uint32_t stored);

/// Reliable framed channel over a connected stream socket.
///
/// send() is thread-safe (the worker's heartbeat thread shares the
/// socket with its main loop); recv() must stay on a single thread.
/// recv() transparently handles the NACK/replay protocol: it NACKs
/// payload-corrupted frames, drops replay duplicates and
/// post-corruption frames until the replay catches up, and services
/// incoming NACKs by replaying from the send buffer — callers only
/// ever see intact, in-order frames. Frame/byte/reject counts are
/// recorded in the dist.* metric family.
class FrameChannel {
 public:
  /// Takes ownership of the connected socket fd.
  explicit FrameChannel(int fd);
  ~FrameChannel();
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  int fd() const noexcept { return fd_; }
  bool closed() const noexcept { return fd_ < 0; }
  void close() noexcept;

  /// Frame and send one message. Returns false once the connection is
  /// unusable (peer gone, or a prior unrecoverable error).
  bool send(MsgType type, util::ByteView payload);

  /// Next in-order frame. `timeout_ms` bounds the wait for a complete
  /// frame (-1 = block indefinitely). Returns false on EOF, timeout,
  /// or unrecoverable protocol error — the caller treats all three as
  /// a dead peer.
  bool recv(Frame* out, int timeout_ms = -1);

  /// Test hook: XOR a byte of the next sent frame's payload after the
  /// CRC is computed, so the receiver sees a checksum failure exactly
  /// as link corruption would produce one.
  void corrupt_next_send() noexcept { corrupt_next_ = true; }

  /// Test hook: start both ends' sequence counters at an arbitrary
  /// point (both sides of a connection must agree). Lets the
  /// wraparound regression test drive seq across 2^32 without sending
  /// four billion frames. Call before any traffic.
  void preset_sequences_for_test(std::uint32_t send_seq,
                                 std::uint32_t recv_next) noexcept {
    std::lock_guard<std::mutex> lk(send_mu_);
    send_seq_ = send_seq;
    recv_next_ = recv_next;
  }

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t crc_rejects = 0;  ///< payload corruption detected
    std::uint64_t resends = 0;      ///< frames replayed after a NACK
  };
  Stats stats() const;

 private:
  bool send_locked(MsgType type, util::ByteView payload);
  bool write_all(const std::uint8_t* data, std::size_t len);
  bool read_exact(std::uint8_t* data, std::size_t len, int timeout_ms);
  bool send_nack();
  bool handle_nack(std::uint32_t resume_seq);

  /// Replayable recent frames (seq, wire bytes). NACK recovery can
  /// only reach back this far; older gaps abort the connection.
  static constexpr std::size_t kResendWindow = 16;
  /// Total NACK/replay events tolerated per connection before giving
  /// up (guards against a corruption livelock).
  static constexpr unsigned kNackBudget = 32;

  int fd_ = -1;
  mutable std::mutex send_mu_;
  std::uint32_t send_seq_ = 0;  ///< seq assigned to the next sent frame
  std::deque<std::pair<std::uint32_t, util::Bytes>> sent_;
  std::uint32_t recv_next_ = 0;  ///< seq expected from the peer
  unsigned nacks_left_ = kNackBudget;
  bool corrupt_next_ = false;
  bool broken_ = false;
  Stats stats_;
};

}  // namespace cksum::dist
