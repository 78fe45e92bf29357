// TCP options, including the RFC 1146 "TCP Alternate Checksum"
// negotiation the paper cites as [13] (Zweig & Partridge): the
// mechanism by which a TCP connection would actually switch from the
// standard Internet checksum to a Fletcher sum.
//
//   kind 2  — MSS (for realism in option lists)
//   kind 14 — Alternate Checksum Request: {kind, len=3, number}
//   kind 15 — Alternate Checksum Data (carries wider check values)
//
// Checksum numbers (RFC 1146): 0 = TCP checksum, 1 = 8-bit Fletcher,
// 2 = 16-bit Fletcher, 3 = redundant checksum avoidance. Numbers 1/2
// correspond to alg::kern::fletcher_block and alg::kern::fletcher32_block.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bytes.hpp"

namespace cksum::net {

enum class AltChecksum : std::uint8_t {
  kTcp = 0,
  kFletcher8 = 1,
  kFletcher16 = 2,
  kAvoidance = 3,
};

struct TcpOption {
  std::uint8_t kind = 0;
  util::Bytes data;  ///< option payload (excludes kind/length bytes)
};

class TcpOptionList {
 public:
  /// Append a Maximum Segment Size option.
  void add_mss(std::uint16_t mss);

  /// Append an Alternate Checksum Request (RFC 1146).
  void add_alt_checksum_request(AltChecksum number);

  /// Append Alternate Checksum Data carrying `value` bytes.
  void add_alt_checksum_data(util::ByteView value);

  /// Append a NOP (used for alignment).
  void add_nop();

  const std::vector<TcpOption>& options() const noexcept { return opts_; }

  /// Serialise: options back-to-back, NUL(EOL)-padded to a 4-byte
  /// boundary as the TCP data-offset field requires. Size ≤ 40 bytes
  /// (throws std::length_error beyond).
  util::Bytes serialize() const;

  /// Parse a TCP options area. Returns nullopt on malformed lengths.
  /// EOL terminates; NOPs are preserved.
  static std::optional<TcpOptionList> parse(util::ByteView area);

  /// Convenience: the alternate checksum requested, if any.
  std::optional<AltChecksum> requested_alt_checksum() const;

 private:
  std::vector<TcpOption> opts_;
};

}  // namespace cksum::net
