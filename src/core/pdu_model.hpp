// Per-packet precomputation for the splice simulator.
//
// The simulator evaluates ~10^3 splices per adjacent packet pair, so
// each check value must be computable from per-cell partial sums in
// O(cells) instead of O(bytes):
//
//  * Internet checksum — position-independent: the splice's content
//    sum is the ones-complement sum of per-cell sums (§4.1 of the
//    paper computes splice checksums the same way).
//  * Fletcher — positional: a cell's contribution to the B term is
//    b + E·a where E is the byte offset of the cell's end from the end
//    of the packet (§5.2); per-cell (a, b) pairs combine left to
//    right.
//  * CRC-32 — per-cell CRCs combine with a precomputed 48-byte GF(2)
//    shift operator.
//  * Identical-data detection — 64-bit per-cell content hashes.
//
// "Case A" below refers to the dominant splice shape: first cell is
// packet 1's header cell and last cell is packet 2's EOM cell, so the
// pseudo-header and stored check field are known per packet pair.
// Splices that are *regular* (see `fast_path_ok`) use only partials;
// everything else falls back to materialising the splice bytes.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "atm/aal5.hpp"
#include "checksum/checksum.hpp"
#include "checksum/koopman.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"

namespace cksum::core {

/// 64-bit Koopman blocks per 48-byte cell — exact: 48 is a multiple of
/// the 8-byte block, so per-cell Koopman partials combine with no
/// partial-block seams.
inline constexpr std::uint64_t kKoopmanBlocksPerCell =
    atm::kCellPayload / alg::kKoopmanBlockBytes;

/// Partial sums over one full 48-byte PDU cell. Padding is explicit
/// (`pad` is always zero), so the corpus store persists the struct as
/// it is.
struct CellPartial {
  std::uint16_t inet = 0;        ///< Internet sum of the 48 bytes
  std::uint16_t pad = 0;
  alg::FletcherPair f255{};      ///< Fletcher pair, mod 255
  alg::FletcherPair f256{};      ///< Fletcher pair, mod 256
  std::uint32_t crc = 0;         ///< finalised crc32 of the 48 bytes
  std::uint64_t hash = 0;        ///< content hash (identical-data test)
  alg::KoopmanDualPair kd{};     ///< Koopman dual pair of the 6 blocks
  std::uint64_t ks = 0;          ///< Koopman single sum of the 6 blocks

  friend bool operator==(const CellPartial&, const CellPartial&) = default;
};
static_assert(sizeof(CellPartial) == 48);
static_assert(std::has_unique_object_representations_v<CellPartial>);

/// Case-A transport-checksum pieces of one packet.
struct TransportPartials {
  /// Fletcher pairs over pseudo-header ++ IP bytes [20, 48) with check
  /// bytes as stored (Fletcher verifies sum-to-zero over the message
  /// as transmitted).
  alg::FletcherPair head_f255{};
  alg::FletcherPair head_f256{};
  /// Internet sum of the same prefix with the check field zeroed (the
  /// "content" contribution of the header cell).
  std::uint16_t head_sum = 0;
  /// Stored check value: header placement reads it from this packet's
  /// TCP header; trailer placement from the end of this packet's
  /// payload (inside its EOM cell).
  std::uint16_t stored = 0;

  /// EOM-cell coverage: the first `eom_len` bytes of the EOM cell lie
  /// inside the IP packet.
  std::uint32_t eom_len = 0;
  alg::FletcherPair eom_f255{};
  alg::FletcherPair eom_f256{};
  /// Internet sum of those bytes (trailer placement: check bytes
  /// zeroed out of the sum).
  std::uint16_t eom_sum = 0;
  std::uint16_t pad = 0;

  friend bool operator==(const TransportPartials&,
                         const TransportPartials&) = default;
};

/// Every per-packet scalar the splice evaluator reads. No padding
/// bytes (`pad` is always zero) and no `bool`, so the corpus store
/// persists and maps the struct as it is.
struct PacketPartials {
  TransportPartials tp;
  std::uint32_t stored_crc = 0;   ///< AAL5 trailer CRC field
  /// Koopman sums share the AAL5 CRC's coverage (the whole PDU minus
  /// the trailing 4 check bytes), so the EOM cell contributes its
  /// first 44 bytes — 5 full blocks plus a zero-padded 4-byte tail,
  /// exactly the padding the direct computation applies at that length.
  std::uint64_t eom_ks = 0;       ///< Koopman single of EOM bytes [0, 44)
  std::uint64_t ks_pdu = 0;       ///< Koopman single over PDU minus CRC field
  /// Hash of the EOM cell's in-datagram bytes only ([0, tp.eom_len)) —
  /// identical-data comparisons are over the delivered IP datagram,
  /// not the AAL5 pad/trailer.
  std::uint64_t eom_cov_hash = 0;
  std::uint32_t crc_head44 = 0;   ///< crc32 of EOM cell bytes [0, 44)
  alg::KoopmanDualPair eom_kd{};  ///< Koopman dual of EOM bytes [0, 44)
  alg::KoopmanDualPair kd_pdu{};  ///< Koopman dual over PDU minus CRC field
  std::uint16_t total_len = 0;    ///< IP total length
  /// Nonzero when every non-EOM cell of a splice terminated by this
  /// packet lies fully inside the IP packet and (in trailer mode) the
  /// trailer check bytes sit wholly within the EOM coverage — the
  /// preconditions of the partial-sums fast path.
  std::uint8_t fast_path_ok = 1;
  std::uint8_t hdr_require_ipck = 0;  ///< flags hdr_ok_self was built with
  std::uint8_t hdr_legacy95 = 0;
  std::uint8_t pad[7] = {};

  friend bool operator==(const PacketPartials&,
                         const PacketPartials&) = default;
};
static_assert(sizeof(PacketPartials) == 104);
static_assert(std::has_unique_object_representations_v<PacketPartials>);

/// A packet as the splice evaluator reads it, without owning any of
/// it: its partials, and spans of its cell partials (EOM cell last),
/// its header verdicts and its PDU bytes. A corpus store's views point
/// into its mapping; SimPacket::view() points into the packet, which
/// must outlive the view.
struct PacketView {
  const PacketPartials* partials = nullptr;
  std::span<const CellPartial> cells;
  std::span<const std::uint8_t> hdr_ok_self;  ///< as SimPacket's
  util::ByteView pdu;  ///< cells.size() whole cells

  /// view->field reads the packet's partials.
  const PacketPartials* operator->() const noexcept { return partials; }
};

/// A packet prepared for splice evaluation.
struct SimPacket : PacketPartials {
  atm::CpcsPdu pdu;
  std::vector<CellPartial> cells;
  /// Header-check verdict per non-EOM cell, against THIS packet's own
  /// AAL5 length. In a fixed-segment flow almost every adjacent pair
  /// has equal lengths, so evaluate_pair can reuse this vector instead
  /// of re-running the (IP-parse + checksum) checks once per pair;
  /// unequal-length pairs recompute against the partner's length.
  std::vector<std::uint8_t> hdr_ok_self;

  PacketView view() const noexcept {
    return {this, cells, hdr_ok_self, pdu.bytes()};
  }
};

/// Partial sums of each whole 48-byte cell of `cells` into `out`
/// (`cells` holds out.size() cells). Under the `scalar` kernel
/// selection every sum comes from its reference entry, seven
/// dispatched calls per cell; otherwise from one fused pass over each
/// cell. Either way kernel.<alg>.* counts one call and 48 bytes per
/// cell for each algorithm (two for fletcher: mod 255 and mod 256).
void cell_partials(util::ByteView cells, std::span<CellPartial> out) noexcept;

/// Build a SimPacket (frame the datagram in AAL5, compute partials):
/// packetize_file's code over one packet, field for field the same.
SimPacket make_sim_packet(const net::PacketConfig& cfg,
                          const net::Packet& pkt);

/// Packetize a whole file into SimPackets. Every segment is framed
/// first; then, unless the `scalar` selection is active, one fused
/// pass runs over all the file's cells four at a time across packet
/// boundaries, and each packet's own sums are read off its EOM cell's
/// pass. kernel.<alg>.* counts what per-cell and per-packet dispatch
/// would.
std::vector<SimPacket> packetize_file(const net::FlowConfig& cfg,
                                      util::ByteView file);

}  // namespace cksum::core
