#include "core/pdu_model.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "checksum/kernels/impl.hpp"
#include "checksum/kernels/kernel.hpp"
#include "net/validate.hpp"
#include "util/hash.hpp"

namespace cksum::core {

namespace {

std::uint64_t sum_lanes16(std::uint64_t v) noexcept {
  return (v & 0xffffu) + ((v >> 16) & 0xffffu) + ((v >> 32) & 0xffffu) +
         (v >> 48);
}

/// Σ j·lane_j over the four 16-bit lanes of v.
std::uint64_t weigh_lanes16(std::uint64_t v) noexcept {
  return ((v >> 16) & 0xffffu) + 2 * ((v >> 32) & 0xffffu) + 3 * (v >> 48);
}

/// The seven partials of K consecutive 48-byte cells at `p` from one
/// pass over their 8-byte blocks.
///
/// The content hash's FNV-1a chain is serial (a multiply per byte), so
/// K chains advance side by side, and the other six sums, which depend
/// neither on it nor on each other, run in its shadow. The CRC is
/// slicing-by-8. The five modular sums come from lane sums of each
/// block x read big-endian, reduced once at the end of the cell:
///
///   bytes  x & 0x00FF00FF00FF00FF puts bytes 7,5,3,1 of the block in
///          16-bit lanes 0..3, (x >> 8) & … bytes 6,4,2,0. With S the
///          running sum of both over the blocks, T the sum of S after
///          each block and H the sum of the second, the Fletcher sums
///          of the cell (byte i weighted 48 − i) are
///            A = ΣS,  B = 8·ΣT − 7·ΣS + 2·Σ j·S_j + ΣH.
///   words  x & 0x0000FFFF0000FFFF puts big-endian words w3, w1 in
///          32-bit lanes 0, 1 and (x >> 16) & … puts w2, w0 there. The
///          Internet sum adds all four lanes; the Koopman folds of
///          slicing.cpp (w0·3375 + w1·225 + w2·15 + w3 mod 65521;
///          5·hi32 + lo32 mod 2^32 − 5) are linear in the words, so
///          they apply to the lane sums (A) and to the sums of running
///          sums (B) directly.
///
/// A cell has six blocks, so no lane carries into the next (a 16-bit
/// lane reaches at most 21·510, a 32-bit lane 21·65535), and every
/// value is the exact integer its dispatched entry reduces: bitwise
/// the same partials.
template <std::size_t K>
void fused_cell_partials(const std::uint8_t* p, CellPartial* out) noexcept {
  constexpr std::uint64_t kByteLanes = 0x00FF00FF00FF00FFull;
  constexpr std::uint64_t kWordLanes = 0x0000FFFF0000FFFFull;
  constexpr std::size_t kBlock = alg::kKoopmanBlockBytes;
  std::uint64_t fnv[K];
  std::uint32_t crc[K];
  std::uint64_t s[K] = {}, t[K] = {}, h[K] = {};
  std::uint64_t we[K] = {}, wo[K] = {}, te[K] = {}, to[K] = {};
  for (std::size_t k = 0; k < K; ++k) {
    fnv[k] = util::kFnvOffsetBasis;
    crc[k] = 0xFFFFFFFFu;
  }
  for (std::size_t off = 0; off < atm::kCellPayload; off += kBlock) {
    // Unrolled, so the K hash chains advance in registers.
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kBlock; ++j)
#pragma GCC unroll 4
      for (std::size_t k = 0; k < K; ++k)
        fnv[k] =
            (fnv[k] ^ p[k * atm::kCellPayload + off + j]) * util::kFnvPrime;
    for (std::size_t k = 0; k < K; ++k) {
      const std::uint8_t* b = p + k * atm::kCellPayload + off;
      crc[k] = alg::kern::impl::crc32_step8(crc[k], b);
      const std::uint64_t x = util::load_be64(b);
      const std::uint64_t even = (x >> 8) & kByteLanes;
      s[k] += (x & kByteLanes) + even;
      t[k] += s[k];
      h[k] += even;
      we[k] += x & kWordLanes;
      wo[k] += (x >> 16) & kWordLanes;
      te[k] += we[k];
      to[k] += wo[k];
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    const std::uint64_t fa = sum_lanes16(s[k]);
    const std::uint64_t fb = 8 * sum_lanes16(t[k]) - 7 * fa +
                             2 * weigh_lanes16(s[k]) + sum_lanes16(h[k]);
    const std::uint64_t w3 = we[k] & 0xffffffffu, w1 = we[k] >> 32;
    const std::uint64_t w2 = wo[k] & 0xffffffffu, w0 = wo[k] >> 32;
    std::uint64_t inet = w0 + w1 + w2 + w3;
    while (inet >> 16) inet = (inet & 0xffffu) + (inet >> 16);
    const std::uint64_t kda = w0 * 3375 + w1 * 225 + w2 * 15 + w3;
    const std::uint64_t kdb = (to[k] >> 32) * 3375 + (te[k] >> 32) * 225 +
                              (to[k] & 0xffffffffu) * 15 +
                              (te[k] & 0xffffffffu);
    const std::uint64_t ks = 5 * ((w0 << 16) + w1) + (w2 << 16) + w3;

    CellPartial& cp = out[k];
    cp.inet = static_cast<std::uint16_t>(inet);
    cp.f255 = {static_cast<std::uint32_t>(fa % 255),
               static_cast<std::uint32_t>(fb % 255)};
    cp.f256 = {static_cast<std::uint32_t>(fa % 256),
               static_cast<std::uint32_t>(fb % 256)};
    cp.crc = crc[k] ^ 0xFFFFFFFFu;
    cp.hash = util::hash64_finish(fnv[k], atm::kCellPayload);
    cp.kd = {static_cast<std::uint32_t>(kda % alg::kKoopmanDualMod),
             static_cast<std::uint32_t>(kdb % alg::kKoopmanDualMod)};
    cp.ks = ks % alg::kKoopmanSingleMod;
  }
}

/// The seven partials of one cell from the dispatched entries — under
/// the `scalar` selection, the reference implementations.
CellPartial dispatched_cell_partial(util::ByteView cell) noexcept {
  CellPartial cp;
  cp.inet = alg::kern::internet_sum(cell);
  cp.f255 = alg::kern::fletcher_block(cell, alg::FletcherMod::kOnes255);
  cp.f256 = alg::kern::fletcher_block(cell, alg::FletcherMod::kTwos256);
  cp.crc = alg::kern::crc32(cell);
  cp.hash = util::hash64(cell);
  cp.kd = alg::kern::koopman_dual(cell);
  cp.ks = alg::kern::koopman_single(cell);
  return cp;
}

}  // namespace

void cell_partials(util::ByteView cells, std::span<CellPartial> out) noexcept {
  constexpr std::size_t kCell = atm::kCellPayload;
  assert(cells.size() >= out.size() * kCell);
  if (alg::kern::selection_name() == "scalar") {
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = dispatched_cell_partial(cells.subspan(i * kCell, kCell));
    return;
  }
  constexpr std::size_t kLanes = 4;
  std::size_t i = 0;
  for (; i + kLanes <= out.size(); i += kLanes)
    fused_cell_partials<kLanes>(cells.data() + i * kCell, &out[i]);
  for (; i < out.size(); ++i)
    fused_cell_partials<1>(cells.data() + i * kCell, &out[i]);
  // Count what the seven dispatches per cell would have counted.
  const std::uint64_t n = out.size();
  using alg::kern::Alg;
  alg::kern::count_calls(Alg::kInternet, n, n * kCell);
  alg::kern::count_calls(Alg::kFletcher, 2 * n, 2 * n * kCell);
  alg::kern::count_calls(Alg::kCrc32, n, n * kCell);
  alg::kern::count_calls(Alg::kKoopmanDual, n, n * kCell);
  alg::kern::count_calls(Alg::kKoopmanSingle, n, n * kCell);
}

SimPacket make_sim_packet(const net::PacketConfig& cfg,
                          const net::Packet& pkt) {
  SimPacket sp;
  sp.total_len = pkt.total_length();
  sp.pdu = atm::CpcsPdu::frame(pkt.ip_bytes());

  const std::size_t n = sp.pdu.num_cells();
  sp.cells.resize(n);
  cell_partials(sp.pdu.bytes(), sp.cells);

  sp.hdr_require_ipck = cfg.fill_ip_header && !cfg.legacy95_headers;
  sp.hdr_legacy95 = cfg.legacy95_headers;
  sp.hdr_ok_self.resize(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sp.hdr_ok_self[i] =
        net::check_headers(sp.pdu.cell(i), sp.total_len, sp.hdr_require_ipck,
                           sp.hdr_legacy95) == net::HeaderCheck::kOk
            ? 1
            : 0;
  }

  sp.stored_crc = sp.pdu.trailer().crc;
  const util::ByteView eom_head = sp.pdu.cell(n - 1).first(44);
  sp.crc_head44 = alg::kern::crc32(eom_head);
  // Koopman sums over the AAL5 CRC's coverage: whole PDU minus the
  // trailing 4 CRC bytes, i.e. the full cells then EOM bytes [0, 44).
  // Cell boundaries are block boundaries, so the cell partials combine
  // exactly; the result counts as the one call over the coverage it
  // stands for.
  sp.eom_kd = alg::kern::koopman_dual(eom_head);
  sp.eom_ks = alg::kern::koopman_single(eom_head);
  alg::KoopmanDualPair kd{};
  std::uint64_t ks = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    kd = alg::koopman_dual_combine(kd, sp.cells[i].kd, kKoopmanBlocksPerCell);
    ks = alg::koopman_single_combine(ks, sp.cells[i].ks);
  }
  sp.kd_pdu = alg::koopman_dual_combine(
      kd, sp.eom_kd, alg::koopman_block_count(eom_head.size()));
  sp.ks_pdu = alg::koopman_single_combine(ks, sp.eom_ks);
  const std::uint64_t coverage = sp.pdu.bytes().size() - 4;
  alg::kern::count_calls(alg::kern::Alg::kKoopmanDual, 1, coverage);
  alg::kern::count_calls(alg::kern::Alg::kKoopmanSingle, 1, coverage);

  std::size_t eom_cov = sp.total_len > (n - 1) * atm::kCellPayload
                            ? sp.total_len - (n - 1) * atm::kCellPayload
                            : 0;
  // Identical-data comparisons ignore the transport check field; in
  // trailer mode it is the last 2 datagram bytes (inside the EOM
  // coverage whenever the fast path applies).
  if (cfg.placement == net::ChecksumPlacement::kTrailer && eom_cov >= 2)
    eom_cov -= 2;
  sp.eom_cov_hash = util::hash64(sp.pdu.cell(n - 1).first(eom_cov));

  // --- Transport partials (case A pieces). ---
  const util::ByteView ip = pkt.ip_bytes();
  const std::size_t len = sp.total_len;
  const bool trailer = cfg.placement == net::ChecksumPlacement::kTrailer;

  // Fast-path regularity: all non-EOM cells fully inside the packet;
  // trailer check bytes (if any) wholly inside the EOM coverage.
  const std::size_t eom_start = (n - 1) * atm::kCellPayload;
  sp.fast_path_ok = len >= eom_start + (trailer ? 2 : 0);

  TransportPartials& tp = sp.tp;
  tp.eom_len =
      static_cast<std::uint32_t>(len > eom_start ? len - eom_start : 0);

  // Head prefix: pseudo-header ++ IP bytes [20, min(48, len)).
  {
    std::array<std::uint8_t, net::PseudoHeader::kLen + atm::kCellPayload -
                                 net::kIpv4HeaderLen>
        head{};
    net::PseudoHeader ph;
    const auto hdr = net::Ipv4Header::parse(ip);
    ph.src = hdr->src;
    ph.dst = hdr->dst;
    ph.protocol = hdr->protocol;
    ph.tcp_length = cfg.legacy95_headers
                        ? static_cast<std::uint16_t>(len)
                        : static_cast<std::uint16_t>(len - net::kIpv4HeaderLen);
    ph.write(head.data());
    const std::size_t head_end = std::min<std::size_t>(atm::kCellPayload, len);
    std::copy(ip.begin() + net::kIpv4HeaderLen, ip.begin() + head_end,
              head.begin() + net::PseudoHeader::kLen);
    const util::ByteView head_view(
        head.data(), net::PseudoHeader::kLen + head_end - net::kIpv4HeaderLen);

    // Fletcher sums over the prefix as transmitted.
    tp.head_f255 =
        alg::kern::fletcher_block(head_view, alg::FletcherMod::kOnes255);
    tp.head_f256 =
        alg::kern::fletcher_block(head_view, alg::FletcherMod::kTwos256);

    // Internet content sum: zero the check field if it lives here.
    if (!trailer) {
      const std::size_t field = net::PseudoHeader::kLen + 16;
      tp.stored = util::load_be16(head.data() + field);
      head[field] = 0;
      head[field + 1] = 0;
    }
    tp.head_sum = alg::kern::internet_sum(head_view);
  }

  // EOM coverage.
  if (tp.eom_len > 0) {
    std::array<std::uint8_t, atm::kCellPayload> eom{};
    std::copy(ip.begin() + eom_start, ip.begin() + len, eom.begin());
    const util::ByteView eom_view(eom.data(), tp.eom_len);
    tp.eom_f255 =
        alg::kern::fletcher_block(eom_view, alg::FletcherMod::kOnes255);
    tp.eom_f256 =
        alg::kern::fletcher_block(eom_view, alg::FletcherMod::kTwos256);
    if (trailer && sp.fast_path_ok) {
      // The 2 check bytes are the last 2 coverage bytes; exclude them
      // from the Internet content sum and remember the stored value.
      tp.stored = util::load_be16(eom.data() + tp.eom_len - 2);
      eom[tp.eom_len - 2] = 0;
      eom[tp.eom_len - 1] = 0;
    }
    tp.eom_sum = alg::kern::internet_sum(eom_view);
  }

  return sp;
}

std::vector<SimPacket> packetize_file(const net::FlowConfig& cfg,
                                      util::ByteView file) {
  std::vector<SimPacket> out;
  out.reserve(file.size() / std::max<std::size_t>(cfg.segment_size, 1) + 1);
  net::for_each_segment(cfg, file, [&](const net::Packet& p) {
    out.push_back(make_sim_packet(cfg.packet, p));
  });
  return out;
}

}  // namespace cksum::core
