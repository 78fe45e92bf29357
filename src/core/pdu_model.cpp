#include "core/pdu_model.hpp"

#include <algorithm>
#include <cassert>

#include "checksum/kernels/impl.hpp"
#include "checksum/kernels/kernel.hpp"
#include "net/validate.hpp"
#include "util/hash.hpp"

namespace cksum::core {

namespace {

constexpr std::size_t kCell = atm::kCellPayload;
constexpr std::size_t kBlock = alg::kKoopmanBlockBytes;
constexpr std::uint64_t kByteLanes = 0x00FF00FF00FF00FFull;
constexpr std::uint64_t kWordLanes = 0x0000FFFF0000FFFFull;

/// Five blocks: the longest datagram tail an EOM cell holds (the
/// trailer takes its last 8 bytes), and the longest case-A head prefix
/// (pseudo-header ++ IP bytes [20, 48)).
constexpr std::size_t kTapBytes = kCell - atm::kAal5TrailerLen;
static_assert(net::PseudoHeader::kLen + kCell - net::kIpv4HeaderLen ==
              kTapBytes);

std::uint64_t sum_lanes16(std::uint64_t v) noexcept {
  return (v & 0xffffu) + ((v >> 16) & 0xffffu) + ((v >> 32) & 0xffffu) +
         (v >> 48);
}

/// Σ j·lane_j over the four 16-bit lanes of v.
std::uint64_t weigh_lanes16(std::uint64_t v) noexcept {
  return ((v >> 16) & 0xffffu) + 2 * ((v >> 32) & 0xffffu) + 3 * (v >> 48);
}

/// End-around-carry fold of a 16-bit word sum: the Internet sum's
/// representative (0 only for an all-zero input).
std::uint16_t fold16(std::uint64_t v) noexcept {
  while (v >> 16) v = (v & 0xffffu) + (v >> 16);
  return static_cast<std::uint16_t>(v);
}

/// The five modular sums of a run of 8-byte blocks x, read big-endian,
/// as lane sums reduced only at the end:
///
///   bytes  x & 0x00FF00FF00FF00FF puts bytes 7,5,3,1 of the block in
///          16-bit lanes 0..3, (x >> 8) & … bytes 6,4,2,0. With S the
///          running sum of both over the blocks, T the sum of S after
///          each block and H the sum of the second, the Fletcher sums
///          of N blocks (byte i weighted 8N − i) are
///            A = ΣS,  B = 8·ΣT − 7·ΣS + 2·Σ j·S_j + ΣH.
///   words  x & 0x0000FFFF0000FFFF puts big-endian words w3, w1 in
///          32-bit lanes 0, 1 and (x >> 16) & … puts w2, w0 there. The
///          Internet sum adds all four lanes; the Koopman folds of
///          slicing.cpp (w0·3375 + w1·225 + w2·15 + w3 mod 65521;
///          5·hi32 + lo32 mod 2^32 − 5) are linear in the words, so
///          they apply to the lane sums (A) and to the sums of running
///          sums (B) directly.
///
/// Up to six blocks no lane carries into the next (a 16-bit lane
/// reaches at most 21·510, a 32-bit lane 21·65535), and every value is
/// the exact integer the dispatched entry reduces.
struct LaneSums {
  std::uint64_t s = 0, t = 0, h = 0;
  std::uint64_t we = 0, wo = 0, te = 0, to = 0;

  void add(std::uint64_t x) noexcept {
    const std::uint64_t even = (x >> 8) & kByteLanes;
    s += (x & kByteLanes) + even;
    t += s;
    h += even;
    we += x & kWordLanes;
    wo += (x >> 16) & kWordLanes;
    te += we;
    to += wo;
  }
  /// Fletcher pair, mod m, of the first `len` bytes of the `blocks`
  /// blocks added, the rest of them zero: B loses (8·blocks − len)·A.
  alg::FletcherPair fletcher(std::size_t blocks, std::size_t len,
                             std::uint32_t m) const noexcept {
    const std::uint64_t a = sum_lanes16(s);
    const std::uint64_t b = 8 * sum_lanes16(t) - 7 * a +
                            2 * weigh_lanes16(s) + sum_lanes16(h) -
                            (kBlock * blocks - len) * a;
    return {static_cast<std::uint32_t>(a % m),
            static_cast<std::uint32_t>(b % m)};
  }
  /// Sum of the big-endian 16-bit words, before the fold.
  std::uint64_t words() const noexcept {
    return (we & 0xffffffffu) + (we >> 32) + (wo & 0xffffffffu) + (wo >> 32);
  }
  alg::KoopmanDualPair koopman_dual() const noexcept {
    const std::uint64_t a =
        (wo >> 32) * 3375 + (we >> 32) * 225 + (wo & 0xffffffffu) * 15 +
        (we & 0xffffffffu);
    const std::uint64_t b =
        (to >> 32) * 3375 + (te >> 32) * 225 + (to & 0xffffffffu) * 15 +
        (te & 0xffffffffu);
    return {static_cast<std::uint32_t>(a % alg::kKoopmanDualMod),
            static_cast<std::uint32_t>(b % alg::kKoopmanDualMod)};
  }
  std::uint64_t koopman_single() const noexcept {
    const std::uint64_t w3 = we & 0xffffffffu, w1 = we >> 32;
    const std::uint64_t w2 = wo & 0xffffffffu, w0 = wo >> 32;
    return (5 * ((w0 << 16) + w1) + (w2 << 16) + w3) %
           alg::kKoopmanSingleMod;
  }
};

/// A cell's pass state where an EOM cell's datagram tail can end
/// (byte 40): its lane sums and CRC register after five blocks. A
/// packet's EOM-cell sums are read off these instead of a second pass
/// over the cell.
struct CellTap {
  LaneSums sums;
  std::uint32_t crc = 0;
};

/// The seven partials of K 48-byte cells from one pass over their
/// 8-byte blocks, and each cell's tap.
///
/// The content hash's FNV-1a chain is serial (a multiply per byte), so
/// K chains advance side by side, and the other six sums, which depend
/// neither on it nor on each other, run in its shadow: the CRC is
/// slicing-by-8, the rest LaneSums reduced once at the end of the
/// cell. Bitwise the same partials as the dispatched entries. The lane
/// sums live in plain arrays inside the loop: as LaneSums objects GCC
/// keeps them in memory, ~10% slower.
template <std::size_t K>
void fused_cell_partials(const std::uint8_t* const* cells,
                         CellPartial* const* out, CellTap* tap) noexcept {
  const std::uint8_t* cell[K];
  std::uint64_t fnv[K];
  std::uint32_t crc[K];
  std::uint64_t s[K] = {}, t[K] = {}, h[K] = {};
  std::uint64_t we[K] = {}, wo[K] = {}, te[K] = {}, to[K] = {};
  for (std::size_t k = 0; k < K; ++k) {
    cell[k] = cells[k];
    fnv[k] = util::kFnvOffsetBasis;
    crc[k] = 0xFFFFFFFFu;
  }
  for (std::size_t off = 0; off < kCell; off += kBlock) {
    if (off == kTapBytes)
      for (std::size_t k = 0; k < K; ++k)
        tap[k] = {{s[k], t[k], h[k], we[k], wo[k], te[k], to[k]}, crc[k]};
    // Unrolled, so the K hash chains advance in registers.
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kBlock; ++j)
#pragma GCC unroll 4
      for (std::size_t k = 0; k < K; ++k)
        fnv[k] = (fnv[k] ^ cell[k][off + j]) * util::kFnvPrime;
    for (std::size_t k = 0; k < K; ++k) {
      crc[k] = alg::kern::impl::crc32_step8(crc[k], cell[k] + off);
      // LaneSums::add, inline.
      const std::uint64_t x = util::load_be64(cell[k] + off);
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
    const LaneSums sums{s[k], t[k], h[k], we[k], wo[k], te[k], to[k]};
    CellPartial& cp = *out[k];
    cp.inet = fold16(sums.words());
    cp.f255 = sums.fletcher(kCell / kBlock, kCell, 255);
    cp.f256 = sums.fletcher(kCell / kBlock, kCell, 256);
    cp.crc = crc[k] ^ 0xFFFFFFFFu;
    cp.hash = util::hash64_finish(fnv[k], kCell);
    cp.kd = sums.koopman_dual();
    cp.ks = sums.koopman_single();
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

bool scalar_selected() noexcept {
  return alg::kern::selection_name() == "scalar";
}

/// Runs fused_cell_partials over a stream of cells four at a time,
/// whichever packets they belong to. add(cell, out, eom_of) queues a
/// cell; for a packet's EOM cell, eom_of is the packet, handed to
/// `done(packet, tap)` once the cell's group is through (every earlier
/// cell of the packet is done by then).
template <typename Done>
class CellBatch {
 public:
  explicit CellBatch(Done done) : done_(std::move(done)) {}

  void add(const std::uint8_t* cell, CellPartial* out, SimPacket* eom_of) {
    cell_[n_] = cell;
    out_[n_] = out;
    eom_of_[n_] = eom_of;
    if (++n_ == kLanes) {
      run<kLanes>(0);
      n_ = 0;
    }
  }
  /// The last 0..3 cells, one at a time.
  void flush() {
    for (std::size_t k = 0; k < n_; ++k) run<1>(k);
    n_ = 0;
  }
  std::uint64_t cells() const noexcept { return cells_; }

 private:
  static constexpr std::size_t kLanes = 4;

  template <std::size_t L>
  void run(std::size_t at) {
    CellTap tap[L];
    fused_cell_partials<L>(&cell_[at], &out_[at], tap);
    for (std::size_t k = 0; k < L; ++k)
      if (eom_of_[at + k] != nullptr) done_(*eom_of_[at + k], tap[k]);
    cells_ += L;
  }

  Done done_;
  const std::uint8_t* cell_[kLanes] = {};
  CellPartial* out_[kLanes] = {};
  SimPacket* eom_of_[kLanes] = {};
  std::size_t n_ = 0;
  std::uint64_t cells_ = 0;
};

/// Frame the datagram in AAL5 and fill in what needs no sums: lengths,
/// header flags and verdicts, the stored CRC. packet_sums does the rest.
SimPacket frame_packet(const net::PacketConfig& cfg, const net::Packet& pkt) {
  SimPacket sp;
  sp.total_len = pkt.total_length();
  sp.pdu = atm::CpcsPdu::frame(pkt.ip_bytes());

  const std::size_t n = sp.pdu.num_cells();
  sp.cells.resize(n);
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

  // Fast-path regularity: all non-EOM cells fully inside the packet;
  // trailer check bytes (if any) wholly inside the EOM coverage.
  const std::size_t len = sp.total_len;
  const std::size_t eom_start = (n - 1) * kCell;
  const bool trailer = cfg.placement == net::ChecksumPlacement::kTrailer;
  sp.fast_path_ok = len >= eom_start + (trailer ? 2 : 0);
  sp.tp.eom_len =
      static_cast<std::uint32_t>(len > eom_start ? len - eom_start : 0);
  return sp;
}

/// The case-A head prefix: pseudo-header ++ IP bytes [20, min(48, len)),
/// zero-padded to kTapBytes. Returns its length.
std::size_t head_prefix(const net::PacketConfig& cfg, const SimPacket& sp,
                        std::uint8_t* head) {
  const util::ByteView ip = sp.pdu.payload();
  const std::size_t len = sp.total_len;
  net::PseudoHeader ph;
  const auto hdr = net::Ipv4Header::parse(ip);
  ph.src = hdr->src;
  ph.dst = hdr->dst;
  ph.protocol = hdr->protocol;
  ph.tcp_length = cfg.legacy95_headers
                      ? static_cast<std::uint16_t>(len)
                      : static_cast<std::uint16_t>(len - net::kIpv4HeaderLen);
  ph.write(head);
  const std::size_t head_end = std::min<std::size_t>(kCell, len);
  std::fill(std::copy(ip.begin() + net::kIpv4HeaderLen, ip.begin() + head_end,
                      head + net::PseudoHeader::kLen),
            head + kTapBytes, 0);
  return net::PseudoHeader::kLen + head_end - net::kIpv4HeaderLen;
}

/// Header placement: the transport check field's offset in the head
/// prefix (TCP header byte 16).
constexpr std::size_t kHeadCheckField = net::PseudoHeader::kLen + 16;

/// Trailer placement: the 2 check bytes are the last 2 datagram bytes,
/// inside the EOM coverage whenever the fast path applies.
bool trailer_in_eom(const net::PacketConfig& cfg, const SimPacket& sp) {
  return cfg.placement == net::ChecksumPlacement::kTrailer && sp.fast_path_ok;
}

/// What both paths compute alike once the cell partials and the EOM
/// head sums are in: the Koopman sums over the AAL5 CRC's coverage
/// (whole PDU minus the trailing 4 CRC bytes, i.e. the full cells then
/// EOM bytes [0, 44); cell boundaries are block boundaries, so the cell
/// partials combine exactly), and the hash of the EOM cell's datagram
/// bytes.
void whole_packet_sums(const net::PacketConfig& cfg, SimPacket& sp) {
  const std::size_t n = sp.cells.size();
  alg::KoopmanDualPair kd{};
  std::uint64_t ks = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    kd = alg::koopman_dual_combine(kd, sp.cells[i].kd, kKoopmanBlocksPerCell);
    ks = alg::koopman_single_combine(ks, sp.cells[i].ks);
  }
  sp.kd_pdu = alg::koopman_dual_combine(
      kd, sp.eom_kd, alg::koopman_block_count(kCell - 4));
  sp.ks_pdu = alg::koopman_single_combine(ks, sp.eom_ks);

  // Identical-data comparisons ignore the transport check field; in
  // trailer mode it is the last 2 datagram bytes.
  std::size_t eom_cov = sp.tp.eom_len;
  if (cfg.placement == net::ChecksumPlacement::kTrailer && eom_cov >= 2)
    eom_cov -= 2;
  sp.eom_cov_hash = util::hash64(sp.pdu.cell(n - 1).first(eom_cov));
}

/// The per-packet sums from the dispatched entries (the `scalar`
/// selection), over the bytes they cover.
void dispatched_packet_sums(const net::PacketConfig& cfg, SimPacket& sp) {
  const std::size_t n = sp.cells.size();
  const util::ByteView eom_cell = sp.pdu.cell(n - 1);
  const util::ByteView eom_head = eom_cell.first(kCell - 4);
  sp.crc_head44 = alg::kern::crc32(eom_head);
  sp.eom_kd = alg::kern::koopman_dual(eom_head);
  sp.eom_ks = alg::kern::koopman_single(eom_head);

  TransportPartials& tp = sp.tp;
  std::uint8_t head[kTapBytes];
  const util::ByteView head_view(head, head_prefix(cfg, sp, head));
  // Fletcher sums over the prefix as transmitted.
  tp.head_f255 =
      alg::kern::fletcher_block(head_view, alg::FletcherMod::kOnes255);
  tp.head_f256 =
      alg::kern::fletcher_block(head_view, alg::FletcherMod::kTwos256);
  // Internet content sum: zero the check field if it lives here.
  if (cfg.placement == net::ChecksumPlacement::kHeader) {
    tp.stored = util::load_be16(head + kHeadCheckField);
    head[kHeadCheckField] = 0;
    head[kHeadCheckField + 1] = 0;
  }
  tp.head_sum = alg::kern::internet_sum(head_view);

  if (tp.eom_len > 0) {
    std::uint8_t eom[kTapBytes];
    std::copy_n(eom_cell.begin(), tp.eom_len, eom);
    const util::ByteView eom_view(eom, tp.eom_len);
    tp.eom_f255 =
        alg::kern::fletcher_block(eom_view, alg::FletcherMod::kOnes255);
    tp.eom_f256 =
        alg::kern::fletcher_block(eom_view, alg::FletcherMod::kTwos256);
    if (trailer_in_eom(cfg, sp)) {
      // Exclude the 2 check bytes from the Internet content sum and
      // remember the stored value.
      tp.stored = util::load_be16(eom + tp.eom_len - 2);
      eom[tp.eom_len - 2] = 0;
      eom[tp.eom_len - 1] = 0;
    }
    tp.eom_sum = alg::kern::internet_sum(eom_view);
  }
}

/// What the fused path's per-packet sums would have dispatched.
struct PacketCalls {
  std::uint64_t fletcher = 0, fletcher_bytes = 0;
  std::uint64_t internet = 0, internet_bytes = 0;
  std::uint64_t packets = 0, coverage_bytes = 0;
};

/// The per-packet sums from the EOM cell's tap and one lane pass over
/// the head prefix: the same values as dispatched_packet_sums.
void tapped_packet_sums(const net::PacketConfig& cfg, SimPacket& sp,
                        const CellTap& tap, PacketCalls& calls) {
  const std::size_t n = sp.cells.size();
  const std::uint8_t* eom = sp.pdu.bytes().data() + (n - 1) * kCell;

  // Bytes [0, 44): five blocks, then the sixth block's first 4 bytes
  // (the Koopman sums zero-pad them to a block).
  std::uint32_t c = tap.crc;
  for (std::size_t i = kTapBytes; i < kCell - 4; ++i)
    c = alg::kern::impl::kCrc32Tables.t[0][(c ^ eom[i]) & 0xffu] ^ (c >> 8);
  sp.crc_head44 = c ^ 0xFFFFFFFFu;
  LaneSums head44 = tap.sums;
  head44.add(util::load_be64(eom + kTapBytes) & 0xFFFFFFFF00000000ull);
  sp.eom_kd = head44.koopman_dual();
  sp.eom_ks = head44.koopman_single();


  TransportPartials& tp = sp.tp;
  std::uint8_t head[kTapBytes];
  const std::size_t head_len = head_prefix(cfg, sp, head);
  LaneSums hs;
  for (std::size_t off = 0; off < kTapBytes; off += kBlock)
    hs.add(util::load_be64(head + off));
  constexpr std::size_t kTapBlocks = kTapBytes / kBlock;
  tp.head_f255 = hs.fletcher(kTapBlocks, head_len, 255);
  tp.head_f256 = hs.fletcher(kTapBlocks, head_len, 256);
  std::uint64_t words = hs.words();
  if (cfg.placement == net::ChecksumPlacement::kHeader) {
    tp.stored = util::load_be16(head + kHeadCheckField);
    words -= tp.stored;
  }
  tp.head_sum = fold16(words);
  calls.fletcher += 2;
  calls.fletcher_bytes += 2 * head_len;
  calls.internet += 1;
  calls.internet_bytes += head_len;

  // The EOM coverage is the cell's first eom_len bytes, and the AAL5
  // pad zeroes the rest of its first five blocks.
  if (tp.eom_len > 0) {
    tp.eom_f255 = tap.sums.fletcher(kTapBlocks, tp.eom_len, 255);
    tp.eom_f256 = tap.sums.fletcher(kTapBlocks, tp.eom_len, 256);
    words = tap.sums.words();
    if (trailer_in_eom(cfg, sp)) {
      tp.stored = util::load_be16(eom + tp.eom_len - 2);
      // Each check byte leaves its word: high byte at even offsets.
      for (std::size_t i = tp.eom_len - 2; i < tp.eom_len; ++i)
        words -= std::uint64_t{eom[i]} << (i % 2 == 0 ? 8 : 0);
    }
    tp.eom_sum = fold16(words);
    calls.fletcher += 2;
    calls.fletcher_bytes += 2 * tp.eom_len;
    calls.internet += 1;
    calls.internet_bytes += tp.eom_len;
  }
  calls.packets += 1;
  calls.coverage_bytes += sp.pdu.bytes().size() - 4;
}

/// Counts what the dispatches would have counted: seven per cell (two
/// for fletcher), and per packet the head and EOM sums, crc32 and the
/// two Koopman sums of EOM bytes [0, 44), and the whole-PDU Koopman
/// sums as one call each over the coverage they stand for.
void count_fused(std::uint64_t cells, const PacketCalls& calls) {
  using alg::kern::Alg;
  using alg::kern::count_calls;
  const std::uint64_t p = calls.packets;
  const std::uint64_t head44 = p * (kCell - 4);
  count_calls(Alg::kInternet, cells + calls.internet,
              cells * kCell + calls.internet_bytes);
  count_calls(Alg::kFletcher, 2 * cells + calls.fletcher,
              2 * cells * kCell + calls.fletcher_bytes);
  count_calls(Alg::kCrc32, cells + p, cells * kCell + head44);
  count_calls(Alg::kKoopmanDual, cells + 2 * p,
              cells * kCell + head44 + calls.coverage_bytes);
  count_calls(Alg::kKoopmanSingle, cells + 2 * p,
              cells * kCell + head44 + calls.coverage_bytes);
}

/// Fills in every partial of framed packets. Under the `scalar`
/// selection every sum comes from its dispatched reference entry;
/// otherwise one fused pass runs over all the packets' cells, four at
/// a time across packet boundaries, and each packet's own sums are
/// read off its EOM cell's tap.
void packet_sums(const net::PacketConfig& cfg, std::span<SimPacket> pkts) {
  if (scalar_selected()) {
    for (SimPacket& sp : pkts) {
      for (std::size_t i = 0; i < sp.cells.size(); ++i)
        sp.cells[i] = dispatched_cell_partial(sp.pdu.cell(i));
      dispatched_packet_sums(cfg, sp);
      whole_packet_sums(cfg, sp);
      const std::uint64_t coverage = sp.pdu.bytes().size() - 4;
      alg::kern::count_calls(alg::kern::Alg::kKoopmanDual, 1, coverage);
      alg::kern::count_calls(alg::kern::Alg::kKoopmanSingle, 1, coverage);
    }
    return;
  }
  PacketCalls calls;
  const auto eom_done = [&](SimPacket& sp, const CellTap& tap) {
    tapped_packet_sums(cfg, sp, tap, calls);
    whole_packet_sums(cfg, sp);
  };
  CellBatch<decltype(eom_done)> batch(eom_done);
  for (SimPacket& sp : pkts) {
    const std::uint8_t* cell = sp.pdu.bytes().data();
    const std::size_t n = sp.cells.size();
    for (std::size_t i = 0; i < n; ++i)
      batch.add(cell + i * kCell, &sp.cells[i], i + 1 == n ? &sp : nullptr);
  }
  batch.flush();
  count_fused(batch.cells(), calls);
}

}  // namespace

void cell_partials(util::ByteView cells, std::span<CellPartial> out) noexcept {
  assert(cells.size() >= out.size() * kCell);
  if (scalar_selected()) {
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = dispatched_cell_partial(cells.subspan(i * kCell, kCell));
    return;
  }
  const auto no_packet = [](SimPacket&, const CellTap&) {};
  CellBatch<decltype(no_packet)> batch(no_packet);
  for (std::size_t i = 0; i < out.size(); ++i)
    batch.add(cells.data() + i * kCell, &out[i], nullptr);
  batch.flush();
  count_fused(batch.cells(), {});
}

SimPacket make_sim_packet(const net::PacketConfig& cfg,
                          const net::Packet& pkt) {
  SimPacket sp = frame_packet(cfg, pkt);
  packet_sums(cfg, std::span(&sp, 1));
  return sp;
}

std::vector<SimPacket> packetize_file(const net::FlowConfig& cfg,
                                      util::ByteView file) {
  std::vector<SimPacket> out;
  out.reserve(file.size() / std::max<std::size_t>(cfg.segment_size, 1) + 1);
  net::for_each_segment(cfg, file, [&](const net::Packet& p) {
    out.push_back(frame_packet(cfg.packet, p));
  });
  packet_sums(cfg.packet, out);
  return out;
}

}  // namespace cksum::core
