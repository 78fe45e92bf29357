#include "core/splice_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "atm/splice.hpp"
#include "checksum/kernels/kernel.hpp"
#include "compress/lzw.hpp"
#include "core/dircorpus.hpp"
#include "fsgen/corpus_store.hpp"
#include "net/validate.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace cksum::core {

namespace {

// ---------------------------------------------------------------------------
// Telemetry. Counters are never touched per splice: evaluate_pair
// accumulates into its SpliceStats as before and a flush object adds
// the per-pair deltas to the registry on the way out, so the DFS inner
// loop costs at most one plain increment (the node count) and the
// registry sees a handful of relaxed adds per pair. All splice.*
// counters are additive and thread-count invariant (Tag
// kDeterministic); sched.* depends on worker interleaving.
// ---------------------------------------------------------------------------

struct SpliceMetrics {
  obs::Counter files, packets, pairs, splices, fast, slow, caught_by_header,
      identical, remaining, missed_crc, missed_transport, missed_koopman_dual,
      missed_koopman_single, dfs_nodes;
  obs::Counter sched_files, sched_chunks, sched_steals;
  obs::Gauge sched_open_files;
  obs::Histogram packetize_ns, chunk_ns;
};

const SpliceMetrics& smx() {
  static const SpliceMetrics m = [] {
    obs::Registry& r = obs::Registry::global();
    SpliceMetrics v;
    v.files = r.counter("splice.files");
    v.packets = r.counter("splice.packets");
    v.pairs = r.counter("splice.pairs");
    v.splices = r.counter("splice.total");
    v.fast = r.counter("splice.fast_path");
    v.slow = r.counter("splice.slow_path");
    v.caught_by_header = r.counter("splice.caught_by_header");
    v.identical = r.counter("splice.identical");
    v.remaining = r.counter("splice.remaining");
    v.missed_crc = r.counter("splice.missed_crc");
    v.missed_transport = r.counter("splice.missed_transport");
    v.missed_koopman_dual = r.counter("splice.missed_koopman_dual");
    v.missed_koopman_single = r.counter("splice.missed_koopman_single");
    v.dfs_nodes = r.counter("splice.dfs_nodes");
    v.sched_files = r.counter("sched.files_claimed", obs::Tag::kScheduling);
    v.sched_chunks = r.counter("sched.chunks_claimed", obs::Tag::kScheduling);
    v.sched_steals = r.counter("sched.chunks_stolen", obs::Tag::kScheduling);
    v.sched_open_files = r.gauge("sched.open_files", obs::Tag::kScheduling);
    v.packetize_ns = r.histogram("sched.packetize_ns", obs::Tag::kTiming);
    v.chunk_ns = r.histogram("sched.chunk_ns", obs::Tag::kTiming);
    return v;
  }();
  return m;
}

#ifndef OBS_DISABLE

/// Flushes one evaluate_pair call's SpliceStats deltas (the stats
/// object is shared across many pairs) into the registry on scope
/// exit, covering every early return.
class SpliceObsFlush {
 public:
  explicit SpliceObsFlush(SpliceStats& st)
      : st_(st),
        pairs_(st.pairs),
        total_(st.total),
        fast_(st.fast_path),
        slow_(st.slow_path),
        caught_(st.caught_by_header),
        identical_(st.identical),
        remaining_(st.remaining),
        missed_crc_(st.missed_crc),
        missed_transport_(st.missed_transport),
        missed_kd_(st.missed_koopman_dual),
        missed_ks_(st.missed_koopman_single) {}
  SpliceObsFlush(const SpliceObsFlush&) = delete;
  SpliceObsFlush& operator=(const SpliceObsFlush&) = delete;
  ~SpliceObsFlush() {
    const SpliceMetrics& m = smx();
    m.pairs.add(st_.pairs - pairs_);
    m.splices.add(st_.total - total_);
    m.fast.add(st_.fast_path - fast_);
    m.slow.add(st_.slow_path - slow_);
    m.caught_by_header.add(st_.caught_by_header - caught_);
    m.identical.add(st_.identical - identical_);
    m.remaining.add(st_.remaining - remaining_);
    m.missed_crc.add(st_.missed_crc - missed_crc_);
    m.missed_transport.add(st_.missed_transport - missed_transport_);
    m.missed_koopman_dual.add(st_.missed_koopman_dual - missed_kd_);
    m.missed_koopman_single.add(st_.missed_koopman_single - missed_ks_);
    m.dfs_nodes.add(dfs_nodes);
  }

  std::uint64_t dfs_nodes = 0;  ///< folds performed by the DFS walk

 private:
  // Only the flushed scalars are captured — copying the whole
  // SpliceStats would drag its by-k arrays through every pair.
  SpliceStats& st_;
  const std::uint64_t pairs_, total_, fast_, slow_, caught_, identical_,
      remaining_, missed_crc_, missed_transport_, missed_kd_, missed_ks_;
};

#else

class SpliceObsFlush {
 public:
  explicit SpliceObsFlush(SpliceStats&) {}
  std::uint64_t dfs_nodes = 0;
};

#endif

/// Zeros-operator advancing a finalised CRC past everything that
/// follows a non-EOM cell at distance `d` cell slots from the last
/// non-EOM position: d full cells plus the EOM cell's 44 CRC-covered
/// bytes. One table per distance, built once per process — a splice
/// CRC is then the XOR of per-cell advanced CRCs (the operator is
/// linear), independent of which other cells the splice keeps.
const alg::CrcCombiner& suffix_comb(std::size_t d) {
  static const std::vector<alg::CrcCombiner> cache = [] {
    std::vector<alg::CrcCombiner> v;
    v.reserve(atm::kMaxSpliceCells);
    for (std::size_t i = 0; i < atm::kMaxSpliceCells; ++i)
      v.emplace_back(44 + i * atm::kCellPayload);
    return v;
  }();
  return cache[d];
}

struct PairContext {
  const net::PacketConfig* cfg = nullptr;
  const SimPacket* p1 = nullptr;
  const SimPacket* p2 = nullptr;
  bool mod255 = false;
  bool header_placement = true;
  /// Per p1 non-EOM cell: would these 48 bytes pass the header checks
  /// as the first cell of a splice of p2's AAL5 length?
  const std::uint8_t* hdr_ok = nullptr;
};

/// hdr_ok for the pair: reuse p1's precomputed self-check when the
/// lengths (and check flavour) match, else compute into `scratch`.
const std::uint8_t* pair_hdr_ok(const net::PacketConfig& cfg,
                                const SimPacket& p1, const SimPacket& p2,
                                std::vector<std::uint8_t>& scratch) {
  const bool require_ipck = cfg.fill_ip_header && !cfg.legacy95_headers;
  const std::size_t n1 = p1.pdu.num_cells();
  if (p1.total_len == p2.total_len && p1.hdr_ok_self.size() == n1 - 1 &&
      p1.hdr_require_ipck == require_ipck &&
      p1.hdr_legacy95 == cfg.legacy95_headers) {
    return p1.hdr_ok_self.data();
  }
  scratch.resize(n1 - 1);
  for (std::size_t i = 0; i + 1 < n1; ++i) {
    scratch[i] = net::check_headers(p1.pdu.cell(i), p2.total_len, require_ipck,
                                    cfg.legacy95_headers) == net::HeaderCheck::kOk
                     ? 1
                     : 0;
  }
  return scratch.data();
}

/// Materialise one splice and classify it through the byte-level
/// oracle — for splices the partial sums cannot express.
void eval_slow(const PairContext& ctx, const atm::SpliceSpec& s,
               SpliceStats& st) {
  ++st.slow_path;
  const SpliceOutcome o =
      evaluate_splice_reference(*ctx.cfg, *ctx.p1, *ctx.p2, s);
  if (o.caught_by_header) {
    ++st.caught_by_header;
    return;
  }
  if (o.identical) {
    ++st.identical;
    if (o.transport_pass) {
      ++st.pass_identical;
    } else {
      ++st.fail_identical;
    }
    return;
  }
  ++st.remaining;
  if (o.transport_pass) {
    ++st.missed_transport;
    ++st.pass_changed;
  } else {
    ++st.fail_changed;
  }
  if (o.crc_pass) ++st.missed_crc;
  if (o.crc_pass && o.transport_pass) ++st.missed_both;
  if (o.koopman_dual_pass) ++st.missed_koopman_dual;
  if (o.koopman_single_pass) ++st.missed_koopman_single;

  const std::size_t n2 = ctx.p2->cells.size();
  const std::size_t k = std::min<std::size_t>(n2 - s.k1, kMaxTrackedK - 1);
  ++st.remaining_by_k[k];
  if (o.transport_pass) ++st.missed_by_k[k];

  if ((s.mask2 & 1u) != 0) {  // packet 2's header cell is in the splice
    ++st.remaining_with_hdr2;
    if (o.transport_pass) ++st.missed_with_hdr2;
  }
}

// ---------------------------------------------------------------------------
// Prefix-sharing DFS evaluator.
//
// Every splice that survives the AAL5 length check has exactly n2
// cells, so a kept cell's contribution to each check value depends
// only on its distance d from the last non-EOM position:
//
//   Internet   position-independent cell sum
//   Fletcher   a, and b + (48*d + eom_len) * a   (unrolling the
//              classic B += |block| * A recurrence over the suffix)
//   Koopman    the same recurrence at 8-byte block grain (dual), or a
//              position-independent block sum (single)
//   CRC-32     suffix_comb(d).advance(cell crc)  (advance past the d
//              trailing cells + 44 EOM bytes; XOR-combines because
//              the zeros-operator is linear over GF(2))
//
// so check values are plain sums/XORs of per-(cell, distance) terms
// plus pair constants, and splices sharing a prefix share its fold.
//
// The walk is split in two phases around the k1 + k2 = n2 - 1
// constraint. Phase 2 enumerates p2's kept subsets once, anchored to
// the END (the largest kept index sits at position e2-1), which makes
// a subset's fold independent of k1 — one pool of 2^e2 - 1 combos,
// bucketed by size, serves every phase-1 branch. Phase 1 walks p1's
// kept subsets (after the mandatory first cell) in ascending order and
// joins each node against the bucket with the matching k2.
//
// Every pass test is one congruence per family, const + prefix +
// suffix == target in that family's residue ring (XOR for the CRC).
// So a pool entry is reduced once, when it is pooled, into SoA arrays,
// and each phase-1 node moves its constant, prefix and target to one
// side: the residue it needs from the suffix. A leaf is then four u32
// equality compares and an identity-flag test, eight suffixes per
// vector step; a bucket with no hit in any lane — nearly all of them —
// is counted wholesale. Each pool/walk edge folds one cell.
// ---------------------------------------------------------------------------

/// Accumulated contributions of the cells a DFS branch has chosen so
/// far (beyond the always-present first cell and EOM cell).
struct Agg {
  std::uint64_t inet = 0;
  std::uint64_t fa = 0;   ///< unreduced Fletcher A term
  std::uint64_t fb = 0;   ///< unreduced, distance-weighted B term
  std::uint64_t ka = 0;   ///< unreduced Koopman dual A term
  std::uint64_t kb = 0;   ///< unreduced, block-distance-weighted B term
  std::uint64_t ks = 0;   ///< unreduced Koopman single sum
  std::uint32_t crc = 0;  ///< XOR of distance-advanced per-cell CRCs
  bool eq1 = true;        ///< chosen cells match p1's at their position
  bool eq2 = true;        ///< chosen cells match p2's at their position
};

/// A pooled suffix's flag byte.
constexpr std::uint8_t kEq1 = 1;   ///< Agg::eq1
constexpr std::uint8_t kEq2 = 2;   ///< Agg::eq2
constexpr std::uint8_t kHdr2 = 4;  ///< includes p2's header cell (cell 0)

/// The need of a Koopman family whose target lies outside its residue
/// ring. No reduced suffix equals it (dual residues pack two values
/// below 65521, single ones are below 2^32 - 5), just as the reduced
/// sum never equalled the target.
constexpr std::uint32_t kNeverMatches = 0xffffffffu;

/// Constants of one pair's DFS.
struct DfsPair {
  const CellPartial* c1 = nullptr;
  const CellPartial* c2 = nullptr;
  unsigned e1 = 0, e2 = 0;
  std::uint64_t eom_len = 0;
  bool fletcher = false;     ///< transport is a Fletcher sum
  bool mod255 = false;
  bool track1 = false;       ///< n1 == n2: identical-to-p1 is possible
  bool ident1_base = false;  ///< track1 and EOM coverage matches p1's
  bool ident2_head = false;  ///< first cell's hash matches p2's cell 0
  bool pooled = false;       ///< suffixes come from the pool, not regrown
  // Pair constants: first cell at position 0 plus the EOM cell.
  std::uint64_t iconst = 0;
  std::uint64_t fconst_a = 0, fconst_b = 0;
  /// The content sum's residue mod 65535 that passes: the stored field
  /// itself, or its negation when the field holds the complement.
  /// Canonicalising first keeps the ones-complement ±0 exact.
  std::uint32_t inet_target = 0;
  // Koopman pair constants and targets: same two mandatory fragments,
  // with B weighted by trailing *block* count (6 per cell, 6 for the
  // EOM cell's 44 covered bytes). Targets are p2's whole-PDU sums.
  std::uint64_t kconst_a = 0, kconst_b = 0, ksconst = 0;
  alg::KoopmanDualPair kd_target{};
  std::uint64_t ks_target = 0;
  std::uint32_t crc_target = 0;
  SpliceStats* st = nullptr;
  /// Fold count for splice.dfs_nodes, flushed per pair. The pooled
  /// paths never touch it per fold — their counts are derived in
  /// closed form by evaluate_pair — so only suffix_exact (packets too
  /// large to pool; none under the default MTUs) increments it live.
  std::uint64_t* dfs_nodes = nullptr;
};

#ifndef OBS_DISABLE
/// Folds performed by prefix_walk for a pair: one per nonempty subset
/// of p1's optional cells (indices 1..e1-1), pruned at depth e2-1 by
/// the `k1 + 1 > e2` guard, i.e. sum over d in [1, dmax] of
/// C(e1-1, d). Counting in closed form keeps the telemetry out of
/// fold(), the DFS inner loop; the cumulative sums are tabulated so
/// the per-pair cost is one lookup (n is bounded by kMaxSpliceCells,
/// and the row sums fit u64 up to n = 63).
std::uint64_t prefix_fold_count(unsigned e1, unsigned e2) {
  constexpr unsigned kMaxN = 64;
  // cum[n][d] = sum_{j=1}^{d} C(n, j), built by Pascal's rule.
  static const auto cum = [] {
    auto t = std::make_unique<
        std::array<std::array<std::uint64_t, kMaxN>, kMaxN>>();
    std::array<std::uint64_t, kMaxN> row{};  // C(n, j)
    for (unsigned n = 0; n < kMaxN; ++n) {
      for (unsigned j = n; j > 0; --j) row[j] += row[j - 1];
      row[0] = 1;
      std::uint64_t sum = 0;
      for (unsigned d = 0; d < kMaxN; ++d) {
        if (d > 0) sum += d <= n ? row[d] : 0;
        (*t)[n][d] = sum;
      }
    }
    return t;
  }();
  const unsigned n = std::min(e1 - 1, kMaxN - 1);
  const unsigned dmax = std::min({n, e2 - 1, kMaxN - 1});
  return (*cum)[n][dmax];
}
#endif

/// Fold one kept cell at splice position `pos` (>= 1) into `a`.
inline void fold(const DfsPair& fs, Agg& a, const CellPartial& c,
                 unsigned pos) {
  const unsigned d = fs.e2 - 1 - pos;
  a.inet += c.inet;
  const alg::FletcherPair& fp = fs.mod255 ? c.f255 : c.f256;
  a.fa += fp.a;
  a.fb += fp.b +
          (static_cast<std::uint64_t>(atm::kCellPayload) * d + fs.eom_len) *
              fp.a;
  // Koopman dual: the Fletcher recurrence at block grain — d trailing
  // cells of 6 blocks each plus the EOM cell's 6 covered blocks.
  a.ka += c.kd.a;
  a.kb += c.kd.b + kKoopmanBlocksPerCell * (d + 1ull) * c.kd.a;
  a.ks += c.ks;
  a.crc ^= suffix_comb(d).advance(c.crc);
  a.eq2 = a.eq2 && c.hash == fs.c2[pos].hash;
  if (fs.track1) a.eq1 = a.eq1 && c.hash == fs.c1[pos].hash;
}

/// One residue per family: transport (Internet mod 65535, or Fletcher
/// a | b << 16 mod 255/256), CRC, Koopman dual (a | b << 16 mod 65521)
/// and Koopman single (mod 2^32 - 5).
struct Residues {
  std::uint32_t tr = 0, crc = 0, kd = 0, ks = 0;
};

/// x mod M, and (t - x) mod M for a reduced target t < M.
template <std::uint64_t M>
std::uint32_t mod(std::uint64_t x) {
  return static_cast<std::uint32_t>(x % M);
}
template <std::uint64_t M>
std::uint32_t mod_sub(std::uint64_t t, std::uint64_t x) {
  const std::uint64_t d = t + M - x % M;  // in [1, 2M)
  return static_cast<std::uint32_t>(d >= M ? d - M : d);
}

/// What a suffix contributes, reduced once when it is pooled.
Residues suffix_residues(const DfsPair& fs, const Agg& a) {
  Residues r;
  if (!fs.fletcher) {
    r.tr = mod<65535>(a.inet);
  } else if (fs.mod255) {
    r.tr = mod<255>(a.fa) | mod<255>(a.fb) << 16;
  } else {
    r.tr = mod<256>(a.fa) | mod<256>(a.fb) << 16;
  }
  r.crc = a.crc;
  r.kd = mod<alg::kKoopmanDualMod>(a.ka) |
         mod<alg::kKoopmanDualMod>(a.kb) << 16;
  r.ks = mod<alg::kKoopmanSingleMod>(a.ks);
  return r;
}

/// A phase-1 node, hoisted out of its leaves: what each family needs
/// from the suffix, need = (target - const - prefix) mod m (the CRC
/// XORs instead), so a leaf passes a family iff its residue equals the
/// need. `ident` holds the suffix flags that make a splice identical;
/// k is the substitution-length histogram slot, fixed by k2.
struct Node {
  Residues need;
  std::uint8_t ident = 0;
  std::size_t k = 0;
};

Node make_node(const DfsPair& fs, const Agg& a1, unsigned k2) {
  Node n;
  if (!fs.fletcher) {
    n.need.tr = mod_sub<65535>(fs.inet_target, fs.iconst + a1.inet);
  } else if (fs.mod255) {
    n.need.tr = mod_sub<255>(0, fs.fconst_a + a1.fa) |
                mod_sub<255>(0, fs.fconst_b + a1.fb) << 16;
  } else {
    n.need.tr = mod_sub<256>(0, fs.fconst_a + a1.fa) |
                mod_sub<256>(0, fs.fconst_b + a1.fb) << 16;
  }
  n.need.crc = a1.crc ^ fs.crc_target;
  constexpr std::uint64_t kd_mod = alg::kKoopmanDualMod;
  n.need.kd = fs.kd_target.a < kd_mod && fs.kd_target.b < kd_mod
                  ? mod_sub<kd_mod>(fs.kd_target.a, fs.kconst_a + a1.ka) |
                        mod_sub<kd_mod>(fs.kd_target.b, fs.kconst_b + a1.kb)
                            << 16
                  : kNeverMatches;
  n.need.ks = fs.ks_target < alg::kKoopmanSingleMod
                  ? mod_sub<alg::kKoopmanSingleMod>(fs.ks_target,
                                                    fs.ksconst + a1.ks)
                  : kNeverMatches;
  n.ident = static_cast<std::uint8_t>((fs.ident1_base && a1.eq1 ? kEq1 : 0) |
                                      (fs.ident2_head && a1.eq2 ? kEq2 : 0));
  // The splice keeps k2 of p2's non-EOM cells plus its EOM cell.
  n.k = std::min<std::size_t>(k2 + 1, kMaxTrackedK - 1);
  return n;
}

/// Suffixes per join step: eight u32 lanes, as two 128-bit vectors —
/// the width x86-64 (SSE2) and AArch64 (NEON) compare natively. Wider
/// GCC vectors are lowered lane by lane unless the build targets AVX2.
constexpr std::uint32_t kLanes = 8;

/// Suffixes in SoA form, each reduced into its families' residue
/// rings; bucket r is [begin[r], begin[r+1]) and, while it is being
/// filled, [begin[r], cursor[r]). Thread-local scratch, reused by
/// every pair a thread evaluates.
struct SuffixPool {
  std::vector<std::uint32_t> tr, crc, kd, ks;  ///< Residues, by field
  std::vector<std::uint8_t> flags;             ///< kEq1 | kEq2 | kHdr2
  std::vector<std::uint32_t> begin, cursor;
  std::vector<std::uint32_t> hdr2;  ///< entries flagged kHdr2, per bucket

  /// Empty buckets 0..nb-1 with room for size(r) entries each.
  template <typename Size>
  void layout(unsigned nb, Size size) {
    begin.assign(nb + 1, 0);
    for (unsigned r = 0; r < nb; ++r)
      begin[r + 1] = begin[r] + static_cast<std::uint32_t>(size(r));
    cursor.assign(begin.begin(), begin.end() - 1);
    hdr2.assign(nb, 0);
    // A join step reads whole vectors, up to kLanes - 1 slots past a
    // bucket's end; those lanes are masked off.
    const std::size_t cap = begin[nb] + kLanes;
    for (auto* v : {&tr, &crc, &kd, &ks}) v->resize(cap);
    flags.resize(cap);
  }

  void put(const DfsPair& fs, unsigned bucket, const Agg& a, bool has_hdr2) {
    const std::uint32_t i = cursor[bucket]++;
    const Residues r = suffix_residues(fs, a);
    tr[i] = r.tr;
    crc[i] = r.crc;
    kd[i] = r.kd;
    ks[i] = r.ks;
    flags[i] = static_cast<std::uint8_t>((a.eq1 ? kEq1 : 0) |
                                         (a.eq2 ? kEq2 : 0) |
                                         (has_hdr2 ? kHdr2 : 0));
    hdr2[bucket] += has_hdr2 ? 1 : 0;
  }
};

/// The leaf rule: classify the splices joining `node` to suffixes
/// [lo, hi) of `p`, `hdr2` of which include p2's header cell. When no
/// lane hits any family or the identity test, the range is counted
/// wholesale as changed and caught by every check; otherwise a second
/// pass counts each counter's lanes.
void join(const DfsPair& fs, const SuffixPool& p, std::uint32_t lo,
          std::uint32_t hi, std::uint32_t hdr2, const Node& node) {
  using u32x4 = std::uint32_t __attribute__((vector_size(16)));
  using i32x4 = std::int32_t __attribute__((vector_size(16)));
  using u8x4 = std::uint8_t __attribute__((vector_size(4)));
  /// Lane masks (all ones where true) of four suffixes.
  struct Quad {
    i32x4 tr, crc, kd, ks, ident, hdr2, valid;
  };
  const auto quad = [&](std::uint32_t i, Quad& q) {
    u32x4 tr, crc, kd, ks;
    u8x4 f8;
    std::memcpy(&tr, p.tr.data() + i, sizeof tr);
    std::memcpy(&crc, p.crc.data() + i, sizeof crc);
    std::memcpy(&kd, p.kd.data() + i, sizeof kd);
    std::memcpy(&ks, p.ks.data() + i, sizeof ks);
    std::memcpy(&f8, p.flags.data() + i, sizeof f8);
    const u32x4 fl = __builtin_convertvector(f8, u32x4);
    q.tr = tr == node.need.tr;
    q.crc = crc == node.need.crc;
    q.kd = kd == node.need.kd;
    q.ks = ks == node.need.ks;
    q.ident = (fl & node.ident) != 0;
    q.hdr2 = (fl & kHdr2) != 0;
    // Lanes at or past `hi` read a neighbour's (or padding) slots.
    q.valid = i32x4{0, 1, 2, 3} < static_cast<std::int32_t>(hi - i);
  };

  Quad q0, q1;
  i32x4 any = {};
  for (std::uint32_t i = lo; i < hi; i += kLanes) {
    quad(i, q0);
    quad(i + 4, q1);
    any |= (q0.tr | q0.crc | q0.kd | q0.ks | q0.ident) & q0.valid;
    any |= (q1.tr | q1.crc | q1.kd | q1.ks | q1.ident) & q1.valid;
  }
  SpliceStats& st = *fs.st;
  if ((any[0] | any[1] | any[2] | any[3]) == 0) {
    const std::uint32_t n = hi - lo;
    st.remaining += n;
    st.fail_changed += n;
    st.remaining_by_k[node.k] += n;
    st.remaining_with_hdr2 += hdr2;
    return;
  }

  // Per-lane counts: a true lane is -1, so subtracting a mask counts it.
  enum { kSame, kSameT, kChanged, kChangedT, kCrc, kCrcT, kKd, kKs, kHdr,
         kHdrT, kCounts };
  i32x4 n[kCounts] = {};
  const auto tally = [&](const Quad& q) {
    const i32x4 same = q.ident & q.valid;
    const i32x4 changed = q.valid & ~q.ident;
    const i32x4 crc = changed & q.crc;
    const i32x4 hdr = changed & q.hdr2;
    n[kSame] -= same;
    n[kSameT] -= same & q.tr;
    n[kChanged] -= changed;
    n[kChangedT] -= changed & q.tr;
    n[kCrc] -= crc;
    n[kCrcT] -= crc & q.tr;
    n[kKd] -= changed & q.kd;
    n[kKs] -= changed & q.ks;
    n[kHdr] -= hdr;
    n[kHdrT] -= hdr & q.tr;
  };
  for (std::uint32_t i = lo; i < hi; i += kLanes) {
    quad(i, q0);
    quad(i + 4, q1);
    tally(q0);
    tally(q1);
  }
  const auto total = [&](int c) {
    return static_cast<std::uint64_t>(n[c][0] + n[c][1] + n[c][2] + n[c][3]);
  };
  const std::uint64_t same = total(kSame), same_t = total(kSameT);
  const std::uint64_t changed = total(kChanged), changed_t = total(kChangedT);
  st.identical += same;
  st.pass_identical += same_t;
  st.fail_identical += same - same_t;
  st.remaining += changed;
  st.missed_transport += changed_t;
  st.pass_changed += changed_t;
  st.fail_changed += changed - changed_t;
  st.missed_crc += total(kCrc);
  st.missed_both += total(kCrcT);
  st.missed_koopman_dual += total(kKd);
  st.missed_koopman_single += total(kKs);
  st.remaining_by_k[node.k] += changed;
  st.missed_by_k[node.k] += changed_t;
  st.remaining_with_hdr2 += total(kHdr);
  st.missed_with_hdr2 += total(kHdrT);
}

/// Phase 2: pool every way p2's non-EOM cells can fill the LAST r
/// splice positions, bucketed by r. Cells are chosen in descending
/// index order; choosing cell `idx` with r cells already placed puts
/// it at distance r from the end (position e2-1-r), so a combo's fold
/// never depends on k1 and one pool serves every phase-1 branch. Each
/// nonempty subset is emitted exactly once, on the edge that adds its
/// smallest-index cell last.
void suffix_pool(const DfsPair& fs, int from, unsigned r, const Agg& agg,
                 SuffixPool& pool) {
  const unsigned pos = fs.e2 - 1 - r;
  for (int idx = from; idx >= 0; --idx) {
    Agg a = agg;
    fold(fs, a, fs.c2[idx], pos);
    pool.put(fs, r + 1, a, idx == 0);
    if (r + 2 <= fs.e2 - 1 && idx > 0)
      suffix_pool(fs, idx - 1, r + 1, a, pool);
  }
}

/// Suffixes suffix_exact stages before joining them: one bucket.
constexpr std::uint32_t kExactChunk = 64;

/// Join and empty suffix_exact's staged bucket.
void flush_exact(const DfsPair& fs, SuffixPool& chunk, const Node& node) {
  join(fs, chunk, 0, chunk.cursor[0], chunk.hdr2[0], node);
  chunk.cursor[0] = 0;
  chunk.hdr2[0] = 0;
}

/// Exact-size variant for packets too large to pool (2^e2 combos):
/// regrow the suffix per phase-1 node, still prefix-shared within it,
/// staging each complete one in `chunk` for the same join.
void suffix_exact(const DfsPair& fs, int from, unsigned need, unsigned r,
                  const Agg& a2, bool hdr2, const Node& node,
                  SuffixPool& chunk) {
  if (r == need) {
    chunk.put(fs, 0, a2, hdr2);
    if (chunk.cursor[0] == kExactChunk) flush_exact(fs, chunk, node);
    return;
  }
  const unsigned pos = fs.e2 - 1 - r;
  // idx+1 cells remain available below `idx`; prune branches that
  // cannot reach `need`.
  for (int idx = from; idx + 1 >= static_cast<int>(need - r); --idx) {
    Agg a = a2;
    fold(fs, a, fs.c2[idx], pos);
#ifndef OBS_DISABLE
    ++*fs.dfs_nodes;  // cold path: no closed form with the pruning
#endif
    suffix_exact(fs, idx - 1, need, r + 1, a, hdr2 || idx == 0, node, chunk);
  }
}

/// Packets whose suffix pool stays comfortably small (2^14 combos,
/// under 300 KiB of thread-local scratch). Larger packets — none exist
/// under the default MTUs — fall back to suffix_exact.
constexpr unsigned kMaxPooledSuffixCells = 14;

/// Phase 1: DFS over p1's kept cells after the mandatory first cell.
/// The node reached after choosing t cells (k1 = t+1) joins every
/// suffix of size e2-k1, then extends by each later cell; a subset's
/// fold happens once, on the edge adding its largest index.
void prefix_walk(const DfsPair& fs, unsigned from, unsigned t, const Agg& agg,
                 SuffixPool& pool) {
  const unsigned k1 = t + 1;
  const unsigned k2 = fs.e2 - k1;
  const Node node = make_node(fs, agg, k2);
  if (fs.pooled) {
    join(fs, pool, pool.begin[k2], pool.begin[k2 + 1], pool.hdr2[k2], node);
  } else {
    suffix_exact(fs, static_cast<int>(fs.e2) - 1, k2, 0, Agg{}, false, node,
                 pool);
    flush_exact(fs, pool, node);
  }
  if (k1 + 1 > fs.e2) return;  // a longer prefix would force k2 < 0
  for (unsigned idx = from; idx < fs.e1; ++idx) {
    Agg a = agg;
    fold(fs, a, fs.c1[idx], t + 1);
    prefix_walk(fs, idx + 1, t + 1, a, pool);
  }
}

/// splice_count and its split by first kept cell for one packet
/// shape. Adjacent pairs nearly always share a shape, and the binomial
/// sums cost more than a pair's DFS setup, so each thread memoises the
/// last shape it saw.
struct ShapeCounts {
  std::size_t n1 = 0, n2 = 0;
  std::uint64_t total = 0;
  std::array<std::uint64_t, atm::kMaxSpliceCells> first{};
};

const ShapeCounts& shape_counts(std::size_t n1, std::size_t n2) {
  thread_local ShapeCounts c;
  if (c.n1 != n1 || c.n2 != n2) {
    c.total = atm::splice_count(n1, n2);  // throws on an oversized shape
    for (std::size_t i = 0; i + 1 < n1; ++i)
      c.first[i] = atm::splice_count_first_cell(n1, n2, i);
    c.n1 = n1;
    c.n2 = n2;
  }
  return c;
}

PairContext make_pair_context(const net::PacketConfig& cfg, const SimPacket& p1,
                              const SimPacket& p2,
                              std::vector<std::uint8_t>& hdr_scratch) {
  PairContext ctx;
  ctx.cfg = &cfg;
  ctx.p1 = &p1;
  ctx.p2 = &p2;
  ctx.mod255 = cfg.transport == alg::Algorithm::kFletcher255;
  ctx.header_placement = cfg.placement == net::ChecksumPlacement::kHeader;
  ctx.hdr_ok = pair_hdr_ok(cfg, p1, p2, hdr_scratch);
  return ctx;
}

}  // namespace

SpliceOutcome evaluate_splice_reference(const net::PacketConfig& cfg,
                                        const SimPacket& p1,
                                        const SimPacket& p2,
                                        const atm::SpliceSpec& splice) {
  SpliceOutcome out;
  const util::Bytes bytes = atm::materialize_splice(p1.pdu, p2.pdu, splice);
  const atm::Aal5Trailer trailer = atm::parse_trailer(util::ByteView(bytes));
  const std::size_t len = trailer.length;

  if (net::check_headers(util::ByteView(bytes), len,
                         cfg.fill_ip_header && !cfg.legacy95_headers,
                         cfg.legacy95_headers) != net::HeaderCheck::kOk) {
    out.caught_by_header = true;
    return out;
  }

  // "Identical data" compares the delivered IP datagram (the first
  // `len` bytes) with the transport check field excluded. The AAL5
  // pad/trailer is reassembly framing, not data, and the check field
  // is not data either: §5.3's trailer analysis counts a splice whose
  // *payload* reproduces packet 1 as identical even though it carries
  // packet 2's trailer checksum (and is therefore rejected — a benign
  // false positive, Table 10).
  std::size_t skip_at = len;  // offset of the 2 excluded bytes
  if (cfg.placement == net::ChecksumPlacement::kHeader) {
    skip_at = net::kIpv4HeaderLen + 16;
  } else if (len >= net::kTrailerCheckLen) {
    skip_at = len - net::kTrailerCheckLen;
  }
  const auto datagram_equal = [&](const SimPacket& p) {
    if (p.total_len != len) return false;
    const util::ByteView a(bytes.data(), len);
    const util::ByteView b = p.pdu.bytes().first(len);
    for (std::size_t i = 0; i < len; ++i) {
      if (i == skip_at) {
        ++i;  // skip both check bytes
        continue;
      }
      if (a[i] != b[i]) return false;
    }
    return true;
  };
  out.identical = datagram_equal(p2) || datagram_equal(p1);
  out.transport_pass =
      net::verify_transport_checksum(cfg, util::ByteView(bytes).first(len));
  out.crc_pass = atm::crc_ok(util::ByteView(bytes));
  // Koopman sums share the AAL5 CRC's coverage; "pass" means the
  // splice reproduces packet 2's stored-in-our-model sums (the splice
  // carries p2's trailer, so p2's whole-PDU values are the targets).
  const util::ByteView kcov(bytes.data(), bytes.size() - 4);
  out.koopman_dual_pass = alg::kern::koopman_dual(kcov) == p2.kd_pdu;
  out.koopman_single_pass = alg::kern::koopman_single(kcov) == p2.ks_pdu;
  return out;
}

void SpliceStats::merge(const SpliceStats& o) {
  files += o.files;
  packets += o.packets;
  pairs += o.pairs;
  total += o.total;
  caught_by_header += o.caught_by_header;
  identical += o.identical;
  remaining += o.remaining;
  missed_crc += o.missed_crc;
  missed_transport += o.missed_transport;
  missed_both += o.missed_both;
  missed_koopman_dual += o.missed_koopman_dual;
  missed_koopman_single += o.missed_koopman_single;
  fail_identical += o.fail_identical;
  pass_identical += o.pass_identical;
  fail_changed += o.fail_changed;
  pass_changed += o.pass_changed;
  remaining_with_hdr2 += o.remaining_with_hdr2;
  missed_with_hdr2 += o.missed_with_hdr2;
  for (std::size_t i = 0; i < kMaxTrackedK; ++i) {
    remaining_by_k[i] += o.remaining_by_k[i];
    missed_by_k[i] += o.missed_by_k[i];
  }
  slow_path += o.slow_path;
  fast_path += o.fast_path;
}

namespace {

/// evaluate_pair, pooling p2's suffixes when it has at most
/// `max_pooled_cells` non-EOM cells.
void evaluate_pair_impl(const net::PacketConfig& cfg, const SimPacket& p1,
                        const SimPacket& p2, SpliceStats& stats,
                        unsigned max_pooled_cells) {
  SpliceObsFlush obs_flush(stats);
  ++stats.pairs;
  const std::size_t n1 = p1.pdu.num_cells();
  const std::size_t n2 = p2.pdu.num_cells();
  if (n1 < 2 || n2 < 1) return;

  const ShapeCounts& counts = shape_counts(n1, n2);
  const std::uint64_t total_pair = counts.total;
  if (total_pair == 0) return;
  stats.total += total_pair;

  std::vector<std::uint8_t> hdr_scratch;
  const PairContext ctx = make_pair_context(cfg, p1, p2, hdr_scratch);

  if (!p2.fast_path_ok) {
    atm::for_each_splice(
        n1, n2, [&](const atm::SpliceSpec& s) { eval_slow(ctx, s, stats); });
    return;
  }

  // Header gate, taken per subtree instead of per splice: all splices
  // starting at cell i share its header verdict, so a failing subtree
  // is counted wholesale and a passing one with i > 0 (a data cell
  // that happens to parse as a header — rare) goes to the slow path.
  const std::size_t e1 = n1 - 1;
  bool any_slow = false;
  for (std::size_t i = 0; i < e1; ++i) {
    const std::uint64_t sub = counts.first[i];
    if (!ctx.hdr_ok[i]) {
      stats.caught_by_header += sub;
      stats.fast_path += sub;
    } else if (i != 0) {
      any_slow = true;
    } else {
      stats.fast_path += sub;
    }
  }
  if (any_slow) {
    atm::for_each_splice(n1, n2, [&](const atm::SpliceSpec& s) {
      const unsigned first = static_cast<unsigned>(std::countr_zero(s.mask1));
      if (first != 0 && ctx.hdr_ok[first]) eval_slow(ctx, s, stats);
    });
  }
  if (!ctx.hdr_ok[0]) return;  // the whole DFS subtree was bulk-counted

  DfsPair fs;
  fs.c1 = p1.cells.data();
  fs.c2 = p2.cells.data();
  fs.e1 = static_cast<unsigned>(e1);
  fs.e2 = static_cast<unsigned>(n2 - 1);
  fs.eom_len = p2.tp.eom_len;
  fs.fletcher = cfg.transport != alg::Algorithm::kInternet;
  fs.mod255 = ctx.mod255;
  fs.track1 = n1 == n2;
  fs.ident1_base = fs.track1 && p2.eom_cov_hash == p1.eom_cov_hash;
  fs.ident2_head = p1.cells[0].hash == p2.cells[0].hash;
  fs.iconst = static_cast<std::uint64_t>(p1.tp.head_sum) + p2.tp.eom_sum;
  {
    const alg::FletcherPair& hf =
        ctx.mod255 ? p1.tp.head_f255 : p1.tp.head_f256;
    const alg::FletcherPair& ef = ctx.mod255 ? p2.tp.eom_f255 : p2.tp.eom_f256;
    fs.fconst_a = static_cast<std::uint64_t>(hf.a) + ef.a;
    fs.fconst_b =
        static_cast<std::uint64_t>(hf.b) + ef.b +
        (static_cast<std::uint64_t>(atm::kCellPayload) * (fs.e2 - 1) +
         fs.eom_len) *
            hf.a;
  }
  fs.crc_target = p2.stored_crc ^ p2.crc_head44 ^
                  suffix_comb(fs.e2 - 1).advance(p1.cells[0].crc);
  // Koopman constants: p1's mandatory first cell (6*e2 blocks follow
  // it) plus p2's EOM fragment (nothing follows). Targets are p2's
  // whole-PDU sums — the splice carries p2's trailer.
  fs.kconst_a = p1.cells[0].kd.a + p2.eom_kd.a;
  fs.kconst_b = static_cast<std::uint64_t>(p1.cells[0].kd.b) +
                kKoopmanBlocksPerCell * static_cast<std::uint64_t>(fs.e2) *
                    p1.cells[0].kd.a +
                p2.eom_kd.b;
  fs.ksconst = p1.cells[0].ks + p2.eom_ks;
  fs.kd_target = p2.kd_pdu;
  fs.ks_target = p2.ks_pdu;
  const std::uint16_t stored_canon = alg::ones_canonical(
      ctx.header_placement ? p1.tp.stored : p2.tp.stored);
  fs.inet_target = cfg.invert_checksum ? (65535u - stored_canon) % 65535u
                                       : stored_canon;
  fs.st = &stats;
  fs.dfs_nodes = &obs_flush.dfs_nodes;
  fs.pooled = fs.e2 <= max_pooled_cells;

  thread_local SuffixPool pool;
  if (fs.pooled) {
    // Bucket r holds the C(e2, r) r-cell subsets (r = 0: only p2's
    // EOM); r = e2 would force k1 = 0.
    std::array<std::uint32_t, kMaxPooledSuffixCells> binom{};
    binom[0] = 1;
    for (unsigned r = 1; r < fs.e2; ++r)
      binom[r] = binom[r - 1] * (fs.e2 - r + 1) / r;
    pool.layout(fs.e2, [&](unsigned r) { return binom[r]; });
    pool.put(fs, 0, Agg{}, false);
    if (fs.e2 >= 2)
      suffix_pool(fs, static_cast<int>(fs.e2) - 1, 0, Agg{}, pool);
#ifndef OBS_DISABLE
    // Every pool entry past the seeded k2 = 0 one cost exactly one
    // fold; the prefix side has a closed form. Summing here keeps the
    // DFS itself free of telemetry.
    obs_flush.dfs_nodes += pool.begin[fs.e2] - pool.begin[1];
#endif
  } else {
    pool.layout(1, [](unsigned) { return kExactChunk; });
  }
#ifndef OBS_DISABLE
  obs_flush.dfs_nodes += prefix_fold_count(fs.e1, fs.e2);
#endif
  prefix_walk(fs, 1, 0, Agg{}, pool);
}

}  // namespace

void evaluate_pair(const net::PacketConfig& cfg, const SimPacket& p1,
                   const SimPacket& p2, SpliceStats& stats) {
  evaluate_pair_impl(cfg, p1, p2, stats, kMaxPooledSuffixCells);
}

void evaluate_pair_unpooled(const net::PacketConfig& cfg, const SimPacket& p1,
                            const SimPacket& p2, SpliceStats& stats) {
  evaluate_pair_impl(cfg, p1, p2, stats, 0);
}

namespace {

/// Compress (optionally) and packetize one file — shared by the
/// sequential and work-stealing paths.
std::vector<SimPacket> prepare_file(const SpliceRunConfig& cfg,
                                    util::ByteView file) {
  obs::ScopedTimer timer(smx().packetize_ns);
  util::Bytes compressed;
  if (cfg.compress_files) {
    compressed = compress::lzw_compress(file);
    file = util::ByteView(compressed);
  }
  return packetize_file(cfg.flow, file);
}

/// One whole file into `st`: count it and its packets, then evaluate
/// every adjacent pair — shared by run_file and the sequential path.
void splice_file(const SpliceRunConfig& cfg,
                 const std::vector<SimPacket>& pkts, SpliceStats& st) {
  st.files += 1;
  st.packets += pkts.size();
  const SpliceMetrics& mx = smx();
  mx.files.add(1);
  mx.packets.add(pkts.size());
  for (std::size_t i = 0; i + 1 < pkts.size(); ++i)
    evaluate_pair(cfg.flow.packet, pkts[i], pkts[i + 1], st);
}

}  // namespace

void register_splice_metrics() { (void)smx(); }

SpliceStats run_file(const SpliceRunConfig& cfg, util::ByteView file) {
  SpliceStats st;
  splice_file(cfg, prepare_file(cfg, file), st);
  return st;
}

SpliceStats run_filesystem(const SpliceRunConfig& cfg,
                           const fsgen::Filesystem& fs) {
  return run_filesystem_range(cfg, fs, 0, fs.file_count());
}

namespace {

/// The scheduler behind every corpus source. `load(i)` produces file
/// i's SimPackets — by generate + packetize for a fsgen source, by
/// read + packetize for a directory, by memcpy reconstruction for a
/// corpus store — or nullopt for a file to skip uncounted, and the
/// rest of the machinery (sequential loop or pair-granular work
/// stealing) is source-agnostic. Every SpliceStats counter is
/// additive, so the merged result is bitwise identical for any thread
/// count, interleaving, or source representation of the same corpus.
template <typename Loader>
SpliceStats run_range_impl(const SpliceRunConfig& cfg, Loader&& load,
                           std::size_t begin, std::size_t end) {
  unsigned threads = cfg.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t nfiles = end > begin ? end - begin : 0;
  const SpliceMetrics& mx = smx();

  if (threads <= 1 || nfiles == 0) {
    SpliceStats st;
    for (std::size_t i = begin; i < end; ++i)
      if (const std::optional<std::vector<SimPacket>> pkts = load(i))
        splice_file(cfg, *pkts, st);
    return st;
  }

  // Pair-granular work stealing: whichever worker claims a file
  // loads it once, then its adjacent-pair range is carved into
  // fixed chunks that any idle worker can steal, so one large file no
  // longer serialises the run.
  struct FileWork {
    std::vector<SimPacket> pkts;
    std::atomic<std::size_t> next_pair{0};
    std::size_t pair_count = 0;
    unsigned owner = 0;  ///< worker that packetized it (steal counting)
  };
  constexpr std::size_t kPairChunk = 8;

  std::vector<SpliceStats> partial(threads);
  std::atomic<std::size_t> next_file{begin};
  std::atomic<unsigned> packetizing{0};
  std::mutex mu;  // guards `open`
  std::vector<std::shared_ptr<FileWork>> open;

  auto worker = [&](unsigned t) {
    SpliceStats& st = partial[t];
    for (;;) {
      // 1) Steal a pair chunk from any open file.
      std::shared_ptr<FileWork> fw;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto it = open.begin(); it != open.end();) {
          if ((*it)->next_pair.load(std::memory_order_relaxed) >=
              (*it)->pair_count) {
            mx.sched_open_files.sub(1);
            it = open.erase(it);  // drained; in-flight chunks hold refs
          } else {
            fw = *it;
            break;
          }
        }
      }
      if (fw != nullptr) {
        const std::size_t lo = fw->next_pair.fetch_add(kPairChunk);
        const std::size_t hi = std::min(lo + kPairChunk, fw->pair_count);
        if (lo < hi) {
          mx.sched_chunks.add(1);
          if (fw->owner != t) mx.sched_steals.add(1);
          obs::ScopedTimer timer(mx.chunk_ns);
          for (std::size_t j = lo; j < hi; ++j)
            evaluate_pair(cfg.flow.packet, fw->pkts[j], fw->pkts[j + 1], st);
        }
        continue;
      }
      // 2) No open pairs: claim and packetize the next file. The
      //    in-flight counter keeps step 3 from declaring victory while
      //    a file is being opened. (Bumped before the claim so a
      //    racing worker can never observe files-exhausted with the
      //    counter already back at zero.)
      packetizing.fetch_add(1);
      const std::size_t i = next_file.fetch_add(1);
      if (i < end) {
        if (std::optional<std::vector<SimPacket>> pkts = load(i)) {
          auto work = std::make_shared<FileWork>();
          work->pkts = std::move(*pkts);
          work->owner = t;
          st.files += 1;
          st.packets += work->pkts.size();
          mx.sched_files.add(1);
          mx.files.add(1);
          mx.packets.add(work->pkts.size());
          if (work->pkts.size() >= 2) {
            work->pair_count = work->pkts.size() - 1;
            mx.sched_open_files.add(1);
            std::lock_guard<std::mutex> lock(mu);
            open.push_back(std::move(work));
          }
        }
        packetizing.fetch_sub(1);
        continue;
      }
      packetizing.fetch_sub(1);
      // 3) Files exhausted: done once no file is mid-packetize and no
      //    open file has unclaimed pairs.
      if (packetizing.load() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        bool pending = false;
        for (const auto& w : open) {
          if (w->next_pair.load(std::memory_order_relaxed) < w->pair_count) {
            pending = true;
            break;
          }
        }
        if (!pending) return;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();

  SpliceStats st;
  for (const auto& p : partial) st.merge(p);
  return st;
}

}  // namespace

SpliceStats run_filesystem_range(const SpliceRunConfig& cfg,
                                 const fsgen::Filesystem& fs,
                                 std::size_t begin, std::size_t end) {
  end = std::min(end, fs.file_count());
  begin = std::min(begin, end);
  return run_range_impl(
      cfg,
      [&](std::size_t i) {
        const util::Bytes file = fs.file(i);
        return std::optional(prepare_file(cfg, util::ByteView(file)));
      },
      begin, end);
}

SpliceStats run_corpus_range(const SpliceRunConfig& cfg,
                             const fsgen::CorpusReader& corpus,
                             std::size_t begin, std::size_t end) {
  end = std::min(end, corpus.file_count());
  begin = std::min(begin, end);
  // Advisory readahead over exactly the SoA slices this range touches:
  // a dist worker streams each lease shard from a cold page cache, so
  // asking for the pages up front overlaps I/O with reconstruction.
  corpus.advise_will_need(begin, end);
  return run_range_impl(
      cfg,
      [&](std::size_t i) {
        // The reconstruction cost lands in the same timing histogram
        // as packetisation so the two sources are directly comparable
        // in exported manifests.
        obs::ScopedTimer timer(smx().packetize_ns);
        return std::optional(corpus.file_packets(i));
      },
      begin, end);
}

SpliceStats run_files_range(const SpliceRunConfig& cfg,
                            std::span<const std::filesystem::path> files,
                            std::size_t begin, std::size_t end) {
  end = std::min(end, files.size());
  begin = std::min(begin, end);
  return run_range_impl(
      cfg,
      [&](std::size_t i) -> std::optional<std::vector<SimPacket>> {
        const util::Bytes file =
            read_file_prefix(files[i], DirLimits{}.max_file_bytes);
        if (file.empty()) return std::nullopt;
        return prepare_file(cfg, util::ByteView(file));
      },
      begin, end);
}

}  // namespace cksum::core
