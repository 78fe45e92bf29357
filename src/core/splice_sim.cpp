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
#include "fsgen/corpus_store.hpp"
#include "net/validate.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace cksum::core {

namespace {

// ---------------------------------------------------------------------------
// Telemetry. Counters are never touched per splice: evaluate_pair
// accumulates into its SpliceStats as before and a flush object adds
// the deltas to the registry on the way out, once per chunk of
// kPairChunk pairs in a run (once per call for direct evaluate_pair
// callers), so the DFS inner loop costs at most one plain increment
// (the node count) and the registry sees a handful of relaxed adds per
// chunk. All splice.* counters are additive and thread-count invariant
// (Tag kDeterministic); sched.* depends on worker interleaving.
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

/// Flushes the SpliceStats deltas of the pairs evaluated in its scope
/// (the stats object is shared across many pairs) into the registry
/// on scope exit, covering every early return.
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

  std::uint64_t dfs_nodes = 0;  ///< nodes the DFS grew (DfsPair)

 private:
  // Only the flushed scalars are captured — copying the whole
  // SpliceStats would drag its by-k arrays through every flush.
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
/// bytes. One table per distance, built once per process, each
/// composed from the one before with the one-cell operator — a splice
/// CRC is then the XOR of per-cell advanced CRCs (the operator is
/// linear), independent of which other cells the splice keeps.
const alg::CrcCombiner& suffix_comb(std::size_t d) {
  static const std::vector<alg::CrcCombiner> cache =
      alg::combiner_ladder(44, atm::kCellPayload, atm::kMaxSpliceCells);
  return cache[d];
}

struct PairContext {
  const net::PacketConfig* cfg = nullptr;
  const PacketView* p1 = nullptr;
  const PacketView* p2 = nullptr;
  bool mod255 = false;
  bool header_placement = true;
  /// Per p1 non-EOM cell: would these 48 bytes pass the header checks
  /// as the first cell of a splice of p2's AAL5 length?
  const std::uint8_t* hdr_ok = nullptr;
};

/// hdr_ok for the pair: reuse p1's precomputed self-check when the
/// lengths (and check flavour) match, else compute into `scratch`.
const std::uint8_t* pair_hdr_ok(const net::PacketConfig& cfg,
                                const PacketView& p1, const PacketView& p2,
                                std::vector<std::uint8_t>& scratch) {
  const bool require_ipck = cfg.fill_ip_header && !cfg.legacy95_headers;
  const std::size_t n1 = p1.cells.size();
  if (p1->total_len == p2->total_len && p1.hdr_ok_self.size() == n1 - 1 &&
      p1->hdr_require_ipck == require_ipck &&
      p1->hdr_legacy95 == cfg.legacy95_headers) {
    return p1.hdr_ok_self.data();
  }
  scratch.resize(n1 - 1);
  for (std::size_t i = 0; i + 1 < n1; ++i) {
    scratch[i] = net::check_headers(
                     p1.pdu.subspan(i * atm::kCellPayload, atm::kCellPayload),
                     p2->total_len, require_ipck, cfg.legacy95_headers) ==
                         net::HeaderCheck::kOk
                     ? 1
                     : 0;
  }
  return scratch.data();
}

/// The byte-level oracle behind evaluate_splice_reference, on views.
SpliceOutcome splice_outcome(const net::PacketConfig& cfg, const PacketView& p1,
                             const PacketView& p2,
                             const atm::SpliceSpec& splice);

/// Materialise one splice and classify it through the byte-level
/// oracle — for splices the partial sums cannot express.
void eval_slow(const PairContext& ctx, const atm::SpliceSpec& s,
               SpliceStats& st) {
  ++st.slow_path;
  const SpliceOutcome o = splice_outcome(*ctx.cfg, *ctx.p1, *ctx.p2, s);
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
// plus pair constants, and splices sharing a prefix share its sum.
//
// The walk is split in two phases around the k1 + k2 = n2 - 1
// constraint. Phase 2 pools p2's kept subsets once, anchored to the
// END (the largest kept index sits at position e2-1), which makes a
// subset's sum independent of k1 — one pool of 2^e2 - 1 combos,
// bucketed by size, serves every phase-1 node. Phase 1 enumerates
// p1's kept subsets (after the mandatory first cell) and joins each
// node against the bucket with the matching k2.
//
// Every pass test is one congruence per family, const + prefix +
// suffix == target in that family's residue ring (XOR for the CRC).
// So each (cell, position) term is reduced into its rings once per
// pair, in a term table shared with the pairs grown beside it (below),
// and both phases are grown level by level in SoA form from it: a pool
// entry holds its suffix's residues, and a phase-1 node holds the
// residues it needs from the suffix, (target - const - prefix) mod m,
// by adding pre-negated terms. Both orders keep the subsets one cell
// extends at the front of a level, so growing a level is one
// vectorised modular add of one term to a few contiguous ranges
// (extend). A leaf is then four u32 equality compares and an
// identity-flag test, four suffixes per vector step.
// A level is joined in blocks of nodes that share each suffix load; a
// block with no hit in any lane — nearly all of them — is counted
// wholesale.
//
// A pair's levels are small (1-20 entries for 7x7 cells), so a run
// grows up to four adjacent pairs of one shape as one DFS, each pair
// in its own lanes (DfsGroup): same-shape pairs share every bucket
// bound and level size, and differ only in their terms and roots. The
// group's term table is built in those lanes too, so extend loads each
// family's term as one vector, and the B terms of every lane step
// together.
// ---------------------------------------------------------------------------

/// A pooled suffix's flag byte; a phase-1 node's ident byte holds the
/// kEq1/kEq2 bits a suffix needs to make the splice identical.
constexpr std::uint8_t kEq1 = 1;   ///< kept cells match p1's at their position
constexpr std::uint8_t kEq2 = 2;   ///< kept cells match p2's at their position
constexpr std::uint8_t kHdr2 = 4;  ///< includes p2's header cell (cell 0)

/// The need of a Koopman family whose target lies outside its residue
/// ring. No reduced suffix equals it (dual residues pack two values
/// below 65521, single ones are below 2^32 - 5), just as the reduced
/// sum never equalled the target; extend leaves it as it is.
constexpr std::uint32_t kNeverMatches = 0xffffffffu;

/// C(n, k) for n, k < kMaxSpliceCells (0 for k > n): the sizes of pool
/// buckets, prefix levels and the ranges they are grown from.
constexpr auto kBinom = [] {
  constexpr std::size_t kN = atm::kMaxSpliceCells;
  std::array<std::array<std::uint32_t, kN>, kN> c{};
  for (std::size_t n = 0; n < kN; ++n) {
    c[n][0] = 1;
    for (std::size_t k = 1; k <= n; ++k)
      c[n][k] = c[n - 1][k - 1] + c[n - 1][k];
  }
  return c;
}();

/// One residue per family: transport (Internet mod 65535 in the low
/// half, or Fletcher a | b << 16 mod 255/256), CRC, Koopman dual
/// (a | b << 16 mod 65521) and Koopman single (mod 2^32 - 5).
struct Residues {
  std::uint32_t tr = 0, crc = 0, kd = 0, ks = 0;
};

/// Constants of one pair's DFS.
struct DfsPair {
  const CellPartial* c1 = nullptr;
  const CellPartial* c2 = nullptr;
  unsigned e1 = 0, e2 = 0;
  std::uint64_t eom_len = 0;
  std::uint32_t tr_mod = 0;  ///< transport modulus of each 16-bit half
  bool kd_live = true;       ///< Koopman dual target lies in its ring
  bool ks_live = true;       ///< Koopman single target lies in its ring
  /// The root node: what each family needs from the suffix, and the
  /// suffix flags that make the splice identical.
  Residues need;
  std::uint8_t ident = 0;
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

/// x + y mod m, for x and y below m < 2^31.
constexpr std::uint32_t add_mod(std::uint32_t x, std::uint32_t y,
                                std::uint32_t m) {
  const std::uint32_t sum = x + y;
  return sum >= m ? sum - m : sum;
}

/// -x mod m, for x below m.
constexpr std::uint32_t neg_mod(std::uint32_t x, std::uint64_t m) {
  return x != 0 ? static_cast<std::uint32_t>(m - x) : 0;
}

/// Suffixes per join step: four u32 lanes, one 128-bit vector — the
/// width x86-64 (SSE2) and AArch64 (NEON) compare natively. Wider GCC
/// vectors are lowered lane by lane unless the build targets AVX2.
/// Also the most pairs one DFS grows at once.
constexpr std::uint32_t kLanes = 4;

using u32x4 = std::uint32_t __attribute__((vector_size(16)));
using i32x4 = std::int32_t __attribute__((vector_size(16)));

/// Residues and flags in SoA form, with kLanes elements of padding
/// past the last one in use (a vector at the last element reads three
/// past it): the pool, a prefix level, the regrown path's stack and
/// its staging chunk, and a group's term tables (whose flags are the
/// `keep` bits). Thread-local scratch, reused by every pair a thread
/// evaluates.
struct ResidueSoA {
  std::vector<std::uint32_t> tr, crc, kd, ks;
  std::vector<std::uint8_t> flags;

  /// Room for n elements plus the padding; never shrinks.
  void reserve_slots(std::size_t n) {
    if (flags.size() >= n + kLanes) return;
    for (auto* v : {&tr, &crc, &kd, &ks}) v->resize(n + kLanes);
    flags.resize(n + kLanes);
  }

  void put(std::uint32_t i, const Residues& r, std::uint8_t f) {
    tr[i] = r.tr;
    crc[i] = r.crc;
    kd[i] = r.kd;
    ks[i] = r.ks;
    flags[i] = f;
  }
};

/// L in {1, 2, 4} same-shape pairs whose DFS runs as one (L is the DFS
/// functions' template argument). Element (slot s, pair l) of the pool,
/// a level or the regrown scratch sits at index s·L + l, so lane j of
/// a vector over elements from a multiple of L is pair j mod L's, and
/// the slot layout depends only on the shape.
struct DfsGroup {
  const DfsPair* pair = nullptr;  ///< the L pairs
  unsigned e1 = 0, e2 = 0;
  std::uint32_t tr_mod = 0;
  u32x4 kd_live{}, ks_live{};  ///< all ones in the lanes of a live family
  /// Term tables, entry ix = idx·e2 + pos of pair l at element ix·L + l:
  /// p2's cell idx at position pos >= max(idx, 1), and p1's cell idx
  /// (>= 1) at position pos <= idx, the latter negated so it moves a
  /// need (build_group_terms).
  const ResidueSoA *t1 = nullptr, *t2 = nullptr;
  SpliceStats* st = nullptr;
  /// Count for splice.dfs_nodes, flushed per chunk: one per pool entry
  /// past bucket 0, per phase-1 node past the root, and per regrown
  /// suffix edge, in every lane.
  std::uint64_t* dfs_nodes = nullptr;
};

/// The vector whose lane j holds f(j mod L).
template <unsigned L, typename F>
u32x4 by_lane(F f) {
  static_assert(L == 1 || L == 2 || L == kLanes);
  const std::uint32_t a = f(0);
  if constexpr (L == 1) return u32x4{} + a;
  const std::uint32_t b = f(1);
  if constexpr (L == 2) return u32x4{a, b, a, b};
  return u32x4{a, b, f(2), f(3)};
}

/// Four flag bytes, p[j mod L] in byte j of the word.
template <unsigned L>
std::uint32_t flag_lanes(const std::uint8_t* p) {
  using u8x4 = std::uint8_t __attribute__((vector_size(4)));
  const u8x4 b{p[0], p[1 % L], p[2 % L], p[3 % L]};
  std::uint32_t w;
  std::memcpy(&w, &b, sizeof w);
  return w;
}

/// b in the lanes of `live`, INT32_MAX (a bound no residue exceeds) in
/// the others.
i32x4 live_bound(u32x4 b, u32x4 live) {
  return reinterpret_cast<i32x4>((b & live) | (0x7fffffffu & ~live));
}

/// Adds y to residues below m in each 16-bit half, mod m, on four
/// lanes. The words are added whole — a low-half carry is cancelled
/// when that half wraps — and m is taken off each half whose x reached
/// m - y, so the test looks at x alone, against a per-term bound.
/// A lane of a dead family adds 0 and never wraps: it is copied.
class AddHalves {
 public:
  AddHalves(u32x4 y, std::uint32_t m, u32x4 live)
      : y_(y & live),
        lo_max_(live_bound(m - (y & 0xffffu) - 1, live)),
        hi_max_(live_bound(m - (y >> 16) - 1, live)),
        m_lo_(m),
        m_hi_(m << 16) {}

  u32x4 operator()(u32x4 x) const {
    const auto lo = reinterpret_cast<i32x4>(x & 0xffffu) > lo_max_;
    const auto hi = reinterpret_cast<i32x4>(x >> 16) > hi_max_;
    return x + y_ - (reinterpret_cast<u32x4>(lo) & m_lo_) -
           (reinterpret_cast<u32x4>(hi) & m_hi_);
  }

 private:
  u32x4 y_;
  i32x4 lo_max_, hi_max_;
  std::uint32_t m_lo_, m_hi_;
};

/// Adds y to residues below M = 2^32 - 5, mod M, on four lanes. The sum
/// wraps once x >= M - y; taking M off is then adding 5 mod 2^32. The
/// unsigned test is a signed one on sign-flipped words.
class AddSingle {
 public:
  AddSingle(u32x4 y, u32x4 live)
      : y_(y & live), max_(live_bound(((kM - y) ^ kFlip) - 1, live)) {}

  u32x4 operator()(u32x4 x) const {
    const auto wraps = reinterpret_cast<i32x4>(x ^ kFlip) > max_;
    return x + y_ + (reinterpret_cast<u32x4>(wraps) & 5u);
  }

 private:
  static constexpr auto kM =
      static_cast<std::uint32_t>(alg::kKoopmanSingleMod);
  static constexpr std::uint32_t kFlip = 0x80000000u;
  u32x4 y_;
  i32x4 max_;
};

/// Cell idx's terms in each of the L lanes, p2's cell or (`p1`) p1's,
/// at positions hi, hi-1, ..., lo (>= 1) into the table `t`. At
/// position pos the cell is followed by d = e2-1-pos full cells and the
/// EOM cell. Only the CRC and the B terms depend on d: one more
/// trailing cell adds 48·a to Fletcher's B and 6·a to the Koopman
/// dual's (6 blocks a cell; the EOM cell covers 6 more), so each B
/// steps once per position, every lane's at once. p1's terms are
/// stored with every additive residue negated, the form that moves a
/// phase-1 need.
template <unsigned L>
void cell_terms(const DfsGroup& g, unsigned idx, unsigned lo, unsigned hi,
                bool p1, ResidueSoA& t) {
  const std::uint64_t d0 = g.e2 - 1 - hi;
  const std::uint32_t m = g.tr_mod;
  constexpr std::uint32_t km = alg::kKoopmanDualMod;
  const auto reduce = [&](std::uint64_t x) {
    return m == 255 ? mod<255>(x) : mod<256>(x);
  };
  // Per lane: (a | b << 16) and B's step (b's half only) of the
  // transport and the Koopman dual, the Koopman single sum, and what
  // the CRC and the identity bits are made of.
  std::array<std::uint32_t, kLanes> tr{}, tr_step{}, kd{}, kd_step{}, ks{},
      crc{};
  std::array<std::uint64_t, kLanes> hash{};
  std::array<const CellPartial*, kLanes> c1{}, c2{};
  const bool track1 = g.e1 == g.e2;  // identical-to-p1 is possible
  for (unsigned l = 0; l < L; ++l) {
    const DfsPair& s = g.pair[l];
    const CellPartial& c = (p1 ? s.c1 : s.c2)[idx];
    std::uint32_t ta = mod<65535>(c.inet), tb = 0, tstep = 0;  // Internet
    if (m != 65535) {
      const alg::FletcherPair& fp = m == 255 ? c.f255 : c.f256;
      ta = reduce(fp.a);
      tb = reduce(fp.b + (atm::kCellPayload * d0 + s.eom_len) * fp.a);
      tstep = reduce(atm::kCellPayload * fp.a);
    }
    std::uint32_t ka = mod<km>(c.kd.a);
    std::uint32_t kb =
        mod<km>(c.kd.b + kKoopmanBlocksPerCell * (d0 + 1) * c.kd.a);
    std::uint32_t kstep = mod<km>(kKoopmanBlocksPerCell * c.kd.a);
    std::uint32_t ksum = mod<alg::kKoopmanSingleMod>(c.ks);
    if (p1) {
      ta = neg_mod(ta, m);
      tb = neg_mod(tb, m);
      tstep = neg_mod(tstep, m);
      ka = neg_mod(ka, km);
      kb = neg_mod(kb, km);
      kstep = neg_mod(kstep, km);
      ksum = neg_mod(ksum, alg::kKoopmanSingleMod);
    }
    tr[l] = ta | tb << 16;
    tr_step[l] = tstep << 16;
    kd[l] = ka | kb << 16;
    kd_step[l] = kstep << 16;
    ks[l] = ksum;
    crc[l] = c.crc;
    hash[l] = c.hash;
    c1[l] = s.c1;
    c2[l] = s.c2;
  }
  const auto vec = [](const auto& a) {
    return by_lane<L>([&](unsigned l) { return a[l]; });
  };
  u32x4 vtr = vec(tr), vkd = vec(kd);
  const u32x4 vks = vec(ks);
  // A B ladder adds its step to the high half alone, so only that half
  // can wrap: AddHalves' test on it, without the low half's.
  const auto ladder = [&](const auto& step, std::uint32_t mod) {
    const u32x4 y = vec(step);
    const i32x4 max = reinterpret_cast<i32x4>(mod - (y >> 16) - 1);
    return [=](u32x4 x) {
      const i32x4 wraps = reinterpret_cast<i32x4>(x >> 16) > max;
      return x + y - (reinterpret_cast<u32x4>(wraps) & (mod << 16));
    };
  };
  const auto step_tr = ladder(tr_step, m);
  const auto step_kd = ladder(kd_step, km);
  // Raw pointers: a flag store may alias anything t or g reach.
  std::uint32_t *ttr = t.tr.data(), *tcrc = t.crc.data(), *tkd = t.kd.data(),
                *tks = t.ks.data();
  std::uint8_t* tfl = t.flags.data();
  const alg::CrcCombiner* comb = &suffix_comb(d0);
  for (unsigned pos = hi; pos >= lo; --pos, ++comb) {
    const std::uint32_t e = (idx * g.e2 + pos) * L;
    std::memcpy(ttr + e, &vtr, L * sizeof(std::uint32_t));
    std::memcpy(tkd + e, &vkd, L * sizeof(std::uint32_t));
    std::memcpy(tks + e, &vks, L * sizeof(std::uint32_t));
    for (unsigned l = 0; l < L; ++l) {
      tcrc[e + l] = comb->advance(crc[l]);
      tfl[e + l] = static_cast<std::uint8_t>(
          kHdr2 | (track1 && hash[l] == c1[l][pos].hash ? kEq1 : 0) |
          (hash[l] == c2[l][pos].hash ? kEq2 : 0));
    }
    vtr = step_tr(vtr);
    vkd = step_kd(vkd);
  }
}

/// Fill the group's term tables: every position each cell can occupy.
/// p2's cell idx sits at distance r (position e2-1-r) below the r kept
/// cells above it; p1's cell idx at position t+1 above the t below it.
template <unsigned L>
void build_group_terms(DfsGroup& g, ResidueSoA& t1, ResidueSoA& t2) {
  const unsigned e1 = g.e1, e2 = g.e2;
  t2.reserve_slots(std::size_t{e2} * e2 * L);
  for (unsigned idx = 0; idx < e2; ++idx)
    cell_terms<L>(g, idx, std::max(idx, 1u), e2 - 1, false, t2);
  t1.reserve_slots(std::size_t{e1} * e2 * L);
  for (unsigned idx = 1; idx < e1; ++idx)
    cell_terms<L>(g, idx, 1, std::min(idx, e2 - 1), true, t1);
  g.t1 = &t1;
  g.t2 = &t2;
}

/// The one step every level is grown by: dst[at + i] = src[from + i]
/// plus the term, for elements i < n, in each family's ring, with flags
/// (flags & keep) | set. Each lane adds its own pair's term, entry `ix`
/// of `terms` (keep is its flags; set is kHdr2 for p2's header cell in
/// every lane, else 0); at, from and n are multiples of L. A dead
/// Koopman family (kNeverMatches) is copied, not added, in its own
/// lanes. Whole u32x4 vectors are read and written, so a range's tail
/// touches up to three elements past it: it writes garbage only where
/// nothing valid lives yet (the rest of the level being grown, which
/// is written after, deeper regrown slots, or the padding), and reads
/// source elements no valid lane depends on.
template <unsigned L>
inline void extend(const DfsGroup& g, ResidueSoA& dst, std::uint32_t at,
                   const ResidueSoA& src, std::uint32_t from, std::uint32_t n,
                   const ResidueSoA& terms, std::uint32_t ix,
                   std::uint8_t set) {
  const std::uint32_t e = ix * L;
  const auto term = [&](const std::vector<std::uint32_t>& v) {
    return by_lane<L>([&](unsigned l) { return v[e + l]; });
  };
  const AddHalves add_tr(term(terms.tr), g.tr_mod, ~u32x4{});
  const AddHalves add_kd(term(terms.kd), alg::kKoopmanDualMod, g.kd_live);
  const AddSingle add_ks(term(terms.ks), g.ks_live);
  const u32x4 crc_t = term(terms.crc);
  const std::uint32_t keep = flag_lanes<L>(terms.flags.data() + e);
  const std::uint32_t *str = src.tr.data() + from,
                      *scrc = src.crc.data() + from,
                      *skd = src.kd.data() + from, *sks = src.ks.data() + from;
  const std::uint8_t* sfl = src.flags.data() + from;
  std::uint32_t *dtr = dst.tr.data() + at, *dcrc = dst.crc.data() + at,
                *dkd = dst.kd.data() + at, *dks = dst.ks.data() + at;
  std::uint8_t* dfl = dst.flags.data() + at;
  for (std::uint32_t i = 0; i < n; i += 4) {
    u32x4 tr, crc, kd, ks;
    std::uint32_t fl;
    std::memcpy(&tr, str + i, sizeof tr);
    std::memcpy(&crc, scrc + i, sizeof crc);
    std::memcpy(&kd, skd + i, sizeof kd);
    std::memcpy(&ks, sks + i, sizeof ks);
    std::memcpy(&fl, sfl + i, sizeof fl);
    tr = add_tr(tr);
    crc ^= crc_t;
    kd = add_kd(kd);
    ks = add_ks(ks);
    fl = (fl & keep) | set * 0x01010101u;
    std::memcpy(dtr + i, &tr, sizeof tr);
    std::memcpy(dcrc + i, &crc, sizeof crc);
    std::memcpy(dkd + i, &kd, sizeof kd);
    std::memcpy(dks + i, &ks, sizeof ks);
    std::memcpy(dfl + i, &fl, sizeof fl);
  }
}

/// Per-thread scratch of the DFS, reused by every group whatever its
/// L: the group's term tables, and one-lane copies of a pair's suffixes
/// and nodes for the joins of a block where it hit.
struct DfsScratch {
  ResidueSoA t1, t2, pool, level, next, stack, stage, lane_suffixes,
      lane_nodes;
};
thread_local DfsScratch dfs_scratch;

/// Pair l's slots [from, from + n) of an L-lane SoA, as slots [0, n) of
/// a one-lane copy.
template <unsigned L>
void copy_lane(const ResidueSoA& src, std::uint32_t from, std::uint32_t n,
               unsigned l, ResidueSoA& dst) {
  dst.reserve_slots(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t e = (from + s) * L + l;
    dst.put(s, {src.tr[e], src.crc[e], src.kd[e], src.ks[e]}, src.flags[e]);
  }
}

/// Prefix nodes joined per pass over a suffix bucket. A 7x7-cell
/// pair's largest level (10 nodes) is one block; the 512-byte-segment
/// shapes' levels of up to 252 nodes split into blocks, so a hit
/// sends only its own block to the per-node fallback.
constexpr std::uint32_t kJoinBlock = 16;

/// The leaf rule: classify the splices joining slots [first, first +
/// count) of prefix level `level` to slots [lo, hi) of `p`, `hdr2` of
/// which include p2's header cell in each pair; k is the level's
/// substitution-length histogram slot. A node's residues are what each
/// family needs from the suffix (a leaf passes a family iff its residue
/// equals the need) and its flags the suffix flags that make a splice
/// identical; each lane compares its own pair's suffixes and nodes.
/// Each suffix quad is loaded once and compared with every node of the
/// block; the scan stops once every pair has a hit. For a pair with no
/// hit in any lane, for any node, in any family or the identity test,
/// the block is counted wholesale as changed and caught by every
/// check. Each pair with a hit has each node joined alone, one pair at
/// a time (from one-lane copies when L > 1, so one pair's hit costs
/// no other pair a tally), and a one-node join counts each counter's
/// lanes in a second pass.
template <unsigned L>
void join(const DfsGroup& g, const ResidueSoA& p, std::uint32_t lo,
          std::uint32_t hi, std::uint32_t hdr2, const ResidueSoA& level,
          std::uint32_t first, std::uint32_t count, std::size_t k) {
  using u8x4 = std::uint8_t __attribute__((vector_size(4)));
  const std::uint32_t end = hi * L;
  /// Four suffixes, and which of them are in [lo, hi).
  struct Quad {
    u32x4 tr, crc, kd, ks, flags;
    i32x4 valid;
  };
  const auto quad = [&](std::uint32_t i) {
    Quad q;
    u8x4 f8;
    std::memcpy(&q.tr, p.tr.data() + i, sizeof q.tr);
    std::memcpy(&q.crc, p.crc.data() + i, sizeof q.crc);
    std::memcpy(&q.kd, p.kd.data() + i, sizeof q.kd);
    std::memcpy(&q.ks, p.ks.data() + i, sizeof q.ks);
    std::memcpy(&f8, p.flags.data() + i, sizeof f8);
    q.flags = __builtin_convertvector(f8, u32x4);
    // Lanes at or past `hi` read a neighbour's (or padding) elements.
    q.valid = i32x4{0, 1, 2, 3} < static_cast<std::int32_t>(end - i);
    return q;
  };

  // Node j's entries of a level array, by lane.
  const auto node = [&](const auto& v, std::uint32_t j) {
    return by_lane<L>([&](unsigned l) { return v[j * L + l]; });
  };
  // A suffix is identical with some node iff it has a flag of the OR of
  // the nodes' ident masks in its lane, so the identity test is made
  // once per quad.
  u32x4 ident{};
  for (std::uint32_t j = first; j < first + count; ++j)
    ident |= node(level.flags, j);
  constexpr unsigned kAll = (1u << L) - 1;
  unsigned hit = 0;  // bit l: pair l hit
  for (std::uint32_t i = lo * L; i < end && hit != kAll; i += kLanes) {
    const Quad q = quad(i);
    i32x4 h = (q.flags & ident) != 0;
    for (std::uint32_t j = first; j < first + count; ++j)
      h |= (q.tr == node(level.tr, j)) | (q.crc == node(level.crc, j)) |
           (q.kd == node(level.kd, j)) | (q.ks == node(level.ks, j));
    h &= q.valid;
    // Lanes j and j + L are one pair's: fold them, one bit per pair.
    if constexpr (L <= 2) h |= __builtin_shufflevector(h, h, 2, 3, 0, 1);
    if constexpr (L == 1) h |= __builtin_shufflevector(h, h, 1, 0, 3, 2);
    for (unsigned l = 0; l < L; ++l) hit |= (h[l] != 0 ? 1u : 0u) << l;
  }
  SpliceStats& st = *g.st;
  if (const unsigned quiet = L - std::popcount(hit); quiet != 0) {
    const std::uint64_t n = std::uint64_t{hi - lo} * quiet * count;
    st.remaining += n;
    st.fail_changed += n;
    st.remaining_by_k[k] += n;
    st.remaining_with_hdr2 += std::uint64_t{hdr2} * quiet * count;
  }
  if (hit == 0) return;
  if constexpr (L > 1) {
    DfsScratch& w = dfs_scratch;
    for (unsigned l = 0; l < L; ++l) {
      if ((hit >> l & 1) == 0) continue;
      copy_lane<L>(p, lo, hi - lo, l, w.lane_suffixes);
      copy_lane<L>(level, first, count, l, w.lane_nodes);
      for (std::uint32_t j = 0; j < count; ++j)
        join<1>(g, w.lane_suffixes, 0, hi - lo, hdr2, w.lane_nodes, j, 1, k);
    }
    return;
  }
  if (count > 1) {
    for (std::uint32_t j = first; j < first + count; ++j)
      join<1>(g, p, lo, hi, hdr2, level, j, 1, k);
    return;
  }

  // Per-lane counts: a true lane is -1, so subtracting a mask counts it.
  enum { kSame, kSameT, kChanged, kChangedT, kCrc, kCrcT, kKd, kKs, kHdr,
         kHdrT, kCounts };
  i32x4 n[kCounts] = {};
  const u32x4 tr = node(level.tr, first), crc = node(level.crc, first),
              kd = node(level.kd, first), ks = node(level.ks, first);
  for (std::uint32_t i = lo * L; i < end; i += kLanes) {
    const Quad q = quad(i);
    const i32x4 is_tr = q.tr == tr;
    const i32x4 same = ((q.flags & ident) != 0) & q.valid;
    const i32x4 changed = q.valid & ~same;
    const i32x4 is_crc = changed & (q.crc == crc);
    const i32x4 hdr = changed & ((q.flags & kHdr2) != 0);
    n[kSame] -= same;
    n[kSameT] -= same & is_tr;
    n[kChanged] -= changed;
    n[kChangedT] -= changed & is_tr;
    n[kCrc] -= is_crc;
    n[kCrcT] -= is_crc & is_tr;
    n[kKd] -= changed & (q.kd == kd);
    n[kKs] -= changed & (q.ks == ks);
    n[kHdr] -= hdr;
    n[kHdrT] -= hdr & is_tr;
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
  st.remaining_by_k[k] += changed;
  st.missed_by_k[k] += changed_t;
  st.remaining_with_hdr2 += total(kHdr);
  st.missed_with_hdr2 += total(kHdrT);
}

/// Packets whose suffix pool stays comfortably small (2^14 combos per
/// pair, under 1.2 MiB of thread-local scratch for four pairs). Larger
/// packets — none exist under the default MTUs — take the regrown path.
constexpr unsigned kMaxPooledSuffixCells = 14;

/// Phase 2: pool every way p2's non-EOM cells can fill the LAST r
/// splice positions, bucket r in slots [begin[r], begin[r+1]). Bucket r
/// is ordered by smallest kept index, descending, so the r-subsets cell
/// idx can extend (those above it) are its first C(e2-1-idx, r)
/// entries. Bucket r+1 is those ranges, each plus cell idx at distance
/// r, appended for idx descending — which keeps the order. Its last
/// range, idx = 0, holds the C(e2-1, r) entries with p2's header.
template <unsigned L>
void build_pool(const DfsGroup& g, ResidueSoA& pool,
                std::array<std::uint32_t, kMaxPooledSuffixCells + 1>& begin) {
  const unsigned e2 = g.e2;
  begin[0] = 0;
  for (unsigned r = 0; r < e2; ++r) begin[r + 1] = begin[r] + kBinom[e2][r];
  pool.reserve_slots(begin[e2] * L);
  for (unsigned l = 0; l < L; ++l)
    pool.put(l, Residues{}, kEq1 | kEq2);  // bucket 0: only p2's EOM
  for (unsigned r = 0; r + 1 < e2; ++r) {
    const unsigned pos = e2 - 1 - r;
    std::uint32_t at = begin[r + 1];
    for (unsigned idx = pos + 1; idx-- > 0;) {
      const std::uint32_t n = kBinom[e2 - 1 - idx][r];
      extend<L>(g, pool, at * L, pool, begin[r] * L, n * L, *g.t2,
                idx * e2 + pos, idx == 0 ? kHdr2 : 0);
      at += n;
    }
  }
}

/// Suffixes the regrown path stages before joining them: one chunk.
constexpr std::uint32_t kExactChunk = 64;

/// The regrown path, for packets too large to pool (2^e2 combos), one
/// pair at a time (L = 1): for one phase-1 node (node `node` of
/// `level`), regrow the k2-subsets of p2's cells depth-first in
/// descending index order from the same term table — depth r's subset
/// lives in slot r of `stack` — and stage each complete one in
/// `stage`, joined a chunk at a time.
class Regrow {
 public:
  Regrow(const DfsGroup& g, ResidueSoA& stack, ResidueSoA& stage,
         const ResidueSoA& level, std::uint32_t node, std::size_t k,
         unsigned need)
      : g_(g),
        stack_(stack),
        stage_(stage),
        level_(level),
        node_(node),
        k_(k),
        need_(need) {}

  void run() {
    if (need_ == 0) {
      stage_.put(staged_++, Residues{}, kEq1 | kEq2);
    } else {
      grow(static_cast<int>(g_.e2) - 1, 0);
    }
    flush();
  }

 private:
  void grow(int from, unsigned r) {
    const unsigned pos = g_.e2 - 1 - r;
    // idx+1 cells remain available below `idx`; prune branches that
    // cannot reach `need`.
    for (int idx = from; idx + 1 >= static_cast<int>(need_ - r); --idx) {
      const std::uint32_t ix = static_cast<unsigned>(idx) * g_.e2 + pos;
      const std::uint8_t set = idx == 0 ? kHdr2 : 0;
#ifndef OBS_DISABLE
      ++*g_.dfs_nodes;  // cold path: counted per edge
#endif
      if (r + 1 < need_) {
        extend<1>(g_, stack_, r + 1, stack_, r, 1, *g_.t2, ix, set);
        grow(idx - 1, r + 1);
        continue;
      }
      extend<1>(g_, stage_, staged_++, stack_, r, 1, *g_.t2, ix, set);
      hdr2_ += idx == 0 ? 1 : 0;
      if (staged_ == kExactChunk) flush();
    }
  }

  void flush() {
    join<1>(g_, stage_, 0, staged_, hdr2_, level_, node_, 1, k_);
    staged_ = hdr2_ = 0;
  }

  const DfsGroup& g_;
  ResidueSoA& stack_;
  ResidueSoA& stage_;
  const ResidueSoA& level_;
  const std::uint32_t node_;
  const std::size_t k_;
  const unsigned need_;
  std::uint32_t staged_ = 0, hdr2_ = 0;
};

/// Phase 1, level by level: level t holds p1's t-subsets of cells
/// 1..e1-1 (the nodes with k1 = t+1), each joined against the suffixes
/// with k2 = e2 - k1, kJoinBlock nodes at a time. Level 0, the root,
/// is in w.level on entry. Level t is ordered by largest kept index,
/// ascending, so the nodes cell idx extends (those below it) are its
/// first C(idx-1, t); level t+1 is those ranges, each plus cell idx at
/// position t+1, appended for idx ascending.
template <unsigned L>
void walk_levels(const DfsGroup& g, bool pooled, DfsScratch& w) {
  std::array<std::uint32_t, kMaxPooledSuffixCells + 1> begin{};
  if (pooled) {
    build_pool<L>(g, w.pool, begin);
#ifndef OBS_DISABLE
    // Every pool entry past the seeded k2 = 0 one is one grown node.
    *g.dfs_nodes += std::uint64_t{begin[g.e2] - begin[1]} * L;
#endif
  } else {
    w.stack.reserve_slots(g.e2);
    w.stack.put(0, Residues{}, kEq1 | kEq2);
    w.stage.reserve_slots(kExactChunk);
  }
  ResidueSoA* cur = &w.level;
  ResidueSoA* next = &w.next;
  for (unsigned t = 0;; ++t) {
    const unsigned k2 = g.e2 - 1 - t;
    // The splice keeps k2 of p2's non-EOM cells plus its EOM cell.
    const std::size_t k = std::min<std::size_t>(k2 + 1, kMaxTrackedK - 1);
    const std::uint32_t nodes = kBinom[g.e1 - 1][t];
    if (pooled) {
      const std::uint32_t hdr2 = k2 == 0 ? 0 : kBinom[g.e2 - 1][k2 - 1];
      for (std::uint32_t i = 0; i < nodes; i += kJoinBlock)
        join<L>(g, w.pool, begin[k2], begin[k2 + 1], hdr2, *cur, i,
                std::min(kJoinBlock, nodes - i), k);
    } else {  // only at L = 1
      for (std::uint32_t i = 0; i < nodes; ++i)
        Regrow(g, w.stack, w.stage, *cur, i, k, k2).run();
    }
    // A longer prefix would force k2 < 0 or run out of p1's cells.
    if (t + 2 > g.e2 || t + 1 >= g.e1) return;
    next->reserve_slots(kBinom[g.e1 - 1][t + 1] * L);
    std::uint32_t at = 0;
    for (unsigned idx = t + 1; idx < g.e1; ++idx) {
      const std::uint32_t n = kBinom[idx - 1][t];
      extend<L>(g, *next, at * L, *cur, 0, n * L, *g.t1,
                idx * g.e2 + t + 1, 0);
      at += n;
    }
#ifndef OBS_DISABLE
    *g.dfs_nodes += std::uint64_t{at} * L;
#endif
    std::swap(cur, next);
  }
}

/// Grows and joins the DFS of L same-shape pairs (`pairs`, prepared by
/// prepare_pair) as one, pooled or (L = 1 only) regrown.
template <unsigned L>
void run_dfs(DfsPair* pairs, bool pooled, SpliceStats& st,
             std::uint64_t* dfs_nodes) {
  DfsScratch& w = dfs_scratch;
  DfsGroup g;
  g.pair = pairs;
  g.e1 = pairs[0].e1;
  g.e2 = pairs[0].e2;
  g.tr_mod = pairs[0].tr_mod;
  const auto live = [&](bool DfsPair::*family) {
    return by_lane<L>([&](unsigned l) { return pairs[l].*family ? ~0u : 0u; });
  };
  g.kd_live = live(&DfsPair::kd_live);
  g.ks_live = live(&DfsPair::ks_live);
  g.st = &st;
  g.dfs_nodes = dfs_nodes;
  build_group_terms<L>(g, w.t1, w.t2);
  w.level.reserve_slots(L);
  for (unsigned l = 0; l < L; ++l)
    w.level.put(l, pairs[l].need, pairs[l].ident);
  walk_levels<L>(g, pooled, w);
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

PairContext make_pair_context(const net::PacketConfig& cfg,
                              const PacketView& p1, const PacketView& p2,
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

SpliceOutcome splice_outcome(const net::PacketConfig& cfg, const PacketView& p1,
                             const PacketView& p2,
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
  const auto datagram_equal = [&](const PacketView& p) {
    if (p->total_len != len) return false;
    const util::ByteView a(bytes.data(), len);
    const util::ByteView b = p.pdu.first(len);
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
  out.koopman_dual_pass = alg::kern::koopman_dual(kcov) == p2->kd_pdu;
  out.koopman_single_pass = alg::kern::koopman_single(kcov) == p2->ks_pdu;
  return out;
}

}  // namespace

SpliceOutcome evaluate_splice_reference(const net::PacketConfig& cfg,
                                        const SimPacket& p1,
                                        const SimPacket& p2,
                                        const atm::SpliceSpec& splice) {
  return splice_outcome(cfg, p1.view(), p2.view(), splice);
}

void SpliceStats::merge(const SpliceStats& o) {
  for_each_splice_counter([](std::uint64_t& a, std::uint64_t b) { a += b; },
                          *this, o);
}

namespace {

/// Everything of evaluate_pair but the DFS: counts the pair, its
/// splices, the subtrees its header gate bulk-counts and the slow path.
/// Returns true, with `fs` holding the pair's DFS constants and root,
/// when the DFS subtree of p1's header cell is left to evaluate.
bool prepare_pair(const net::PacketConfig& cfg, const PacketView& p1,
                  const PacketView& p2, SpliceStats& stats, DfsPair& fs) {
  ++stats.pairs;
  const std::size_t n1 = p1.cells.size();
  const std::size_t n2 = p2.cells.size();
  if (n1 < 2 || n2 < 1) return false;

  const ShapeCounts& counts = shape_counts(n1, n2);
  const std::uint64_t total_pair = counts.total;
  if (total_pair == 0) return false;
  stats.total += total_pair;

  std::vector<std::uint8_t> hdr_scratch;
  const PairContext ctx = make_pair_context(cfg, p1, p2, hdr_scratch);

  if (!p2->fast_path_ok) {
    atm::for_each_splice(
        n1, n2, [&](const atm::SpliceSpec& s) { eval_slow(ctx, s, stats); });
    return false;
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
  if (!ctx.hdr_ok[0]) return false;  // the whole DFS subtree was bulk-counted

  fs.c1 = p1.cells.data();
  fs.c2 = p2.cells.data();
  fs.e1 = static_cast<unsigned>(e1);
  fs.e2 = static_cast<unsigned>(n2 - 1);
  fs.eom_len = p2->tp.eom_len;
  const bool fletcher = cfg.transport != alg::Algorithm::kInternet;
  fs.tr_mod = !fletcher ? 65535 : ctx.mod255 ? 255 : 256;
  // Targets are p2's whole-PDU values — the splice carries p2's
  // trailer — and a Koopman target outside its ring is never met.
  constexpr std::uint64_t kd_mod = alg::kKoopmanDualMod;
  constexpr std::uint64_t ks_mod = alg::kKoopmanSingleMod;
  fs.kd_live = p2->kd_pdu.a < kd_mod && p2->kd_pdu.b < kd_mod;
  fs.ks_live = p2->ks_pdu < ks_mod;

  // The root node needs target - const from the suffix, the pair
  // constants being p1's mandatory first cell at position 0 and p2's
  // EOM cell.
  Residues& need = fs.need;
  if (!fletcher) {
    // The content sum's residue mod 65535 that passes: the stored
    // field itself, or its negation when the field holds the
    // complement. Canonicalising first keeps the ones-complement ±0
    // exact.
    const std::uint16_t stored_canon = alg::ones_canonical(
        ctx.header_placement ? p1->tp.stored : p2->tp.stored);
    const std::uint32_t inet_target =
        cfg.invert_checksum ? (65535u - stored_canon) % 65535u : stored_canon;
    need.tr =
        mod_sub<65535>(inet_target, static_cast<std::uint64_t>(
                                        p1->tp.head_sum) + p2->tp.eom_sum);
  } else {
    const alg::FletcherPair& hf =
        ctx.mod255 ? p1->tp.head_f255 : p1->tp.head_f256;
    const alg::FletcherPair& ef =
        ctx.mod255 ? p2->tp.eom_f255 : p2->tp.eom_f256;
    const std::uint64_t a = static_cast<std::uint64_t>(hf.a) + ef.a;
    const std::uint64_t b =
        static_cast<std::uint64_t>(hf.b) + ef.b +
        (static_cast<std::uint64_t>(atm::kCellPayload) * (fs.e2 - 1) +
         fs.eom_len) *
            hf.a;
    need.tr = ctx.mod255 ? mod_sub<255>(0, a) | mod_sub<255>(0, b) << 16
                         : mod_sub<256>(0, a) | mod_sub<256>(0, b) << 16;
  }
  need.crc = p2->stored_crc ^ p2->crc_head44 ^
             suffix_comb(fs.e2 - 1).advance(p1.cells[0].crc);
  // Koopman constants: p1's mandatory first cell (6*e2 blocks follow
  // it) plus p2's EOM fragment (nothing follows).
  if (fs.kd_live) {
    const std::uint64_t a = p1.cells[0].kd.a + p2->eom_kd.a;
    const std::uint64_t b =
        static_cast<std::uint64_t>(p1.cells[0].kd.b) +
        kKoopmanBlocksPerCell * static_cast<std::uint64_t>(fs.e2) *
            p1.cells[0].kd.a +
        p2->eom_kd.b;
    need.kd = mod_sub<kd_mod>(p2->kd_pdu.a, a) |
              mod_sub<kd_mod>(p2->kd_pdu.b, b) << 16;
  } else {
    need.kd = kNeverMatches;
  }
  need.ks = fs.ks_live
                ? mod_sub<ks_mod>(p2->ks_pdu, p1.cells[0].ks + p2->eom_ks)
                : kNeverMatches;
  const bool ident1_base = n1 == n2 && p2->eom_cov_hash == p1->eom_cov_hash;
  const bool ident2_head = p1.cells[0].hash == p2.cells[0].hash;
  fs.ident = static_cast<std::uint8_t>((ident1_base ? kEq1 : 0) |
                                       (ident2_head ? kEq2 : 0));
  return true;
}

}  // namespace

void evaluate_pair(const net::PacketConfig& cfg, const SimPacket& p1,
                   const SimPacket& p2, SpliceStats& stats) {
  SpliceObsFlush obs_flush(stats);
  DfsPair fs;
  if (prepare_pair(cfg, p1.view(), p2.view(), stats, fs))
    run_dfs<1>(&fs, fs.e2 <= kMaxPooledSuffixCells, stats,
               &obs_flush.dfs_nodes);
}

void evaluate_pair_unpooled(const net::PacketConfig& cfg, const SimPacket& p1,
                            const SimPacket& p2, SpliceStats& stats) {
  SpliceObsFlush obs_flush(stats);
  DfsPair fs;
  if (prepare_pair(cfg, p1.view(), p2.view(), stats, fs))
    run_dfs<1>(&fs, false, stats, &obs_flush.dfs_nodes);
}

namespace {

/// Adjacent pairs a run evaluates per telemetry flush, and per unit of
/// work stealing in a threaded run.
constexpr std::size_t kPairChunk = 8;

/// The adjacent pairs (pkts[j], pkts[j+1]) for j in [lo, hi), at most
/// kPairChunk, into `st`, their telemetry flushed once. The pooled
/// pairs that reach the DFS are queued, and each run of one shape in
/// the queue is grown in groups of kLanes, then 2, then 1 pairs: a
/// group is only ever as wide as the pairs it has.
void evaluate_chunk(const net::PacketConfig& cfg,
                    std::span<const PacketView> pkts, std::size_t lo,
                    std::size_t hi, SpliceStats& st) {
  SpliceObsFlush obs_flush(st);
  std::array<DfsPair, kPairChunk> queue;
  std::size_t queued = 0;
  for (std::size_t j = lo; j < hi; ++j) {
    DfsPair& fs = queue[queued];
    if (!prepare_pair(cfg, pkts[j], pkts[j + 1], st, fs)) continue;
    if (fs.e2 <= kMaxPooledSuffixCells) {
      ++queued;
    } else {
      run_dfs<1>(&fs, false, st, &obs_flush.dfs_nodes);
    }
  }
  for (std::size_t a = 0; a < queued;) {
    std::size_t run = 1;
    while (a + run < queued && queue[a + run].e1 == queue[a].e1 &&
           queue[a + run].e2 == queue[a].e2)
      ++run;
    const std::size_t L = run >= kLanes ? kLanes : run >= 2 ? 2 : 1;
    (L == kLanes ? run_dfs<kLanes> : L == 2 ? run_dfs<2> : run_dfs<1>)(
        &queue[a], true, st, &obs_flush.dfs_nodes);
    a += L;
  }
}

/// One file's packets as a run holds them: the views it evaluates, and
/// the packets they point into when the loader packetised them (a
/// corpus store's views point into its mapping). Moving it keeps every
/// view valid.
struct FilePackets {
  std::vector<SimPacket> owned;
  std::vector<PacketView> views;
};

/// Compress (optionally) and packetize one file — shared by the
/// sequential and work-stealing paths.
FilePackets prepare_file(const SpliceRunConfig& cfg, util::ByteView file) {
  obs::ScopedTimer timer(smx().packetize_ns);
  util::Bytes compressed;
  if (cfg.compress_files) {
    compressed = compress::lzw_compress(file);
    file = util::ByteView(compressed);
  }
  FilePackets f{packetize_file(cfg.flow, file), {}};
  f.views.reserve(f.owned.size());
  for (const SimPacket& p : f.owned) f.views.push_back(p.view());
  return f;
}

/// One whole file into `st`: count it and its packets, then evaluate
/// every adjacent pair, a chunk at a time — shared by run_file and the
/// sequential path.
void splice_file(const SpliceRunConfig& cfg, std::span<const PacketView> pkts,
                 SpliceStats& st) {
  st.files += 1;
  st.packets += pkts.size();
  const SpliceMetrics& mx = smx();
  mx.files.add(1);
  mx.packets.add(pkts.size());
  const std::size_t pairs = pkts.empty() ? 0 : pkts.size() - 1;
  for (std::size_t lo = 0; lo < pairs; lo += kPairChunk)
    evaluate_chunk(cfg.flow.packet, pkts, lo,
                   std::min(lo + kPairChunk, pairs), st);
}

}  // namespace

void register_splice_metrics() { (void)smx(); }

SpliceStats run_file(const SpliceRunConfig& cfg, util::ByteView file) {
  SpliceStats st;
  splice_file(cfg, prepare_file(cfg, file).views, st);
  return st;
}

SpliceStats run_filesystem(const SpliceRunConfig& cfg,
                           const fsgen::Filesystem& fs) {
  return run_bytes_range(
      cfg, [&](std::size_t i) { return std::optional(fs.file(i)); }, 0,
      fs.file_count());
}

namespace {

/// The scheduler behind every corpus source. `load(i)` produces file
/// i's FilePackets — by packetising its bytes (generated for a fsgen
/// source, read for a directory), as views into the mapping for a
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
      if (const std::optional<FilePackets> pkts = load(i))
        splice_file(cfg, pkts->views, st);
    return st;
  }

  // Pair-granular work stealing: whichever worker claims a file
  // loads it once, then its adjacent-pair range is carved into
  // fixed chunks that any idle worker can steal, so one large file no
  // longer serialises the run.
  struct FileWork {
    FilePackets pkts;
    std::atomic<std::size_t> next_pair{0};
    std::size_t pair_count = 0;
    unsigned owner = 0;  ///< worker that packetized it (steal counting)
  };

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
          evaluate_chunk(cfg.flow.packet, fw->pkts.views, lo, hi, st);
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
        if (std::optional<FilePackets> pkts = load(i)) {
          auto work = std::make_shared<FileWork>();
          work->pkts = std::move(*pkts);
          work->owner = t;
          const std::size_t n = work->pkts.views.size();
          st.files += 1;
          st.packets += n;
          mx.sched_files.add(1);
          mx.files.add(1);
          mx.packets.add(n);
          if (n >= 2) {
            work->pair_count = n - 1;
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

SpliceStats run_bytes_range(const SpliceRunConfig& cfg,
                            const FileBytes& file_bytes, std::size_t begin,
                            std::size_t end) {
  return run_range_impl(
      cfg,
      [&](std::size_t i) -> std::optional<FilePackets> {
        const std::optional<util::Bytes> file = file_bytes(i);
        if (!file) return std::nullopt;
        return prepare_file(cfg, util::ByteView(*file));
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
  // asking for the pages up front overlaps I/O with evaluation.
  corpus.advise_will_need(begin, end);
  return run_range_impl(
      cfg,
      [&](std::size_t i) {
        // Taking the views lands in the same timing histogram as
        // packetisation so the two sources are directly comparable in
        // exported manifests.
        obs::ScopedTimer timer(smx().packetize_ns);
        return std::optional(FilePackets{{}, corpus.file_views(i)});
      },
      begin, end);
}

}  // namespace cksum::core
