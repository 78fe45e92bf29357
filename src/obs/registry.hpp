// Process-wide telemetry: named counters, gauges, and fixed-bucket
// histograms behind per-thread shards.
//
// The hot path is one relaxed fetch_add on a slot of the calling
// thread's own shard — no locks, no cross-core contention, no ordering
// beyond the increment itself. Aggregation happens only at snapshot
// time: a Snapshot sums every shard's slots, so counter totals are
// exact and independent of when (or how often) snapshots are taken.
// All merges are plain additions, which makes them associative and
// commutative — the property the multi-thread tests pin down.
//
// Metric kinds:
//   Counter    monotonic event count (add)
//   Gauge      additive up/down value (add/sub); the net across all
//              shards is the reading, so concurrent inc/dec pairs from
//              different threads cancel exactly
//   Histogram  power-of-two bucketed value distribution (observe),
//              with total sample count and sum
//
// Every metric carries a Tag describing its determinism contract:
// kDeterministic values must be bitwise identical for a given corpus
// and configuration regardless of thread count; kScheduling and
// kTiming values may vary run to run and are excluded from the
// determinism tests (and from any diff-based tooling) by tag.
//
// Compiling with -DOBS_DISABLE turns every registration and recording
// call into a no-op (handles hold a null registry and the inline hot
// path folds away), so the telemetry build can be benchmarked against
// a telemetry-free build of the same sources (docs/OBSERVABILITY.md
// records the measured overhead).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cksum::obs {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Determinism contract of a metric (see file comment).
enum class Tag : std::uint8_t { kDeterministic, kScheduling, kTiming };

std::string_view name(Kind k) noexcept;
std::string_view name(Tag t) noexcept;

/// Histogram buckets: bucket i counts samples in [2^i, 2^(i+1)), with
/// 0 folded into bucket 0 and everything >= 2^31 clamped to the last.
inline constexpr std::size_t kHistogramBuckets = 32;

/// Slot budget per shard. Counters and gauges take one slot,
/// histograms kHistogramBuckets + 1; registrations past the budget
/// return inert handles instead of failing the caller.
inline constexpr std::size_t kMaxSlots = 1024;

/// One aggregated metric as seen by a Snapshot.
struct MetricValue {
  std::string name;
  Kind kind = Kind::kCounter;
  Tag tag = Tag::kDeterministic;
  std::uint64_t value = 0;  ///< counter total, or histogram sample count
  std::int64_t gauge = 0;   ///< gauge net value
  std::uint64_t sum = 0;    ///< histogram sample sum
  std::vector<std::uint64_t> buckets;  ///< histogram buckets (else empty)

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
};

/// Point-in-time aggregation over all shards, in registration order.
struct Snapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* find(std::string_view metric_name) const noexcept;
  /// The named metric's value, or 0 when it is absent.
  std::uint64_t value(std::string_view metric_name) const noexcept;
};

class Registry;

/// An external accumulator merged additively into snapshots. Some hot
/// paths batch counts in their own thread-local cells instead of
/// paying a registry slot_add per event (the kernel dispatch counters
/// do this); a snapshot source is how those cells still appear in
/// every Snapshot. `collect` returns (metric name, absolute total)
/// pairs, each added onto the like-named counter's summed value —
/// totals must be monotone so snapshot timing stays irrelevant, and
/// names must already be registered (unknown names are ignored).
/// `reset` must re-baseline the source so subsequent collects start
/// from zero again; Registry::reset() invokes it.
struct SnapshotSource {
  std::vector<std::pair<std::string, std::uint64_t>> (*collect)() = nullptr;
  void (*reset)() = nullptr;
};

/// Monotonic event counter. Default-constructed (or budget-overflow)
/// handles are inert.
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t n = 1) const noexcept;

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Additive up/down value (e.g. queue depth).
class Gauge {
 public:
  Gauge() = default;
  inline void add(std::int64_t delta) const noexcept;
  void sub(std::int64_t delta) const noexcept { add(-delta); }

 private:
  friend class Registry;
  Gauge(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Power-of-two bucketed distribution.
class Histogram {
 public:
  Histogram() = default;
  inline void observe(std::uint64_t value) const noexcept;

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

class Registry {
 public:
  Registry();
  ~Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every subsystem records into.
  static Registry& global();

  /// Register (or look up — registration is idempotent by name) a
  /// metric. A name registered with a different kind, or past the slot
  /// budget, yields an inert handle.
  Counter counter(std::string_view metric_name,
                  Tag tag = Tag::kDeterministic);
  Gauge gauge(std::string_view metric_name, Tag tag = Tag::kScheduling);
  Histogram histogram(std::string_view metric_name, Tag tag = Tag::kTiming);

  /// Aggregate every metric across every shard. Safe to call while
  /// other threads record; counters already summed are exact, and the
  /// result is independent of snapshot timing relative to other
  /// snapshots (sums are monotone and associative).
  Snapshot snapshot() const;

  /// Zero every slot of every shard and re-baseline every snapshot
  /// source. Metric definitions and handles stay valid. Test-only:
  /// callers must quiesce recording threads.
  void reset() noexcept;

  /// Register an external accumulator whose totals merge into every
  /// subsequent snapshot (see SnapshotSource). Registration is
  /// append-only and idempotence is the caller's problem: register
  /// once, from a once-guarded init path. `collect`/`reset` are
  /// invoked outside the registry lock and may not call back into
  /// metric registration.
  void add_snapshot_source(SnapshotSource source);

  /// Hot path: relaxed add into this thread's shard. Each slot has a
  /// single writer — the shard's owning thread (reset() is test-only
  /// and requires quiesced recorders) — so a relaxed load+store add is
  /// exact and skips the lock-prefixed read-modify-write.
  void slot_add(std::uint32_t slot, std::uint64_t delta) {
    std::atomic<std::uint64_t>& s = shard().slots[slot];
    s.store(s.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

 private:
  struct MetricDef {
    std::string name;
    Kind kind;
    Tag tag;
    std::uint32_t slot;
    std::uint32_t nslots;
  };
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxSlots> slots{};
  };
  /// One-entry per-thread cache of the most recently used registry's
  /// shard. Constant-initialized POD, so the inline fast path is a TLS
  /// load plus two compares — no init guard, no function call. The id
  /// check keeps a stale entry from matching a new registry that
  /// reused the address of a destroyed one.
  struct ShardCache {
    std::uint64_t id;
    const Registry* reg;
    Shard* shard;
  };
  static thread_local ShardCache tls_shard_;

  /// This thread's shard of this registry, created on first use and
  /// owned by the registry (shards outlive their threads so exited
  /// workers keep contributing to snapshots).
  Shard& shard() {
    if (tls_shard_.reg == this && tls_shard_.id == id_)
      return *tls_shard_.shard;
    return shard_slow();
  }
  Shard& shard_slow();
  std::uint32_t alloc(std::string_view metric_name, Kind kind, Tag tag,
                      std::uint32_t nslots, bool& ok);

  const std::uint64_t id_;  ///< distinguishes registries in shard caches
  mutable std::mutex mu_;   ///< guards defs_, shards_, and sources_
  std::vector<MetricDef> defs_;
  std::uint32_t next_slot_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<SnapshotSource> sources_;
};

inline void Counter::add(std::uint64_t n) const noexcept {
#ifndef OBS_DISABLE
  if (reg_ != nullptr) reg_->slot_add(slot_, n);
#else
  (void)n;
#endif
}

inline void Gauge::add(std::int64_t delta) const noexcept {
#ifndef OBS_DISABLE
  // Two's-complement wrap: per-shard sums may transiently "underflow",
  // but the total across shards re-wraps to the true net value.
  if (reg_ != nullptr) reg_->slot_add(slot_, static_cast<std::uint64_t>(delta));
#else
  (void)delta;
#endif
}

inline void Histogram::observe(std::uint64_t value) const noexcept {
#ifndef OBS_DISABLE
  if (reg_ == nullptr) return;
  const unsigned bucket =
      value == 0
          ? 0u
          : std::min<unsigned>(static_cast<unsigned>(std::bit_width(value)) - 1,
                               kHistogramBuckets - 1);
  reg_->slot_add(slot_, value);               // sample sum
  reg_->slot_add(slot_ + 1 + bucket, 1);      // bucket count
#else
  (void)value;
#endif
}

}  // namespace cksum::obs
