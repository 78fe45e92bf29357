#include "obs/registry.hpp"

#include <algorithm>

namespace cksum::obs {

std::string_view name(Kind k) noexcept {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

std::string_view name(Tag t) noexcept {
  switch (t) {
    case Tag::kDeterministic: return "deterministic";
    case Tag::kScheduling: return "scheduling";
    case Tag::kTiming: return "timing";
  }
  return "?";
}

const MetricValue* Snapshot::find(std::string_view metric_name) const noexcept {
  for (const MetricValue& m : metrics)
    if (m.name == metric_name) return &m;
  return nullptr;
}

std::uint64_t Snapshot::value(std::string_view metric_name) const noexcept {
  const MetricValue* m = find(metric_name);
  return m != nullptr ? m->value : 0;
}

namespace {
std::atomic<std::uint64_t> g_registry_serial{1};
}  // namespace

Registry::Registry() : id_(g_registry_serial.fetch_add(1)) {}

Registry& Registry::global() {
  static Registry r;
  return r;
}

thread_local Registry::ShardCache Registry::tls_shard_{0, nullptr, nullptr};

Registry::Shard& Registry::shard_slow() {
  // Full per-thread cache of (registry id -> shard), behind the
  // one-entry inline fast path (only tests touch several registries
  // from one thread, so the scan is cold).
  struct CacheEntry {
    std::uint64_t id;
    Registry* reg;
    Shard* shard;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.reg == this && e.id == id_) {
      tls_shard_ = {id_, this, e.shard};
      return *e.shard;
    }
  }
  auto owned = std::make_unique<Shard>();
  Shard* raw = owned.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(owned));
  }
  cache.push_back({id_, this, raw});
  tls_shard_ = {id_, this, raw};
  return *raw;
}

std::uint32_t Registry::alloc(std::string_view metric_name, Kind kind, Tag tag,
                              std::uint32_t nslots, bool& ok) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const MetricDef& d : defs_) {
    if (d.name == metric_name) {
      ok = d.kind == kind;  // same-name/other-kind clash -> inert handle
      return d.slot;
    }
  }
  if (next_slot_ + nslots > kMaxSlots) {
    ok = false;
    return 0;
  }
  const std::uint32_t slot = next_slot_;
  defs_.push_back({std::string(metric_name), kind, tag, slot, nslots});
  next_slot_ += nslots;
  ok = true;
  return slot;
}

Counter Registry::counter(std::string_view metric_name, Tag tag) {
#ifndef OBS_DISABLE
  bool ok = false;
  const std::uint32_t slot = alloc(metric_name, Kind::kCounter, tag, 1, ok);
  if (ok) return Counter(this, slot);
#else
  (void)metric_name;
  (void)tag;
#endif
  return {};
}

Gauge Registry::gauge(std::string_view metric_name, Tag tag) {
#ifndef OBS_DISABLE
  bool ok = false;
  const std::uint32_t slot = alloc(metric_name, Kind::kGauge, tag, 1, ok);
  if (ok) return Gauge(this, slot);
#else
  (void)metric_name;
  (void)tag;
#endif
  return {};
}

Histogram Registry::histogram(std::string_view metric_name, Tag tag) {
#ifndef OBS_DISABLE
  bool ok = false;
  const std::uint32_t slot = alloc(metric_name, Kind::kHistogram, tag,
                                   1 + kHistogramBuckets, ok);
  if (ok) return Histogram(this, slot);
#else
  (void)metric_name;
  (void)tag;
#endif
  return {};
}

Snapshot Registry::snapshot() const {
  // Collect external contributions before taking the lock: collect
  // callbacks own their own synchronisation and must stay free to
  // touch this registry-adjacent state without ordering against mu_.
  std::vector<SnapshotSource> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources = sources_;
  }
  std::vector<std::pair<std::string, std::uint64_t>> extra;
  for (const SnapshotSource& s : sources) {
    auto part = s.collect();
    extra.insert(extra.end(), part.begin(), part.end());
  }
  Snapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  out.metrics.reserve(defs_.size());
  const auto sum_slot = [&](std::uint32_t slot) {
    std::uint64_t total = 0;
    for (const auto& sh : shards_)
      total += sh->slots[slot].load(std::memory_order_relaxed);
    return total;
  };
  for (const MetricDef& d : defs_) {
    MetricValue v;
    v.name = d.name;
    v.kind = d.kind;
    v.tag = d.tag;
    switch (d.kind) {
      case Kind::kCounter:
        v.value = sum_slot(d.slot);
        for (const auto& [extra_name, extra_value] : extra)
          if (extra_name == d.name) v.value += extra_value;
        break;
      case Kind::kGauge:
        v.gauge = static_cast<std::int64_t>(sum_slot(d.slot));
        break;
      case Kind::kHistogram:
        v.sum = sum_slot(d.slot);
        v.buckets.resize(kHistogramBuckets);
        for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
          v.buckets[i] = sum_slot(d.slot + 1 + static_cast<std::uint32_t>(i));
          v.value += v.buckets[i];
        }
        break;
    }
    out.metrics.push_back(std::move(v));
  }
  return out;
}

void Registry::reset() noexcept {
  std::vector<SnapshotSource> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& sh : shards_)
      for (auto& slot : sh->slots) slot.store(0, std::memory_order_relaxed);
    sources = sources_;
  }
  for (const SnapshotSource& s : sources) s.reset();
}

void Registry::add_snapshot_source(SnapshotSource source) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.push_back(source);
}

}  // namespace cksum::obs
