#include "checksum/kernels/kernel.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "checksum/kernels/impl.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"

namespace cksum::alg::kern {

namespace {

constexpr Impl<InternetFn> kInternet[] = {
    {"scalar", impl::scalar_internet_sum},
    {"slicing", impl::slicing_internet_sum},
    {"swar", impl::swar_internet_sum},
};
constexpr Impl<FletcherFn> kFletcher[] = {
    {"scalar", impl::scalar_fletcher},
    {"slicing", impl::slicing_fletcher},
};
constexpr Impl<Fletcher32Fn> kFletcher32[] = {
    {"scalar", impl::scalar_fletcher32},
    {"slicing", impl::slicing_fletcher32},
};
constexpr Impl<StreamFn> kAdler32[] = {
    {"scalar", impl::scalar_adler32},
    {"slicing", impl::slicing_adler32},
};
constexpr Impl<StreamFn> kCrc32[] = {
    {"scalar", impl::scalar_crc32},
    {"slicing", impl::slicing_crc32},
    {"chorba", impl::chorba_crc32},
    {"clmul", impl::clmul_crc32, impl::clmul_unavailable},
};
constexpr Impl<KoopmanDualFn> kKoopmanDual[] = {
    {"scalar", impl::scalar_koopman_dual},
    {"slicing", impl::slicing_koopman_dual},
};
constexpr Impl<KoopmanSingleFn> kKoopmanSingle[] = {
    {"scalar", impl::scalar_koopman_single},
    {"slicing", impl::slicing_koopman_single},
};

constexpr ImplList<InternetFn> kInternetList{Alg::kInternet, "internet",
                                             kInternet};
constexpr ImplList<FletcherFn> kFletcherList{Alg::kFletcher, "fletcher",
                                             kFletcher};
constexpr ImplList<Fletcher32Fn> kFletcher32List{Alg::kFletcher32,
                                                 "fletcher32", kFletcher32};
constexpr ImplList<StreamFn> kAdler32List{Alg::kAdler32, "adler32", kAdler32};
constexpr ImplList<StreamFn> kCrc32List{Alg::kCrc32, "crc32", kCrc32};
constexpr ImplList<KoopmanDualFn> kKoopmanDualList{
    Alg::kKoopmanDual, "koopmandual", kKoopmanDual};
constexpr ImplList<KoopmanSingleFn> kKoopmanSingleList{
    Alg::kKoopmanSingle, "koopmansingle", kKoopmanSingle};

/// The two selections. Index order is the --kernel spelling order.
enum Selection : int { kBest = 0, kScalar = 1 };
constexpr std::string_view kSelectionNames[] = {"best", "scalar"};

/// Why g_selection holds what it holds — drives
/// kernel_selection_reason() and the manifest "kernel_reason" member.
enum class Source : int {
  kDefaultBest = 0,  ///< nothing asked
  kEnv,              ///< CKSUM_KERNEL named a selection
  kEnvFallback,      ///< CKSUM_KERNEL named something else
  kExplicit,         ///< select_kernel() (--kernel flag) picked it
};

/// Selection; -1 until the first dispatch (or explicit select_kernel)
/// resolves the CKSUM_KERNEL environment variable.
std::atomic<int> g_selection{-1};
std::atomic<int> g_source{static_cast<int>(Source::kDefaultBest)};

/// Per-algorithm list index the selection resolves to; -1 until first
/// use. Caching it keeps the probes (cpuid) off the dispatch path.
std::atomic<int> g_active[kNumAlgs] = {-1, -1, -1, -1, -1, -1, -1};

int selection_of(std::string_view name) noexcept {
  for (int i = 0; i < static_cast<int>(std::size(kSelectionNames)); ++i)
    if (kSelectionNames[i] == name) return i;
  return -1;
}

int resolved_selection() noexcept {
  int sel = g_selection.load(std::memory_order_relaxed);
  if (sel >= 0) return sel;
  const char* env = std::getenv(kKernelEnv);
  Source src = Source::kDefaultBest;
  int want = kBest;
  if (env != nullptr) {
    const int named = selection_of(env);
    src = named >= 0 ? Source::kEnv : Source::kEnvFallback;
    if (named >= 0) want = named;
  }
  // Lost race: another thread resolved first from the same
  // environment, or select_kernel() ran; keep whichever is stored.
  if (g_selection.compare_exchange_strong(sel, want,
                                          std::memory_order_relaxed)) {
    g_source.store(static_cast<int>(src), std::memory_order_relaxed);
    return want;
  }
  return sel;
}

template <typename Fn>
int index_in(const ImplList<Fn>& list, int sel) noexcept {
  const Impl<Fn>& pick = sel == kScalar ? list.scalar() : list.best();
  return static_cast<int>(&pick - list.impls.data());
}

int index_for(Alg alg, int sel) noexcept {
  int idx = 0;
  for_each_list([&](const auto& list) {
    if (list.alg == alg) idx = index_in(list, sel);
  });
  return idx;
}

/// First use of `alg`'s slot: cache the index the selection resolves
/// to. A concurrent select_kernel() may already have stored its own
/// index, which then wins.
int resolve_active(Alg alg) noexcept {
  std::atomic<int>& slot = g_active[static_cast<int>(alg)];
  int expected = -1;
  slot.compare_exchange_strong(expected, index_for(alg, resolved_selection()),
                               std::memory_order_relaxed);
  return slot.load(std::memory_order_relaxed);
}

#ifndef OBS_DISABLE

/// Per-algorithm dispatch counts. Which implementation served a run
/// is a property of its configuration (like thread count), not of the
/// corpus, so the counters are tagged kScheduling and stay out of
/// cross-selection determinism diffs.
///
/// Dispatch itself never touches registry handles: counts accumulate
/// in per-thread PendingShard cells (plain relaxed stores, single
/// writer) and reach snapshots through an obs::SnapshotSource that
/// sums the shards on demand — so a flood of sub-64-byte frames costs
/// two uncontended stores per call, not registry traffic.
struct PendingShard {
  std::atomic<std::uint64_t> calls[kNumAlgs]{};
  std::atomic<std::uint64_t> bytes[kNumAlgs]{};
};

/// Shards outlive their threads (a snapshot may run after a worker
/// exits), so they are heap-allocated and tracked forever, mirroring
/// obs::Registry's own shard list.
struct PendingState {
  std::mutex mu;
  std::vector<PendingShard*> shards;
  /// Totals as of the last Registry::reset(), subtracted on collect
  /// so reset() semantics hold without zeroing live shards.
  std::uint64_t base_calls[kNumAlgs]{};
  std::uint64_t base_bytes[kNumAlgs]{};
};

PendingState& pending_state() {
  static PendingState* s = new PendingState;  // leak: outlives exit order
  return *s;
}

void pending_totals(PendingState& st, std::uint64_t (&calls)[kNumAlgs],
                    std::uint64_t (&bytes)[kNumAlgs]) {
  for (int i = 0; i < kNumAlgs; ++i) {
    calls[i] = 0;
    bytes[i] = 0;
    for (const PendingShard* sh : st.shards) {
      calls[i] += sh->calls[i].load(std::memory_order_relaxed);
      bytes[i] += sh->bytes[i].load(std::memory_order_relaxed);
    }
  }
}

std::string metric_prefix(std::string_view alg) {
  return "kernel." + std::string(alg);
}

std::vector<std::pair<std::string, std::uint64_t>> collect_pending() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(2 * kNumAlgs);
  PendingState& st = pending_state();
  std::lock_guard<std::mutex> lock(st.mu);
  std::uint64_t calls[kNumAlgs], bytes[kNumAlgs];
  pending_totals(st, calls, bytes);
  for_each_list([&](const auto& list) {
    const int i = static_cast<int>(list.alg);
    const std::string prefix = metric_prefix(list.name);
    out.emplace_back(prefix + ".calls", calls[i] - st.base_calls[i]);
    out.emplace_back(prefix + ".bytes", bytes[i] - st.base_bytes[i]);
  });
  return out;
}

/// The 0/1 availability gauge of every list entry.
void set_availability_gauges(obs::Registry& reg) {
  for_each_list([&](const auto& list) {
    for (const auto& entry : list.impls)
      reg.gauge(metric_prefix(list.name) + "." + std::string(entry.name) +
                    ".available",
                obs::Tag::kScheduling)
          .add(entry.available() ? 1 : 0);
  });
}

void reset_pending() {
  {
    PendingState& st = pending_state();
    std::lock_guard<std::mutex> lock(st.mu);
    pending_totals(st, st.base_calls, st.base_bytes);
  }
  // Registry::reset() zeroed every slot, including the availability
  // gauges — re-assert them, since availability is a machine fact
  // that survives a metrics epoch.
  set_availability_gauges(obs::Registry::global());
}

/// Registers the kernel.* families (zero-valued counters so manifests
/// carry the full family, 0/1 availability gauges) and hooks the
/// pending shards into snapshots. Once per process.
void register_families() {
  static const bool once = [] {
    auto& reg = obs::Registry::global();
    for_each_list([&](const auto& list) {
      const std::string prefix = metric_prefix(list.name);
      reg.counter(prefix + ".calls", obs::Tag::kScheduling);
      reg.counter(prefix + ".bytes", obs::Tag::kScheduling);
    });
    set_availability_gauges(reg);
    reg.add_snapshot_source({collect_pending, reset_pending});
    return true;
  }();
  (void)once;
}

PendingShard& pending() {
  thread_local PendingShard* shard = [] {
    register_families();  // keep the lazy family/source registration
    auto* s = new PendingShard();
    PendingState& st = pending_state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.shards.push_back(s);
    return s;
  }();
  return *shard;
}

#endif  // OBS_DISABLE

/// The entry of `list` the selection runs, with the call and its byte
/// count recorded.
template <typename Fn>
const Impl<Fn>& dispatch(const ImplList<Fn>& list,
                         std::size_t bytes) noexcept {
  const int a = static_cast<int>(list.alg);
#ifndef OBS_DISABLE
  PendingShard& sh = pending();
  auto& c = sh.calls[a];
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  auto& b = sh.bytes[a];
  b.store(b.load(std::memory_order_relaxed) + bytes,
          std::memory_order_relaxed);
#else
  (void)bytes;
#endif
  return list.impls[active_index(list.alg)];
}

}  // namespace

const ImplList<InternetFn>& internet_impls() noexcept { return kInternetList; }
const ImplList<FletcherFn>& fletcher_impls() noexcept { return kFletcherList; }
const ImplList<Fletcher32Fn>& fletcher32_impls() noexcept {
  return kFletcher32List;
}
const ImplList<StreamFn>& adler32_impls() noexcept { return kAdler32List; }
const ImplList<StreamFn>& crc32_impls() noexcept { return kCrc32List; }
const ImplList<KoopmanDualFn>& koopman_dual_impls() noexcept {
  return kKoopmanDualList;
}
const ImplList<KoopmanSingleFn>& koopman_single_impls() noexcept {
  return kKoopmanSingleList;
}

std::size_t active_index(Alg alg) noexcept {
  const int idx = g_active[static_cast<int>(alg)].load(
      std::memory_order_relaxed);
  return static_cast<std::size_t>(idx >= 0 ? idx : resolve_active(alg));
}

std::string_view selection_name() noexcept {
  return kSelectionNames[resolved_selection()];
}

bool select_kernel(std::string_view name) noexcept {
  const int sel = selection_of(name);
  if (sel < 0) return false;
  g_selection.store(sel, std::memory_order_relaxed);
  g_source.store(static_cast<int>(Source::kExplicit),
                 std::memory_order_relaxed);
  for (int a = 0; a < kNumAlgs; ++a)
    g_active[a].store(index_for(static_cast<Alg>(a), sel),
                      std::memory_order_relaxed);
  return true;
}

std::string kernel_selection_reason() {
  const int sel = resolved_selection();  // forces the source too
  std::string reason;
  switch (static_cast<Source>(g_source.load(std::memory_order_relaxed))) {
    case Source::kExplicit:
      reason = "explicit selection (--kernel / select_kernel)";
      break;
    case Source::kEnv:
      reason = std::string(kKernelEnv) + " environment selection";
      break;
    case Source::kEnvFallback: {
      const char* env = std::getenv(kKernelEnv);
      reason = std::string(kKernelEnv) + "=" +
               std::string(env != nullptr ? env : "?") +
               " is not a kernel selection; fell back to best";
      break;
    }
    case Source::kDefaultBest:
      reason = "best by default";
      break;
  }
  if (sel == kScalar) return reason + ": scalar reference for every algorithm";
  std::string picks, missing;
  for_each_list([&](const auto& list) {
    picks += (picks.empty() ? "" : ", ") + std::string(list.name) + "=" +
             std::string(list.best().name);
    for (const auto& entry : list.impls)
      if (const char* why = entry.unavailable_reason())
        missing += "; " + std::string(list.name) + "/" +
                   std::string(entry.name) + " unavailable: " + why;
  });
  return reason + ": last available implementation per algorithm (" + picks +
         ")" + missing;
}

std::string kernel_manifest_json() {
  return "\"kernel\": \"" + std::string(selection_name()) +
         "\", \"kernel_reason\": \"" +
         obs::json_escape(kernel_selection_reason()) + "\"";
}

void register_kernel_metrics() {
#ifndef OBS_DISABLE
  register_families();
#endif
}

std::uint16_t internet_sum(util::ByteView data) noexcept {
  return dispatch(kInternetList, data.size()).fn(data);
}

std::uint16_t internet_checksum(util::ByteView data) noexcept {
  return static_cast<std::uint16_t>(~internet_sum(data));
}

FletcherPair fletcher_block(util::ByteView data, FletcherMod mod) noexcept {
  return dispatch(kFletcherList, data.size()).fn(data, mod);
}

Fletcher32Pair fletcher32_block(util::ByteView data) noexcept {
  return dispatch(kFletcher32List, data.size()).fn(data);
}

std::uint32_t adler32(std::uint32_t adler, util::ByteView data) noexcept {
  return dispatch(kAdler32List, data.size()).fn(adler, data);
}

std::uint32_t crc32(std::uint32_t crc, util::ByteView data) noexcept {
  return dispatch(kCrc32List, data.size()).fn(crc, data);
}

KoopmanDualPair koopman_dual(util::ByteView data) noexcept {
  return dispatch(kKoopmanDualList, data.size()).fn(data);
}

std::uint64_t koopman_single(util::ByteView data) noexcept {
  return dispatch(kKoopmanSingleList, data.size()).fn(data);
}

}  // namespace cksum::alg::kern
