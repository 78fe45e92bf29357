// Hardware-speed checksum implementations behind one dispatch switch.
//
// Every algorithm the paper studies has one obviously-correct scalar
// formulation (byte-at-a-time, reduce every step) and one or more
// machine-width formulations that are several-fold faster but easy to
// get subtly wrong: table-slicing CRCs, SWAR ones-complement sums with
// deferred end-around carries, Fletcher/Adler loops with deferred
// modular reduction. Each algorithm keeps one ordered *implementation
// list*: the scalar reference first, then the fast implementations
// that actually differ, each written once:
//
//   internet        scalar, slicing (word-at-a-time, one fold),
//                   swar (64-bit SWAR, deferred end-around carries)
//   crc32           scalar (byte table), slicing (slicing-by-8,
//                   arXiv 1009.5949), chorba (tableless sparse
//                   convolution, arXiv 2412.16398), clmul (PCLMULQDQ /
//                   PMULL folding; only where the hardware has it)
//   fletcher, fletcher32, adler32, koopmandual, koopmansingle
//                   scalar, slicing (blocked, deferred reduction)
//
// An entry may carry an availability probe (clmul without
// carry-less-multiply hardware is listed but unavailable). The process
// runs one of two *selections*: `best`, each algorithm's last available
// entry, or `scalar`, each algorithm's reference. select_kernel() (or
// the CKSUM_KERNEL environment variable, or --kernel on
// cksumlab/faultlab) picks one, so a whole splice run can be re-executed
// on the reference code with one flag. All entries of a list are
// bit-identical — the conformance harness in tests/test_kernels.cpp
// differentially proves it — so results do not depend on the selection.
//
// The dispatched entry points record per-algorithm obs counters
// (`kernel.<alg>.calls` / `kernel.<alg>.bytes`). The counts accumulate
// in plain thread-local cells — two relaxed stores per dispatch,
// nothing shared — and merge into the obs registry only at snapshot
// time via a snapshot source, so sub-64-byte frame floods never contend
// on registry slots. `kernel.<alg>.<impl>.available` gauges (0/1)
// record the availability picture the run saw.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "checksum/fletcher.hpp"
#include "checksum/fletcher32.hpp"
#include "checksum/koopman.hpp"
#include "util/bytes.hpp"

namespace cksum::alg::kern {

/// RFC 1071 ones-complement sum (not inverted), big-endian words.
using InternetFn = std::uint16_t(util::ByteView data) noexcept;
/// 8-bit Fletcher pair, end-weighted within the block.
using FletcherFn = FletcherPair(util::ByteView data, FletcherMod mod) noexcept;
/// 32-bit Fletcher pair (16-bit big-endian words mod 65535).
using Fletcher32Fn = Fletcher32Pair(util::ByteView data) noexcept;
/// Streaming continuation: Adler-32 (pass 1 to start) or CRC-32 over
/// finalised values (pass 0 to start; zlib semantics).
using StreamFn = std::uint32_t(std::uint32_t state,
                               util::ByteView data) noexcept;
/// Koopman large-block dual sum: 64-bit big-endian blocks feeding two
/// Fletcher-style sums mod 65521 (arXiv 2302.13432).
using KoopmanDualFn = KoopmanDualPair(util::ByteView data) noexcept;
/// Koopman large-block single sum: 64-bit blocks mod 2^32 - 5.
using KoopmanSingleFn = std::uint64_t(util::ByteView data) noexcept;

/// The algorithms with an implementation list, in list order.
enum class Alg : int {
  kInternet,
  kFletcher,
  kFletcher32,
  kAdler32,
  kCrc32,
  kKoopmanDual,
  kKoopmanSingle,
};
inline constexpr int kNumAlgs = 7;

/// One implementation of one algorithm.
template <typename Fn>
struct Impl {
  std::string_view name;  ///< "scalar", "slicing", "swar", ...
  Fn* fn = nullptr;
  /// nullptr for implementations that run on any machine; otherwise
  /// returns nullptr when this machine can run it, else a short static
  /// reason it cannot ("CPU lacks carry-less multiply ...").
  const char* (*unavailable)() noexcept = nullptr;

  const char* unavailable_reason() const noexcept {
    return unavailable == nullptr ? nullptr : unavailable();
  }
  bool available() const noexcept { return unavailable_reason() == nullptr; }
};

/// One algorithm's implementation list: the scalar reference first,
/// then the fast implementations in the order `best` prefers them.
template <typename Fn>
struct ImplList {
  Alg alg;
  std::string_view name;  ///< metric/bench key: "internet", "crc32", ...
  std::span<const Impl<Fn>> impls;

  const Impl<Fn>& scalar() const noexcept { return impls.front(); }
  /// The last available entry — what the `best` selection runs.
  const Impl<Fn>& best() const noexcept {
    for (auto it = impls.rbegin(); it != impls.rend(); ++it)
      if (it->available()) return *it;
    return impls.front();
  }
};

const ImplList<InternetFn>& internet_impls() noexcept;
const ImplList<FletcherFn>& fletcher_impls() noexcept;
const ImplList<Fletcher32Fn>& fletcher32_impls() noexcept;
const ImplList<StreamFn>& adler32_impls() noexcept;
const ImplList<StreamFn>& crc32_impls() noexcept;
const ImplList<KoopmanDualFn>& koopman_dual_impls() noexcept;
const ImplList<KoopmanSingleFn>& koopman_single_impls() noexcept;

/// Call f(list) for every implementation list, in Alg order.
template <typename F>
void for_each_list(F&& f) {
  f(internet_impls());
  f(fletcher_impls());
  f(fletcher32_impls());
  f(adler32_impls());
  f(crc32_impls());
  f(koopman_dual_impls());
  f(koopman_single_impls());
}

/// Index into `alg`'s list of the entry dispatched calls currently
/// run. On first use the selection is initialised from the
/// CKSUM_KERNEL environment variable when it names a selection, else
/// to "best".
std::size_t active_index(Alg alg) noexcept;

/// The active selection: "best" or "scalar".
std::string_view selection_name() noexcept;

/// Select the dispatch entries by selection name ("best" or
/// "scalar"). Returns false (selection unchanged) for any other name.
/// Intended for process startup; switching while other threads are
/// dispatching is safe but the cutover point is unspecified.
bool select_kernel(std::string_view name) noexcept;

/// One sentence describing why the active selection is what it is —
/// an explicit selection, a CKSUM_KERNEL pick, a fallback after
/// CKSUM_KERNEL named something else, or the default `best`, with
/// what `best` resolves to per algorithm and why any listed entry is
/// unavailable here.
std::string kernel_selection_reason();

/// The manifest members recording which selection ran and why
/// ("kernel" and "kernel_reason", docs/OBSERVABILITY.md), ready to
/// splice into obs::RunInfo::extra_json.
std::string kernel_manifest_json();

/// Environment variable consulted on first dispatch (and by the CLI
/// drivers, which reject unknown values loudly).
inline constexpr const char* kKernelEnv = "CKSUM_KERNEL";

/// Idempotently register the kernel.* metric families with
/// obs::Registry::global(), so exported manifests carry the full
/// (zero-valued) family even before the first dispatched call. Tagged
/// kScheduling: which implementation served the run is a property of
/// its configuration, not of the corpus, and must not participate in
/// cross-configuration determinism diffs.
void register_kernel_metrics();

// --- Dispatched entry points (the hot callers' interface) -----------

std::uint16_t internet_sum(util::ByteView data) noexcept;
std::uint16_t internet_checksum(util::ByteView data) noexcept;
FletcherPair fletcher_block(util::ByteView data, FletcherMod mod) noexcept;
Fletcher32Pair fletcher32_block(util::ByteView data) noexcept;
std::uint32_t adler32(std::uint32_t adler, util::ByteView data) noexcept;
std::uint32_t crc32(std::uint32_t crc, util::ByteView data) noexcept;
inline std::uint32_t crc32(util::ByteView data) noexcept {
  return crc32(0, data);
}
KoopmanDualPair koopman_dual(util::ByteView data) noexcept;
std::uint64_t koopman_single(util::ByteView data) noexcept;

}  // namespace cksum::alg::kern
