// Internal declarations for the checksum implementations themselves.
//
// Every entry of the per-algorithm implementation lists in kernel.cpp
// is declared here, once; the conformance harness reaches them through
// those lists, and everything else should go through the dispatched
// entry points in kernel.hpp.
#pragma once

#include <cstdint>

#include "checksum/fletcher.hpp"
#include "checksum/fletcher32.hpp"
#include "checksum/koopman.hpp"
#include "util/bytes.hpp"

namespace cksum::alg::kern::impl {

// --- scalar: the reference implementations --------------------------
// Byte/word-at-a-time with immediate modular reduction at every step.
// Deliberately the dumbest correct formulation of each algorithm; the
// other implementations are differentially tested against these.
std::uint16_t scalar_internet_sum(util::ByteView data) noexcept;
FletcherPair scalar_fletcher(util::ByteView data, FletcherMod mod) noexcept;
Fletcher32Pair scalar_fletcher32(util::ByteView data) noexcept;
std::uint32_t scalar_adler32(std::uint32_t adler, util::ByteView data) noexcept;
std::uint32_t scalar_crc32(std::uint32_t crc, util::ByteView data) noexcept;
KoopmanDualPair scalar_koopman_dual(util::ByteView data) noexcept;
std::uint64_t scalar_koopman_single(util::ByteView data) noexcept;

// --- slicing: table-slicing CRC + blocked modular sums --------------
// Slicing-by-8 CRC-32 (arXiv 1009.5949); Fletcher / Fletcher-32 /
// Adler-32 unrolled with modular reduction deferred to overflow-safe
// block boundaries; word-at-a-time Internet sum with one fold at the
// end.
std::uint16_t slicing_internet_sum(util::ByteView data) noexcept;
FletcherPair slicing_fletcher(util::ByteView data, FletcherMod mod) noexcept;
Fletcher32Pair slicing_fletcher32(util::ByteView data) noexcept;
std::uint32_t slicing_adler32(std::uint32_t adler,
                              util::ByteView data) noexcept;
std::uint32_t slicing_crc32(std::uint32_t crc, util::ByteView data) noexcept;
// Koopman sums with the per-block 64-bit modulo replaced by lane
// folding against small power-of-2^16 (dual) / power-of-2^32 (single)
// residues, reduction deferred to overflow-safe run boundaries.
KoopmanDualPair slicing_koopman_dual(util::ByteView data) noexcept;
std::uint64_t slicing_koopman_single(util::ByteView data) noexcept;

// --- swar: 64-bit SWAR Internet sum ---------------------------------
// Eight message bytes per 64-bit load, end-around carries deferred
// into the top half of the accumulator and folded once at the end.
std::uint16_t swar_internet_sum(util::ByteView data) noexcept;

// --- chorba: tableless CRC-32 ---------------------------------------
// Sparse polynomial convolution (arXiv 2412.16398): message words are
// eliminated by XOR-ing shifted copies of a weight-6 multiple of the
// generator, five register-resident carry words, no lookup tables.
// Runs anywhere; best's CRC-32 where clmul is unavailable.
std::uint32_t chorba_crc32(std::uint32_t crc, util::ByteView data) noexcept;

// --- clmul: carry-less-multiply folding CRC-32 ----------------------
// PCLMULQDQ (x86) / PMULL (AArch64) 4-way 64-byte fold loop with a
// Barrett final reduction. clmul_crc32 is always safe to call: it
// falls back to chorba when the binary or the CPU lacks the
// instructions (so a stale function pointer can never fault).
std::uint32_t clmul_crc32(std::uint32_t crc, util::ByteView data) noexcept;

/// nullptr when clmul_crc32 genuinely runs on this machine, else a
/// short human-readable reason ("CPU lacks carry-less multiply...",
/// "binary built without carry-less-multiply support").
const char* clmul_unavailable() noexcept;

/// The CRC-32 lookup tables (reflected IEEE polynomial). t[0] is the
/// byte table the scalar loop walks; t[1..7] extend it one zero byte
/// per slice for slicing-by-8. Built at compile time, the repo's one
/// CRC-32 table builder.
struct Crc32Tables {
  std::uint32_t t[8][256];
};
extern const Crc32Tables kCrc32Tables;

}  // namespace cksum::alg::kern::impl
