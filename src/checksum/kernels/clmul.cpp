// CRC-32 by carry-less-multiply folding (PCLMULQDQ on x86, PMULL on
// AArch64) — best's CRC-32 where the hardware has it.
//
// Method (after "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ", arXiv 1009.5949): keep four 128-bit accumulators over a
// 64-byte stripe; each step *folds* an accumulator 64 bytes forward by
// multiplying its two halves with precomputed constants x^d mod G and
// XOR-ing in the next stripe, so the whole message collapses to one
// 128-bit register, which a 128→96→64-bit reduction plus a Barrett
// step turns into the 32-bit remainder.
//
// Reflected-domain bookkeeping (how the constants are derived): a
// 128-bit register loaded little-endian holds stream position p in
// bit p, i.e. bit p is coeff (127-p) of the chunk polynomial. For the
// operand layouts used here, a carry-less product's bit m is coeff
// (95-m) of the true product — the result sits one x^32 short of the
// data layout — so a fold spanning d bits multiplies the low half by
// K(d+32) and the high half by K(d-32), where
//
//   K(d) = bit-reverse32(x^d mod G) << 1.
//
// All constants are computed from that formula in constexpr code
// below and pinned by static_asserts to the values independently
// validated against zlib (they equal the widely published PCLMULQDQ
// CRC-32 constant table).
//
// The final reduction works on the register's two 64-bit lanes as
// scalars: (A) fold the low qword across the high one (128→96 bits),
// (B) fold the top 32 bits down (96→64), (C) multiply by x^32
// reduced back to 64 bits — the CRC appends 32 zero bits — and
// (D) a Barrett step with mu = bit-reverse33(floor(x^64 / G)) yields
// the 32-bit remainder.
//
// Lengths below 64 bytes (and sub-16-byte tails) go through
// slicing-by-8: the fold loop needs a full stripe, and this
// implementation's identity is speed, not table avoidance. If the
// binary has the intrinsics but the CPU lacks them (dispatch never
// does this, but tests and tools may call the function pointer
// directly), the entry point quietly falls back to chorba instead of
// faulting; clmul_unavailable() is how the registry reports that
// state.
#include <bit>
#include <cstddef>
#include <cstdint>

#include "checksum/kernels/cpu_features.hpp"
#include "checksum/kernels/impl.hpp"

#if defined(__PCLMUL__) && defined(__SSE4_1__) && \
    (defined(__x86_64__) || defined(__i386__))
#define CKSUM_CLMUL_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRYPTO)
#define CKSUM_CLMUL_NEON 1
#include <arm_neon.h>
#endif

#if defined(CKSUM_CLMUL_X86) || defined(CKSUM_CLMUL_NEON)
#define CKSUM_CLMUL_IMPL 1
#endif

namespace cksum::alg::kern::impl {

#ifdef CKSUM_CLMUL_IMPL

namespace {

constexpr std::uint64_t kGenerator = 0x104C11DB7ull;  // G, normal form

constexpr std::uint64_t reverse_bits(std::uint64_t v, unsigned n) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < n; ++i)
    if ((v >> i) & 1) r |= std::uint64_t{1} << (n - 1 - i);
  return r;
}

/// x^d mod G as a 32-bit value (coeff of x^i in bit i).
constexpr std::uint64_t x_pow_mod(unsigned d) {
  std::uint64_t v = 1;
  for (unsigned i = 0; i < d; ++i) {
    v <<= 1;
    if ((v >> 32) & 1) v ^= kGenerator;
  }
  return v;
}

/// Fold constant for a d-bit span in the reflected layout used here.
constexpr std::uint64_t fold_k(unsigned d) {
  return reverse_bits(x_pow_mod(d), 32) << 1;
}

/// floor(x^64 / G): the 33-bit Barrett quotient.
constexpr std::uint64_t floor_x64_div_g() {
  unsigned __int128 num = static_cast<unsigned __int128>(1) << 64;
  std::uint64_t q = 0;
  for (int d = 32; d >= 0; --d) {
    if ((num >> (d + 32)) & 1) {
      q |= std::uint64_t{1} << d;
      num ^= static_cast<unsigned __int128>(kGenerator) << d;
    }
  }
  return q;
}

constexpr std::uint64_t kK544 = fold_k(544);  // 64-byte fold, low half
constexpr std::uint64_t kK480 = fold_k(480);  // 64-byte fold, high half
constexpr std::uint64_t kK160 = fold_k(160);  // 16-byte fold, low half
constexpr std::uint64_t kK96 = fold_k(96);    // 16-byte fold, high half
constexpr std::uint64_t kK64 = fold_k(64);    // reduction folds
constexpr std::uint64_t kMu = reverse_bits(floor_x64_div_g(), 33);
constexpr std::uint64_t kGp = reverse_bits(kGenerator, 33);

// Pin the formula to the independently validated (and widely
// published) CRC-32 folding constants.
static_assert(kK544 == 0x154442bd4 && kK480 == 0x1c6e41596);
static_assert(kK160 == 0x1751997d0 && kK96 == 0x0ccaa009e);
static_assert(kK64 == 0x163cd6124);
static_assert(kMu == 0x1f7011641 && kGp == 0x1db710641);

constexpr std::uint64_t kM32 = 0xFFFFFFFFu;

#ifdef CKSUM_CLMUL_X86

using V128 = __m128i;

inline V128 load128(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline std::uint64_t lane0(V128 v) noexcept {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
}

inline std::uint64_t lane1(V128 v) noexcept {
  return static_cast<std::uint64_t>(_mm_extract_epi64(v, 1));
}

/// Carry-less 64x64 product of two scalars (used by the reduction).
inline V128 clmul_scalar(std::uint64_t a, std::uint64_t b) noexcept {
  return _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(a)),
                              _mm_cvtsi64_si128(static_cast<long long>(b)),
                              0x00);
}

/// Fold x by d bits: klo = K(d+32) times the low qword, khi = K(d-32)
/// times the high qword (see file comment for the x^32 offset).
inline V128 fold16(V128 x, V128 k) noexcept {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

inline V128 xor128(V128 a, V128 b) noexcept { return _mm_xor_si128(a, b); }

inline V128 make_k(std::uint64_t lo, std::uint64_t hi) noexcept {
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

inline V128 inject_state(V128 x, std::uint32_t c) noexcept {
  return _mm_xor_si128(x, _mm_cvtsi32_si128(static_cast<int>(c)));
}

#else  // CKSUM_CLMUL_NEON

using V128 = uint64x2_t;

inline V128 load128(const std::uint8_t* p) noexcept {
  return vreinterpretq_u64_u8(vld1q_u8(p));
}

inline std::uint64_t lane0(V128 v) noexcept { return vgetq_lane_u64(v, 0); }

inline std::uint64_t lane1(V128 v) noexcept { return vgetq_lane_u64(v, 1); }

inline V128 clmul_scalar(std::uint64_t a, std::uint64_t b) noexcept {
  return vreinterpretq_u64_p128(
      vmull_p64(static_cast<poly64_t>(a), static_cast<poly64_t>(b)));
}

struct FoldPair {
  std::uint64_t lo, hi;
};

inline V128 fold16(V128 x, FoldPair k) noexcept {
  return veorq_u64(clmul_scalar(lane0(x), k.lo),
                   clmul_scalar(lane1(x), k.hi));
}

inline V128 xor128(V128 a, V128 b) noexcept { return veorq_u64(a, b); }

inline FoldPair make_k(std::uint64_t lo, std::uint64_t hi) noexcept {
  return {lo, hi};
}

inline V128 inject_state(V128 x, std::uint32_t c) noexcept {
  return veorq_u64(x, vcombine_u64(vcreate_u64(c), vcreate_u64(0)));
}

#endif  // CKSUM_CLMUL_X86 / CKSUM_CLMUL_NEON

/// 128-bit accumulator -> 32-bit internal CRC state, on scalar lanes.
/// Steps A-D from the file comment; every intermediate width claim is
/// proven in the bit-exact model this transcribes.
std::uint32_t reduce128(V128 x) noexcept {
  const std::uint64_t x0 = lane0(x);
  const std::uint64_t x1 = lane1(x);
  // A: 128 -> 96. W = Xlo * (x^64 mod G) + Xhi; the product is 96 bits
  // (w0 low qword, w1 bits 64..95) and Xhi lands shifted up 32.
  const V128 wv = clmul_scalar(x0, kK64);
  const std::uint64_t w0 = lane0(wv) ^ (x1 << 32);
  const std::uint64_t w1 = lane1(wv) ^ (x1 >> 32);
  // B: 96 -> 64. Fold W's top 32 bits across the rest.
  const std::uint64_t z =
      lane0(clmul_scalar(w0 & kM32, kK64)) ^ (w0 >> 32) ^ (w1 << 32);
  // C: multiply by x^32 (the CRC appends 32 zero bits), reduced back
  // to 64 bits — same fold shape as B.
  const std::uint64_t v = lane0(clmul_scalar(z & kM32, kK64)) ^ (z >> 32);
  // D: Barrett. q = floor(V/G) estimated via mu, remainder in the top
  // 32 bits of the reflected layout.
  const std::uint64_t t1 = lane0(clmul_scalar(v & kM32, kMu));
  const std::uint64_t t2 = lane0(clmul_scalar(t1 & kM32, kGp));
  return static_cast<std::uint32_t>((v ^ t2) >> 32);
}

/// The folding core. Requires n >= 64 and n % 16 == 0.
std::uint32_t crc32_fold(std::uint32_t crc, const std::uint8_t* p,
                         std::size_t n) noexcept {
  const auto k512 = make_k(kK544, kK480);
  const auto k128 = make_k(kK160, kK96);
  V128 x1 = inject_state(load128(p), crc ^ 0xFFFFFFFFu);
  V128 x2 = load128(p + 16);
  V128 x3 = load128(p + 32);
  V128 x4 = load128(p + 48);
  std::size_t off = 64;
  for (; n - off >= 64; off += 64) {
    x1 = xor128(fold16(x1, k512), load128(p + off));
    x2 = xor128(fold16(x2, k512), load128(p + off + 16));
    x3 = xor128(fold16(x3, k512), load128(p + off + 32));
    x4 = xor128(fold16(x4, k512), load128(p + off + 48));
  }
  V128 x = xor128(fold16(x1, k128), x2);
  x = xor128(fold16(x, k128), x3);
  x = xor128(fold16(x, k128), x4);
  for (; n - off >= 16; off += 16)
    x = xor128(fold16(x, k128), load128(p + off));
  return reduce128(x) ^ 0xFFFFFFFFu;
}

}  // namespace

std::uint32_t clmul_crc32(std::uint32_t crc, util::ByteView data) noexcept {
  if (!cpu_has_clmul() || std::endian::native != std::endian::little)
    return chorba_crc32(crc, data);  // defensive: never fault
  const std::size_t n = data.size();
  if (n < 64) return slicing_crc32(crc, data);
  const std::size_t folded = n & ~std::size_t{15};
  crc = crc32_fold(crc, data.data(), folded);
  return slicing_crc32(crc, data.subspan(folded));
}

const char* clmul_unavailable() noexcept {
  if (std::endian::native != std::endian::little) return "big-endian host";
  return cpu_has_clmul() ? nullptr
                         : "CPU lacks carry-less multiply "
                           "(PCLMULQDQ/SSE4.1 or PMULL)";
}

#else  // !CKSUM_CLMUL_IMPL

std::uint32_t clmul_crc32(std::uint32_t crc, util::ByteView data) noexcept {
  return chorba_crc32(crc, data);  // defensive: never fault
}

const char* clmul_unavailable() noexcept {
  return "binary built without carry-less-multiply support";
}

#endif  // CKSUM_CLMUL_IMPL

}  // namespace cksum::alg::kern::impl
