// bench_calib — time two fixed amounts of CPU work (benchmark/run.py).
//
//   bench_calib
//
// Prints "<throughput ns> <latency ns>": the nanoseconds each loop took. The
// runner starts one after every timed repetition and set-up, and reports
// times relative to these: other tenants of a shared host slow every
// process on it, by up to 2x for minutes at a time, and they slow these
// loops by about as much as they slow the program. The work is fixed here,
// built from this directory alone, so no change to the library can move it.
//
// The two loops are slowed by different things, as the program's layers
// are. The throughput loop keeps every ALU and load port busy, as the splice
// DFS does; a busy sibling hyperthread slows it, and the DFS, by up to 1.7x.
// The latency loop is a branchy pass over random words and slicing-by-8
// CRC-32, chains of dependent lookups like generate and packetise; the same
// sibling slows it by about 1.2x. Each workload weighs the two by its DFS
// share (run.py). Inputs are made before the clock starts.
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

namespace {

constexpr int kThroughputRounds = 6;
constexpr int kLatencyRounds = 10;

long long now_ns() {
  timespec t{};
  clock_gettime(CLOCK_MONOTONIC, &t);
  return static_cast<long long>(t.tv_sec) * 1000000000LL + t.tv_nsec;
}

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Keeps `v` in a register as an opaque value, so the compiler neither
// vectorises nor folds the loops around it.
template <typename T>
void opaque(T& v) {
  asm volatile("" : "+r"(v));
}

// Eight independent ALU chains, then four independent sums over an
// L1-resident array: several instructions retire per cycle when the core
// is the program's alone.
std::uint64_t throughput(const std::vector<std::uint64_t>& l1) {
  std::uint64_t a0 = 1, a1 = 2, a2 = 3, a3 = 4, a4 = 5, a5 = 6, a6 = 7, a7 = 8;
  for (std::uint64_t i = 0; i < 1000000; ++i) {
    a0 = a0 * 3 + i;
    a1 ^= (a1 << 1) ^ i;
    a2 += (a2 >> 3) ^ i;
    a3 = (a3 * 5) ^ i;
    a4 += i ^ a5;
    a5 ^= a4 + 7;
    a6 = (a6 + i) * 9;
    a7 ^= (a7 >> 2) ^ i;
    opaque(a0);
    opaque(a4);
  }
  std::uint64_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
  for (int pass = 0; pass < 400; ++pass)
    for (std::size_t i = 0; i + 4 <= l1.size(); i += 4) {
      d0 += l1[i];
      d1 ^= l1[i + 1];
      d2 += l1[i + 2];
      d3 ^= l1[i + 3];
      opaque(d0);
      opaque(d2);
    }
  return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + d0 + d1 + d2 + d3;
}

std::uint64_t latency(const std::uint32_t (&table)[8][256],
                      const std::vector<std::uint32_t>& words,
                      const std::vector<std::uint8_t>& bytes) {
  std::uint64_t acc = 0;
  std::uint32_t crc = 0;
  for (int pass = 0; pass < 20; ++pass)
    for (std::uint32_t w : words) {
      if (w & 1u) {
        acc += w;
      } else {
        acc ^= w >> 3;
      }
    }
  for (int pass = 0; pass < 8; ++pass)
    for (std::size_t i = 0; i + 8 <= bytes.size(); i += 8) {
      std::uint32_t a = 0, b = 0;
      std::memcpy(&a, &bytes[i], 4);
      std::memcpy(&b, &bytes[i + 4], 4);
      a ^= crc;
      crc = table[7][a & 0xffu] ^ table[6][(a >> 8) & 0xffu] ^ table[5][(a >> 16) & 0xffu] ^
            table[4][a >> 24] ^ table[3][b & 0xffu] ^ table[2][(b >> 8) & 0xffu] ^
            table[1][(b >> 16) & 0xffu] ^ table[0][b >> 24];
    }
  return acc + crc;
}

}  // namespace

int main() {
  std::uint32_t table[8][256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    table[0][i] = c;
  }
  for (int t = 1; t < 8; ++t)
    for (int i = 0; i < 256; ++i)
      table[t][i] = (table[t - 1][i] >> 8) ^ table[0][table[t - 1][i] & 0xffu];

  std::uint64_t s = 1234567;
  std::vector<std::uint32_t> words(1 << 14);
  for (auto& w : words) w = static_cast<std::uint32_t>(xorshift(s));
  std::vector<std::uint8_t> bytes(64 << 10);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(xorshift(s));
  std::vector<std::uint64_t> l1(2048);
  for (auto& v : l1) v = xorshift(s);

  std::uint64_t sink = 0;
  const long long t0 = now_ns();
  for (int round = 0; round < kThroughputRounds; ++round) sink += throughput(l1);
  const long long t1 = now_ns();
  for (int round = 0; round < kLatencyRounds; ++round) sink += latency(table, words, bytes);
  const long long t2 = now_ns();
  // The result goes to stderr so the loops cannot be optimised away.
  std::fprintf(stderr, "%llx\n", static_cast<unsigned long long>(sink));
  std::printf("%lld %lld\n", t1 - t0, t2 - t1);
  return 0;
}
