// §2's performance claim: "measurements have typically shown the TCP
// checksum to be two to four times faster [than Fletcher]", with CRC
// slower still. google-benchmark over the algorithm engines.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "checksum/checksum.hpp"
#include "checksum/kernels/kernel.hpp"
#include "core/pdu_model.hpp"
#include "core/splice_sim.hpp"
#include "fsgen/generator.hpp"
#include "util/rng.hpp"

namespace {

using cksum::util::ByteView;
using cksum::util::Bytes;

Bytes make_buffer(std::size_t n) {
  Bytes b(n);
  cksum::util::Rng rng(0xbeef);
  rng.fill(b);
  return b;
}

const Bytes& buffer() {
  static const Bytes b = make_buffer(64 * 1024);
  return b;
}

void BM_InternetChecksum(benchmark::State& state) {
  const ByteView data(buffer().data(), static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(cksum::alg::internet_sum(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Fletcher255(benchmark::State& state) {
  const ByteView data(buffer().data(), static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cksum::alg::kern::fletcher_block(data,
                                         cksum::alg::FletcherMod::kOnes255));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Fletcher256(benchmark::State& state) {
  const ByteView data(buffer().data(), static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cksum::alg::kern::fletcher_block(data,
                                         cksum::alg::FletcherMod::kTwos256));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Crc32Bitwise(benchmark::State& state) {
  const ByteView data(buffer().data(), static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(cksum::alg::crc32_bitwise(0, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Crc32CellCombine(benchmark::State& state) {
  // The splice simulator's hot operation: fold a per-cell CRC into a
  // running splice CRC.
  const cksum::alg::CrcCombiner comb(48);
  std::uint32_t a = 0x12345678, b = 0x9abcdef0;
  for (auto _ : state) {
    a = comb.combine(a, b);
    benchmark::DoNotOptimize(a);
  }
}

void BM_SpliceEvaluatePair(benchmark::State& state) {
  // The simulator's unit of work: all 923 splices of one adjacent
  // full-size packet pair, classified via per-cell partial sums.
  cksum::net::FlowConfig flow;
  cksum::util::Bytes file(512);
  cksum::util::Rng rng(0x51);
  rng.fill(file);
  const auto pkts =
      cksum::core::packetize_file(flow, cksum::util::ByteView(file));
  cksum::core::SpliceStats stats;
  for (auto _ : state) {
    cksum::core::evaluate_pair(flow.packet, pkts[0], pkts[1], stats);
    benchmark::DoNotOptimize(stats.total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          923);  // splices per pair
}

// Per-implementation throughput rows (BM_Kernel_<alg>_<impl>), one
// per entry of each implementation list in src/checksum/kernels/.
// Registered at runtime so the row set tracks the lists;
// bench_distill.py folds the 64 KiB rows into the trajectory's
// kernel_throughput family, and the 48-byte rows give the ATM-cell
// rate packetisation pays.
template <typename Fn>
void register_impl_bench(const std::string& alg, std::string_view impl,
                         Fn fn) {
  const std::string name = "BM_Kernel_" + alg + "_" + std::string(impl);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [fn](benchmark::State& state) {
        const ByteView data(buffer().data(),
                            static_cast<std::size_t>(state.range(0)));
        for (auto _ : state) benchmark::DoNotOptimize(fn(data));
        state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                                state.range(0));
      })
      ->Arg(48)
      ->Arg(296)
      ->Arg(65536);
}

void register_kernel_benchmarks() {
  namespace kern = cksum::alg::kern;
  kern::for_each_list([](const auto& list) {
    for (const auto& impl : list.impls) {
      if (const char* why = impl.unavailable_reason()) {
        // An unavailable entry answers through its safe fallback, so a
        // row would time the wrong code. Skip loudly: bench_distill.py
        // treats the missing row as skip-with-notice, not failure.
        std::fprintf(stderr,
                     "bench_speed: skipping BM_Kernel_%s_%s (unavailable: "
                     "%s)\n",
                     std::string(list.name).c_str(),
                     std::string(impl.name).c_str(), why);
        continue;
      }
      auto* fn = impl.fn;
      const std::string alg(list.name);
      if constexpr (std::is_same_v<decltype(fn), kern::FletcherFn*>) {
        // One list, two moduli: separate rows so the trajectory keeps
        // its fletcher255/fletcher256 families.
        register_impl_bench("fletcher255", impl.name, [fn](ByteView d) {
          return fn(d, cksum::alg::FletcherMod::kOnes255);
        });
        register_impl_bench("fletcher256", impl.name, [fn](ByteView d) {
          return fn(d, cksum::alg::FletcherMod::kTwos256);
        });
      } else if constexpr (std::is_same_v<decltype(fn), kern::StreamFn*>) {
        const std::uint32_t init = list.alg == kern::Alg::kCrc32 ? 0u : 1u;
        register_impl_bench(alg, impl.name,
                            [fn, init](ByteView d) { return fn(init, d); });
      } else {
        register_impl_bench(alg, impl.name, fn);
      }
    }
  });
}

// The default in-memory path's two layers before the DFS, at 64 KiB
// files: generating one file of each kind (a fresh seed per
// iteration), and cutting a file into 256-byte segments with every
// per-cell partial (BM_PacketizeFile, on a mixed-kind corpus).
constexpr std::size_t kFileBytes = 64 * 1024;

void register_generate_benchmarks() {
  for (const cksum::fsgen::FileKind kind : cksum::fsgen::kAllKinds) {
    const std::string name =
        "BM_GenerateFile/" + std::string(cksum::fsgen::name(kind));
    benchmark::RegisterBenchmark(name.c_str(), [kind](benchmark::State& state) {
      std::uint64_t seed = 0;
      std::int64_t bytes = 0;
      for (auto _ : state) {
        const Bytes file =
            cksum::fsgen::generate_file(kind, ++seed, kFileBytes);
        bytes += static_cast<std::int64_t>(file.size());
        benchmark::DoNotOptimize(file.data());
      }
      state.SetBytesProcessed(bytes);
    });
  }
}

void BM_PacketizeFile(benchmark::State& state) {
  std::vector<Bytes> files;
  for (const cksum::fsgen::FileKind kind : cksum::fsgen::kAllKinds)
    files.push_back(cksum::fsgen::generate_file(kind, 0x9e7, kFileBytes));
  const cksum::net::FlowConfig flow;
  std::size_t next = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const Bytes& file = files[next++ % files.size()];
    const auto pkts = cksum::core::packetize_file(flow, ByteView(file));
    bytes += static_cast<std::int64_t>(file.size());
    benchmark::DoNotOptimize(pkts.data());
  }
  state.SetBytesProcessed(bytes);
}

}  // namespace

// 48-byte ATM cell, 296-byte packet, 4KB page, 64KB bulk.
BENCHMARK(BM_InternetChecksum)->Arg(48)->Arg(296)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Fletcher255)->Arg(48)->Arg(296)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Fletcher256)->Arg(48)->Arg(296)->Arg(4096)->Arg(65536);
BENCHMARK(BM_Crc32Bitwise)->Arg(296)->Arg(4096);
BENCHMARK(BM_Crc32CellCombine);
BENCHMARK(BM_SpliceEvaluatePair);
BENCHMARK(BM_PacketizeFile);

// Custom main: the per-implementation and per-kind rows are registered
// at runtime before the statically-declared benchmarks run.
int main(int argc, char** argv) {
  register_kernel_benchmarks();
  register_generate_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
