// Splice-evaluator performance trajectory (feeds BENCH_splice.json
// via scripts/bench.sh).
//
// Two evaluators over the same seeded corpus, measured in
// splices/sec (items_per_second) with pairs/sec as a counter:
//
//   BM_SpliceDfs        prefix-sharing DFS, one evaluate_pair per pair
//   BM_SpliceDfsRun     the same pairs through the chunked run path (the
//                       production path: up to four same-shape pairs
//                       share the lanes of one DFS)
//   BM_SpliceDfs512     the same DFS on the transfer cut at 512-byte
//                       segments (12-cell pairs, prefix levels of up
//                       to 252 nodes)
//   BM_SpliceReference  full materialise-and-verify oracle
//
// plus an end-to-end run_filesystem rate at 1 and 4 worker threads to
// track the pair-granular scheduler, and the same corpus streamed
// from a precomputed corpus store (BM_RunCorpusStreamed) so the
// distill gate can hold streaming to >=0.95x the in-memory path.
// CKSUMLAB_SCALE scales the filesystem corpus as usual.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "atm/splice.hpp"
#include "core/experiments.hpp"
#include "core/pdu_model.hpp"
#include "core/splice_sim.hpp"
#include "fsgen/corpus_store.hpp"
#include "fsgen/generator.hpp"
#include "fsgen/profile.hpp"

namespace {

using namespace cksum;

/// The paper's flow, cut at `segment` bytes.
net::FlowConfig flow_at(std::size_t segment) {
  net::FlowConfig flow = core::paper_flow_config();
  flow.segment_size = segment;
  return flow;
}

/// A deterministic 16 KiB gmon-profile transfer. At the paper's
/// 256-byte segments: 65 full segments (7-cell packets, 923 splices per
/// pair) plus a runt tail; at 512: 32 (12-cell packets, 705,431).
const std::vector<core::SimPacket>& corpus_packets(std::size_t segment) {
  static const util::Bytes file =
      fsgen::generate_file(fsgen::FileKind::kGmonProfile, 42, 16 * 1024);
  static const std::vector<core::SimPacket> paper =
      core::packetize_file(flow_at(256), util::ByteView(file));
  static const std::vector<core::SimPacket> wide =
      core::packetize_file(flow_at(512), util::ByteView(file));
  return segment == 256 ? paper : wide;
}

template <typename Evaluator>
void run_pair_bench(benchmark::State& state, Evaluator&& evaluate,
                    std::size_t max_pairs, std::size_t segment = 256) {
  const auto& pkts = corpus_packets(segment);
  const net::FlowConfig flow = flow_at(segment);
  const std::size_t last =
      std::min(max_pairs, pkts.size() >= 2 ? pkts.size() - 1 : 0);
  std::uint64_t splices = 0;
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    core::SpliceStats st;
    for (std::size_t i = 0; i < last; ++i)
      evaluate(flow.packet, pkts[i], pkts[i + 1], st);
    benchmark::DoNotOptimize(st);
    splices += st.total;
    pairs += st.pairs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(splices));
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsRate);
}

void BM_SpliceDfs(benchmark::State& state) {
  run_pair_bench(state, core::evaluate_pair, 1u << 20);
}
BENCHMARK(BM_SpliceDfs);

/// Opens the store `build` seals at `path`, or aborts; the file is
/// unlinked but stays mapped until exit.
template <typename Build>
std::unique_ptr<fsgen::CorpusReader> open_store(const char* path,
                                                Build&& build) {
  std::string err;
  if (!build(path, &err)) {
    std::fprintf(stderr, "bench_splice: build_corpus: %s\n", err.c_str());
    std::abort();
  }
  auto r = fsgen::CorpusReader::open(path, &err);
  std::remove(path);
  if (!r) {
    std::fprintf(stderr, "bench_splice: open: %s\n", err.c_str());
    std::abort();
  }
  return r;
}

void BM_SpliceDfsRun(benchmark::State& state) {
  // The transfer sealed as a one-file store, so an iteration is the
  // run path's reconstruction and chunked DFS, not packetisation.
  static const std::unique_ptr<fsgen::CorpusReader> store =
      open_store("bench_splice_run.ckcorp", [](const char* path,
                                               std::string* err) {
        fsgen::CorpusBuildParams params;
        params.profile = "gmon-16k";
        params.flow = flow_at(256);
        return fsgen::build_corpus(params, {corpus_packets(256)}, path, err);
      });
  core::SpliceRunConfig cfg;
  cfg.flow = store->info().params.flow;
  std::uint64_t splices = 0;
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const core::SpliceStats st = core::run_corpus_range(cfg, *store, 0, 1);
    benchmark::DoNotOptimize(st);
    splices += st.total;
    pairs += st.pairs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(splices));
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(pairs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpliceDfsRun);

void BM_SpliceDfs512(benchmark::State& state) {
  run_pair_bench(state, core::evaluate_pair, 1u << 20, 512);
}
BENCHMARK(BM_SpliceDfs512);

void BM_SpliceReference(benchmark::State& state) {
  // 4 pairs only — materialising every splice is ~3 orders of
  // magnitude slower than the partial-sums paths.
  run_pair_bench(
      state,
      [](const net::PacketConfig& cfg, const core::SimPacket& p1,
         const core::SimPacket& p2, core::SpliceStats& st) {
        ++st.pairs;
        atm::for_each_splice(p1.pdu.num_cells(), p2.pdu.num_cells(),
                             [&](const atm::SpliceSpec& s) {
                               ++st.total;
                               const core::SpliceOutcome o =
                                   core::evaluate_splice_reference(cfg, p1, p2,
                                                                   s);
                               benchmark::DoNotOptimize(o);
                             });
      },
      4);
}
BENCHMARK(BM_SpliceReference);

void BM_RunFilesystem(benchmark::State& state) {
  const fsgen::Filesystem fs(fsgen::profile("nsc05"),
                             0.05 * core::scale_from_env());
  core::SpliceRunConfig cfg;
  cfg.flow = core::paper_flow_config();
  cfg.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t splices = 0;
  for (auto _ : state) {
    const core::SpliceStats st = core::run_filesystem(cfg, fs);
    benchmark::DoNotOptimize(st);
    splices += st.total;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(splices));
  state.counters["hw_threads"] = benchmark::Counter(
      static_cast<double>(std::thread::hardware_concurrency()));
}
BENCHMARK(BM_RunFilesystem)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // workers run off the main thread

/// Same corpus, but streamed from a sealed corpus store instead of
/// re-packetised from the profile — the store bakes the packetise
/// work in at build time, so streaming should match or beat the
/// in-memory path per worker (bench_distill gates >=0.95x at 1
/// thread, and >=4x aggregate at 8 threads when the machine has 8).
const fsgen::CorpusReader& corpus_store() {
  static const std::unique_ptr<fsgen::CorpusReader> reader = open_store(
      "bench_splice_corpus.ckcorp", [](const char* path, std::string* err) {
        fsgen::CorpusBuildParams params;
        params.profile = "nsc05";
        params.scale = 0.05 * core::scale_from_env();
        params.flow = core::paper_flow_config();
        const fsgen::Filesystem fs(fsgen::profile("nsc05"), params.scale);
        return fsgen::build_corpus(params, fs, path, err);
      });
  return *reader;
}

void BM_RunCorpusStreamed(benchmark::State& state) {
  const fsgen::CorpusReader& store = corpus_store();
  core::SpliceRunConfig cfg;
  cfg.flow = store.info().params.flow;
  cfg.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t splices = 0;
  for (auto _ : state) {
    const core::SpliceStats st =
        core::run_corpus_range(cfg, store, 0, store.file_count());
    benchmark::DoNotOptimize(st);
    splices += st.total;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(splices));
  state.counters["hw_threads"] = benchmark::Counter(
      static_cast<double>(std::thread::hardware_concurrency()));
}
BENCHMARK(BM_RunCorpusStreamed)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
