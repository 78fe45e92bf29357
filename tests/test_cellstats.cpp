// Cell/block distribution collector (Figures 2-3, Tables 4-5 data).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "checksum/internet.hpp"
#include "core/cellstats.hpp"
#include "core/dircorpus.hpp"
#include "fsgen/generator.hpp"
#include "stats/distribution.hpp"
#include "util/rng.hpp"

namespace cksum::core {
namespace {

using util::ByteView;
using util::Bytes;

TEST(CellStats, CountsCellsOfCarvedFile) {
  CellStatsConfig cfg;
  cfg.ks = {1, 2};
  CellStatsCollector c(cfg);
  // 600 bytes = segments of 256, 256, 88.
  // Segment 1: cells 48*5 + 16(short); segment 2 same; segment 3:
  // 48 + 40(short) -> full cells: 5+5+1 = 11, short: 3.
  const Bytes file(600, 0xab);
  c.add_file(ByteView(file));
  EXPECT_EQ(c.cells_seen(), 14u);
  EXPECT_EQ(c.tcp_cells().total(), 14u);
  EXPECT_EQ(c.tcp_blocks(1).total(), 11u);
  // Blocks of 2 within each segment's full-cell run... the collector
  // treats the file's full cells as one sequence: 11 cells -> 10
  // 2-blocks.
  EXPECT_EQ(c.tcp_blocks(2).total(), 10u);
}

TEST(CellStats, ConstantDataCollapsesDistribution) {
  CellStatsConfig cfg;
  cfg.ks = {1, 2, 4};
  CellStatsCollector c(cfg);
  const Bytes file(4096, 0x00);
  c.add_file(ByteView(file));
  // Every cell sums to zero: one value takes all the mass.
  EXPECT_DOUBLE_EQ(c.tcp_cells().pmax(), 1.0);
  EXPECT_DOUBLE_EQ(c.tcp_blocks(4).match_probability(), 1.0);
  // All pairs congruent; all identical.
  const auto& lc = c.local(2);
  EXPECT_GT(lc.pairs, 0u);
  EXPECT_EQ(lc.congruent, lc.pairs);
  EXPECT_EQ(lc.congruent_identical, lc.congruent);
  EXPECT_DOUBLE_EQ(lc.p_congruent_excluding_identical(), 0.0);
}

TEST(CellStats, BlockSumsAreModularCellSums) {
  // Verify the k-block sum against direct computation on a small file.
  CellStatsConfig cfg;
  cfg.segment_size = 96;  // two full cells per segment, no short cell
  cfg.ks = {2};
  CellStatsCollector c(cfg);
  Bytes file(192);
  util::Rng rng(1);
  rng.fill(file);
  c.add_file(ByteView(file));
  // Cells: 4 full cells; 2-blocks: 3.
  ASSERT_EQ(c.tcp_blocks(2).total(), 3u);
  const auto sum_cell = [&](std::size_t i) {
    return alg::ones_canonical(
        alg::internet_sum(ByteView(file).subspan(i * 48, 48)));
  };
  for (std::size_t i = 0; i < 3; ++i) {
    const std::uint32_t expect = (sum_cell(i) + sum_cell(i + 1)) % 65535u;
    EXPECT_GE(c.tcp_blocks(2).count(expect), 1u) << i;
  }
}

TEST(CellStats, LocalCongruenceCountsOnCraftedData) {
  CellStatsConfig cfg;
  cfg.segment_size = 48;  // one cell per segment
  cfg.ks = {1};
  cfg.local_window_bytes = 96;  // window of 2 cells
  CellStatsCollector c(cfg);
  // Four cells: A, A (identical), B, A' (congruent with A but with
  // different content — the 0x11 byte moved to another even offset).
  Bytes file(192, 0);
  file[0] = 0x11;        // cell 0: sum 0x1100
  file[48] = 0x11;       // cell 1: identical to cell 0
  file[96] = 0x42;       // cell 2: sum 0x4200
  file[144 + 2] = 0x11;  // cell 3: sum 0x1100, content != cell 0
  c.add_file(ByteView(file));
  const auto& lc = c.local(1);
  // In-window (distance <= 2) pairs: (0,1),(0,2),(1,2),(1,3),(2,3).
  EXPECT_EQ(lc.pairs, 5u);
  // Congruent: (0,1) and (1,3). ((0,3) is congruent but out of window.)
  EXPECT_EQ(lc.congruent, 2u);
  // Identical content: only (0,1).
  EXPECT_EQ(lc.congruent_identical, 1u);
  EXPECT_DOUBLE_EQ(lc.p_congruent(), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(lc.p_congruent_excluding_identical(), 1.0 / 5.0);
}

TEST(CellStats, PredictConvolutionMatchesMeasuredOnIidData) {
  // On truly iid random cells, the measured k=2 distribution's match
  // probability approaches the convolution prediction (both near
  // uniform).
  CellStatsConfig cfg;
  cfg.ks = {1, 2};
  CellStatsCollector c(cfg);
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kRandom, 3, 400000);
  c.add_file(ByteView(file));
  const auto d1 = stats::Distribution::from_histogram(c.tcp_cells());
  const double predicted = d1.self_convolve(2).match_probability();
  EXPECT_NEAR(predicted, 1.0 / 65535.0, 2.0 / 65535.0);
}

TEST(CellStats, RealDataBlockDistributionsFlattenWithK) {
  // Corollary 3 observed on generator data: PMax of the k-block
  // distribution is non-increasing in k (approximately; sampling
  // noise allows tiny violations, so compare loosely).
  CellStatsConfig cfg;
  cfg.ks = {1, 2, 4};
  CellStatsCollector c(cfg);
  const Bytes file = fsgen::generate_file(fsgen::FileKind::kCSource, 5, 200000);
  c.add_file(ByteView(file));
  EXPECT_GE(c.tcp_blocks(1).pmax() * 1.2, c.tcp_blocks(2).pmax());
  EXPECT_GE(c.tcp_blocks(2).pmax() * 1.2, c.tcp_blocks(4).pmax());
}


TEST(CellStats, MergeEqualsSequential) {
  CellStatsConfig cfg;
  cfg.ks = {1, 2};
  CellStatsCollector whole(cfg), a(cfg), b(cfg);
  const Bytes f1 = fsgen::generate_file(fsgen::FileKind::kText, 1, 20000);
  const Bytes f2 = fsgen::generate_file(fsgen::FileKind::kGmonProfile, 2, 20000);
  whole.add_file(ByteView(f1));
  whole.add_file(ByteView(f2));
  a.add_file(ByteView(f1));
  b.add_file(ByteView(f2));
  a.merge(b);
  EXPECT_EQ(a.cells_seen(), whole.cells_seen());
  EXPECT_EQ(a.tcp_cells().counts(), whole.tcp_cells().counts());
  EXPECT_EQ(a.tcp_blocks(2).counts(), whole.tcp_blocks(2).counts());
  EXPECT_EQ(a.local(2).pairs, whole.local(2).pairs);
  EXPECT_EQ(a.local(2).congruent, whole.local(2).congruent);
  // Config mismatch rejected.
  CellStatsConfig other;
  other.ks = {1};
  CellStatsCollector c(other);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

// Every corpus source feeds collect_cell_stats through
// SpliceCorpus::file_bytes; per-thread collectors merge by addition,
// so every histogram and local(k) count is the same at any thread
// count.
TEST(CellStats, CorpusCollectIsThreadInvariant) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("cksumlab_cellstats_" + std::to_string(::getpid()));
  fs::create_directories(dir / "sub");
  const auto write = [](const fs::path& p, const Bytes& data) {
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  };
  write(dir / "a.txt", fsgen::generate_file(fsgen::FileKind::kText, 1, 9000));
  write(dir / "b.gmon",
        fsgen::generate_file(fsgen::FileKind::kGmonProfile, 2, 7000));
  write(dir / "sub" / "c.exe",
        fsgen::generate_file(fsgen::FileKind::kExecutable, 3, 5000));

  CellStatsConfig cfg;
  cfg.ks = {1, 2, 4};
  const std::string manifest =
      fsgen::Filesystem(fsgen::profile("nsc05"), 0.05).to_manifest();
  for (const CorpusSource& src :
       {CorpusSource{CorpusKind::kProfile, "nsc05", 0.05},
        CorpusSource{CorpusKind::kManifest, manifest},
        CorpusSource{CorpusKind::kDirectory, dir.string()}}) {
    const SpliceCorpus corpus(src);
    const CellStatsCollector one = collect_cell_stats(corpus, cfg, 1);
    EXPECT_GT(one.cells_seen(), 100u);
    for (const unsigned threads : {2u, 4u}) {
      const CellStatsCollector many = collect_cell_stats(corpus, cfg, threads);
      EXPECT_EQ(many.cells_seen(), one.cells_seen()) << threads;
      EXPECT_EQ(many.tcp_cells().counts(), one.tcp_cells().counts());
      EXPECT_EQ(many.f255_cells().counts(), one.f255_cells().counts());
      EXPECT_EQ(many.f256_cells().counts(), one.f256_cells().counts());
      for (const std::size_t k : cfg.ks) {
        EXPECT_EQ(many.tcp_blocks(k).counts(), one.tcp_blocks(k).counts());
        EXPECT_EQ(many.local(k).pairs, one.local(k).pairs);
        EXPECT_EQ(many.local(k).congruent, one.local(k).congruent);
        EXPECT_EQ(many.local(k).congruent_identical,
                  one.local(k).congruent_identical);
      }
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CellStats, UnknownKThrows) {
  CellStatsConfig cfg;
  cfg.ks = {1};
  CellStatsCollector c(cfg);
  EXPECT_THROW(c.tcp_blocks(3), std::out_of_range);
  EXPECT_THROW(c.local(3), std::out_of_range);
}

}  // namespace
}  // namespace cksum::core
