// Directory-corpus support: deterministic enumeration, limits,
// truncation, and end-to-end runs over a temp tree.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "fsgen/generator.hpp"

namespace cksum::core {
namespace {

namespace fs = std::filesystem;

class DirCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("cksumlab_test_" + std::to_string(::getpid()));
    fs::create_directories(root_ / "sub" / "deeper");
    write(root_ / "b.txt", fsgen::generate_file(fsgen::FileKind::kText, 1, 3000));
    write(root_ / "a.bin",
          fsgen::generate_file(fsgen::FileKind::kGmonProfile, 2, 5000));
    write(root_ / "sub" / "c.dat",
          fsgen::generate_file(fsgen::FileKind::kRandom, 3, 2000));
    write(root_ / "sub" / "deeper" / "d.txt",
          fsgen::generate_file(fsgen::FileKind::kCSource, 4, 1000));
    write(root_ / "empty.txt", {});
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void write(const fs::path& p, const util::Bytes& data) {
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  fs::path root_;
};

TEST_F(DirCorpus, ListsRegularFilesSortedAndSkipsEmpty) {
  const auto files = list_corpus_files(root_);
  ASSERT_EQ(files.size(), 4u);  // empty.txt skipped
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  EXPECT_EQ(files[0].filename(), "a.bin");
}

TEST_F(DirCorpus, MaxFilesLimit) {
  DirLimits limits;
  limits.max_files = 2;
  EXPECT_EQ(list_corpus_files(root_, limits).size(), 2u);
}

TEST_F(DirCorpus, TotalBytesLimitStopsEnumeration) {
  DirLimits limits;
  limits.max_total_bytes = 6000;  // a.bin (~5000) + not much more
  const auto files = list_corpus_files(root_, limits);
  EXPECT_LT(files.size(), 4u);
  EXPECT_GE(files.size(), 1u);
}

TEST_F(DirCorpus, ReadPrefixTruncates) {
  const auto full = read_file_prefix(root_ / "a.bin", 1 << 20);
  const auto prefix = read_file_prefix(root_ / "a.bin", 100);
  ASSERT_EQ(prefix.size(), 100u);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), full.begin()));
}

TEST_F(DirCorpus, ReadMissingFileReturnsEmpty) {
  EXPECT_TRUE(read_file_prefix(root_ / "nope", 100).empty());
}

TEST_F(DirCorpus, RunDirectoryEndToEnd) {
  const SpliceCorpus corpus({CorpusKind::kDirectory, root_.string()});
  ASSERT_EQ(corpus.file_count(), 4u);
  SpliceRunConfig cfg;
  cfg.flow = paper_flow_config();
  cfg = corpus.run_config(cfg);
  const SpliceStats st = corpus.run_range(cfg, 0, corpus.file_count());
  EXPECT_EQ(st.files, 4u);
  EXPECT_GT(st.packets, 30u);
  EXPECT_GT(st.total, 0u);
  EXPECT_EQ(st.total, st.caught_by_header + st.identical + st.remaining);

  // Same scheduler as every other source: any thread count and any
  // split into ranges reproduce the run bit for bit.
  SpliceRunConfig par = cfg;
  par.threads = 4;
  EXPECT_TRUE(corpus.run_range(par, 0, 4) == st);
  SpliceStats halves = corpus.run_range(cfg, 0, 2);
  halves.merge(corpus.run_range(par, 2, 99));
  EXPECT_TRUE(halves == st);
}

TEST_F(DirCorpus, FileEmptiedAfterListingIsSkipped) {
  const SpliceCorpus corpus({CorpusKind::kDirectory, root_.string()});
  ASSERT_EQ(corpus.file_count(), 4u);
  write(root_ / "b.txt", {});
  SpliceRunConfig cfg;
  cfg.flow = paper_flow_config();
  for (const unsigned threads : {1u, 4u}) {
    cfg.threads = threads;
    EXPECT_EQ(corpus.run_range(cfg, 0, 4).files, 3u) << threads;
  }
}

TEST_F(DirCorpus, CollectDirectoryStats) {
  const auto stats = collect_directory_stats(root_);
  EXPECT_GT(stats.cells_seen(), 100u);
  EXPECT_GT(stats.tcp_cells().total(), 100u);
}


TEST_F(DirCorpus, SymlinksAndSpecialEntriesSkipped) {
  std::error_code ec;
  fs::create_symlink(root_ / "a.bin", root_ / "link.bin", ec);
  if (!ec) {
    // A symlink to a regular file IS a regular file per
    // fs::is_regular_file (it follows links) — it gets picked up; a
    // dangling symlink must not.
    fs::create_symlink(root_ / "gone", root_ / "dangling", ec);
    const auto files = list_corpus_files(root_);
    for (const auto& p : files)
      EXPECT_NE(p.filename(), "dangling");
  }
}

TEST_F(DirCorpus, MissingRootThrows) {
  EXPECT_THROW(list_corpus_files(root_ / "does-not-exist"),
               fs::filesystem_error);
}

}  // namespace
}  // namespace cksum::core
