// Report formatting and the experiment driver helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"

namespace cksum::core {
namespace {

TEST(FmtCount, GroupsThousands) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(7), "7");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(123456), "123,456");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(1000000000ULL), "1,000,000,000");
}

TEST(FmtPct, AdaptivePrecision) {
  EXPECT_EQ(fmt_pct(0.0), "0");
  EXPECT_EQ(fmt_pct(0.5), "50.0000");
  EXPECT_EQ(fmt_pct(0.0017 / 100), "0.001700");
  // Tiny rates switch to scientific notation.
  EXPECT_EQ(fmt_pct(1.0 / 4294967296.0), "2.33e-08");
}

TEST(FmtPct, Ratio) {
  EXPECT_EQ(fmt_pct(1, 4), "25.0000");
  EXPECT_EQ(fmt_pct(1, 0), "-");
}

TEST(FmtSci, TwoSignificantDigits) {
  EXPECT_EQ(fmt_sci(0.000152), "1.52e-04");
}

TEST(TextTable, AlignmentAndSeparators) {
  TextTable t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "12,345"});
  t.add_separator();
  t.add_row({"tail", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header first, separator after it, all lines same width structure.
  EXPECT_EQ(out.find("name"), 0u);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Right-aligned numeric column: "1" ends where "12,345" ends.
  std::istringstream lines(out);
  std::string header, sep, row1, row2;
  std::getline(lines, header);
  std::getline(lines, sep);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_EQ(row1.size(), row2.size());
}

TEST(TextTable, RejectsColumnMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Experiments, PaperFlowConfig) {
  const net::FlowConfig cfg = paper_flow_config();
  EXPECT_EQ(cfg.segment_size, 256u);
  EXPECT_EQ(cfg.packet.transport, alg::Algorithm::kInternet);
  EXPECT_EQ(cfg.packet.placement, net::ChecksumPlacement::kHeader);
}

TEST(Experiments, ScaleFromEnv) {
  ::unsetenv("CKSUMLAB_SCALE");
  EXPECT_DOUBLE_EQ(scale_from_env(), 1.0);
  ::setenv("CKSUMLAB_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(scale_from_env(), 2.5);
  ::setenv("CKSUMLAB_SCALE", "bogus", 1);
  EXPECT_DOUBLE_EQ(scale_from_env(), 1.0);
  ::setenv("CKSUMLAB_SCALE", "-3", 1);
  EXPECT_DOUBLE_EQ(scale_from_env(), 1.0);
  ::unsetenv("CKSUMLAB_SCALE");
}

TEST(Experiments, RunProfileSmoke) {
  net::PacketConfig cfg;
  const SpliceStats st = run_profile(fsgen::profile("nsc05"), cfg, 0.1);
  EXPECT_GT(st.files, 0u);
  EXPECT_GT(st.total, 0u);
  EXPECT_EQ(st.total, st.caught_by_header + st.identical + st.remaining);
}

TEST(Experiments, CollectCellStatsSmoke) {
  CellStatsConfig cfg;
  cfg.ks = {1};
  const auto stats = collect_cell_stats(
      SpliceCorpus({CorpusKind::kProfile, "nsc05", 0.1}), cfg);
  EXPECT_GT(stats.cells_seen(), 0u);
}

}  // namespace
}  // namespace cksum::core
