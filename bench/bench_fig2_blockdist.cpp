// Figure 2: Distribution of the TCP checksum over blocks of k cells
// in smeg.stanford.edu:/u1.
//
// Prints the three panels as data series:
//   (a) full sorted PDF (log-sampled x),
//   (b) PDF of the 65 most common values,
//   (c) CDF of the 65 most common values,
// for measured k = 1, 2, 4, 8 along with the iid convolution
// prediction for k = 2 ("Predict", Equation 1) and the uniform line.
#include <cstdio>
#include <string_view>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "stats/distribution.hpp"

using namespace cksum;

int main(int argc, char** argv) {
  // --csv: dump the full sorted PDFs as CSV (rank,k1,k2,k4,k8,predict2)
  // for external plotting.
  const bool csv = argc > 1 && std::string_view(argv[1]) == "--csv";
  const double scale = core::scale_from_env();
  core::CellStatsConfig cfg;
  cfg.ks = {1, 2, 4, 8};
  const auto stats = core::collect_cell_stats(
      core::SpliceCorpus(
          {core::CorpusKind::kProfile, "smeg.stanford.edu:/u1", scale}),
      cfg);

  const auto d1 = stats::Distribution::from_histogram(stats.tcp_cells());
  const auto predict2 = d1.self_convolve(2);
  const std::vector<double> predict_sorted = predict2.sorted();
  const double uniform = 1.0 / 65535.0;

  if (csv) {
    std::printf("rank,k1,k2,k4,k8,predict2,uniform\n");
    const auto c1 = stats.tcp_blocks(1).sorted_pdf();
    const auto c2 = stats.tcp_blocks(2).sorted_pdf();
    const auto c4 = stats.tcp_blocks(4).sorted_pdf();
    const auto c8 = stats.tcp_blocks(8).sorted_pdf();
    for (std::size_t r = 0; r < 65535; ++r) {
      if (c1[r] == 0 && c2[r] == 0 && c4[r] == 0 && c8[r] == 0 &&
          predict_sorted[r] < uniform / 10)
        break;
      std::printf("%zu,%.6e,%.6e,%.6e,%.6e,%.6e,%.6e\n", r + 1, c1[r],
                  c2[r], c4[r], c8[r], predict_sorted[r], uniform);
    }
    return 0;
  }

  std::printf(
      "== Figure 2: TCP checksum distribution over k-cell blocks "
      "(smeg:/u1) ==\n");
  std::printf("cells measured: %llu; k=1 PMax=%.3e (uniform %.3e)\n\n",
              static_cast<unsigned long long>(stats.cells_seen()),
              stats.tcp_cells().pmax(), uniform);

  const auto s1 = stats.tcp_blocks(1).sorted_pdf();
  const auto s2 = stats.tcp_blocks(2).sorted_pdf();
  const auto s4 = stats.tcp_blocks(4).sorted_pdf();
  const auto s8 = stats.tcp_blocks(8).sorted_pdf();

  std::printf("(a) full sorted PDF (rank: probability), log-sampled ranks\n");
  std::printf("%8s  %10s  %10s  %10s  %10s  %10s  %10s\n", "rank", "k=1",
              "k=2", "k=4", "k=8", "predict2", "uniform");
  for (std::size_t rank = 1; rank < 65535; rank *= 4) {
    std::printf("%8zu  %10.3e  %10.3e  %10.3e  %10.3e  %10.3e  %10.3e\n",
                rank, s1[rank - 1], s2[rank - 1], s4[rank - 1], s8[rank - 1],
                predict_sorted[rank - 1], uniform);
  }

  std::printf("\n(b) PDF, 65 most common values\n");
  std::printf("%6s  %10s  %10s  %10s  %10s  %10s\n", "rank", "k=1", "k=2",
              "k=4", "predict2", "uniform");
  for (std::size_t rank = 1; rank <= 65; rank += 4) {
    std::printf("%6zu  %10.3e  %10.3e  %10.3e  %10.3e  %10.3e\n", rank,
                s1[rank - 1], s2[rank - 1], s4[rank - 1],
                predict_sorted[rank - 1], uniform);
  }

  std::printf("\n(c) CDF, 65 most common values\n");
  auto cdf = [](const std::vector<double>& s, std::size_t upto) {
    double total = 0;
    for (std::size_t i = 0; i < upto; ++i) total += s[i];
    return total;
  };
  std::printf("%6s  %10s  %10s  %10s  %10s  %10s\n", "rank", "k=1", "k=2",
              "k=4", "predict2", "uniform");
  for (std::size_t rank = 5; rank <= 65; rank += 10) {
    std::printf("%6zu  %10.3e  %10.3e  %10.3e  %10.3e  %10.3e\n", rank,
                cdf(s1, rank), cdf(s2, rank), cdf(s4, rank),
                cdf(predict_sorted, rank),
                uniform * static_cast<double>(rank));
  }

  std::printf(
      "\nsummary: top 0.1%% of values carries %.2f%% of mass at k=1 "
      "(paper: 1-5%%; uniform would be 0.1%%)\n",
      100.0 * stats.tcp_cells().top_fraction_mass(0.001));
  return 0;
}
