#include "core/cellstats.hpp"

#include <stdexcept>

#include "checksum/fletcher.hpp"
#include "checksum/internet.hpp"
#include "checksum/kernels/kernel.hpp"
#include "util/hash.hpp"

namespace cksum::core {

namespace {
constexpr std::size_t kCell = 48;
}

CellStatsCollector::CellStatsCollector(CellStatsConfig cfg)
    : cfg_(std::move(cfg)) {
  for (std::size_t k : cfg_.ks) {
    blocks_.emplace(k, stats::Histogram(65535));
    local_.emplace(k, LocalCounts{});
  }
}

const stats::Histogram& CellStatsCollector::tcp_blocks(std::size_t k) const {
  const auto it = blocks_.find(k);
  if (it == blocks_.end())
    throw std::out_of_range("tcp_blocks: k not configured");
  return it->second;
}

const CellStatsCollector::LocalCounts& CellStatsCollector::local(
    std::size_t k) const {
  const auto it = local_.find(k);
  if (it == local_.end()) throw std::out_of_range("local: k not configured");
  return it->second;
}

void CellStatsCollector::merge(const CellStatsCollector& other) {
  if (other.blocks_.size() != blocks_.size() ||
      other.cfg_.segment_size != cfg_.segment_size)
    throw std::invalid_argument("CellStatsCollector::merge: config mismatch");
  tcp_cells_.merge(other.tcp_cells_);
  f255_cells_.merge(other.f255_cells_);
  f256_cells_.merge(other.f256_cells_);
  for (auto& [k, hist] : blocks_) hist.merge(other.blocks_.at(k));
  for (auto& [k, lc] : local_) {
    const LocalCounts& o = other.local_.at(k);
    lc.pairs += o.pairs;
    lc.congruent += o.congruent;
    lc.congruent_identical += o.congruent_identical;
  }
  cells_seen_ += other.cells_seen_;
}

void CellStatsCollector::add_file(util::ByteView file) {
  // Full-size cells of this file, in order, as (canonical Internet
  // sum, content hash).
  std::vector<std::uint16_t> sums;
  std::vector<std::uint64_t> hashes;
  sums.reserve(file.size() / kCell + 1);
  hashes.reserve(file.size() / kCell + 1);

  for (std::size_t seg = 0; seg < file.size(); seg += cfg_.segment_size) {
    const std::size_t seg_len = std::min(cfg_.segment_size, file.size() - seg);
    for (std::size_t off = 0; off < seg_len; off += kCell) {
      const std::size_t cell_len = std::min(kCell, seg_len - off);
      const util::ByteView cell = file.subspan(seg + off, cell_len);
      const std::uint16_t sum =
          alg::ones_canonical(alg::kern::internet_sum(cell));
      if (cell_len == kCell) {
        sums.push_back(sum);
        hashes.push_back(util::hash64(cell));
      }
      ++cells_seen_;
      tcp_cells_.add(sum % 65535u);
      f255_cells_.add(alg::fletcher_value(
          alg::kern::fletcher_block(cell, alg::FletcherMod::kOnes255)));
      f256_cells_.add(alg::fletcher_value(
          alg::kern::fletcher_block(cell, alg::FletcherMod::kTwos256)));
    }
  }

  const std::size_t window_cells =
      std::max<std::size_t>(1, cfg_.local_window_bytes / kCell);

  for (std::size_t k : cfg_.ks) {
    if (sums.size() < k) continue;
    const std::size_t nblocks = sums.size() - k + 1;

    // Block sums/hashes, sliding one cell at a time.
    std::vector<std::uint16_t> bsums(nblocks);
    std::vector<std::uint64_t> bhash(nblocks);
    for (std::size_t i = 0; i < nblocks; ++i) {
      std::uint32_t s = 0;
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (std::size_t j = 0; j < k; ++j) {
        s += sums[i + j];
        h = util::combine_hash(h, hashes[i + j]);
      }
      bsums[i] = static_cast<std::uint16_t>(s % 65535u);
      bhash[i] = h;
    }

    stats::Histogram& hist = blocks_.at(k);
    for (std::uint16_t s : bsums) hist.add(s);

    // Local pairs: non-overlapping-start pairs within the window.
    LocalCounts& lc = local_.at(k);
    for (std::size_t i = 0; i < nblocks; ++i) {
      const std::size_t jend = std::min(nblocks, i + window_cells + 1);
      for (std::size_t j = i + 1; j < jend; ++j) {
        ++lc.pairs;
        if (bsums[i] == bsums[j]) {
          ++lc.congruent;
          if (bhash[i] == bhash[j]) ++lc.congruent_identical;
        }
      }
    }
  }
}

}  // namespace cksum::core
