#include "core/dircorpus.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace cksum::core {

namespace fs = std::filesystem;

std::vector<fs::path> list_corpus_files(const fs::path& root,
                                        const DirLimits& limits) {
  std::vector<fs::path> files;
  std::error_code ec;
  fs::recursive_directory_iterator it(
      root, fs::directory_options::skip_permission_denied, ec);
  if (ec) throw fs::filesystem_error("list_corpus_files", root, ec);
  for (const auto& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    files.push_back(entry.path());
  }
  // Deterministic order regardless of directory iteration order.
  std::sort(files.begin(), files.end());

  std::vector<fs::path> limited;
  std::size_t total = 0;
  for (const auto& p : files) {
    if (limited.size() >= limits.max_files) break;
    std::error_code size_ec;
    const auto size = fs::file_size(p, size_ec);
    if (size_ec || size == 0) continue;
    const std::size_t take =
        std::min<std::size_t>(size, limits.max_file_bytes);
    if (total + take > limits.max_total_bytes) break;
    total += take;
    limited.push_back(p);
  }
  return limited;
}

util::Bytes read_file_prefix(const fs::path& path, std::size_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  util::Bytes out;
  if (!in) return out;
  out.resize(max_bytes);
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(max_bytes));
  out.resize(static_cast<std::size_t>(in.gcount()));
  return out;
}

std::optional<fsgen::Filesystem> open_filesystem(const CorpusSource& src) {
  switch (src.kind) {
    case CorpusKind::kProfile:
      return fsgen::Filesystem(fsgen::profile(src.corpus), src.scale);
    case CorpusKind::kManifest:
      return fsgen::Filesystem::from_manifest(fsgen::profile("nsc05"),
                                              src.corpus);
    case CorpusKind::kDirectory:
    case CorpusKind::kCorpusFile:
      break;
  }
  return std::nullopt;
}

SpliceCorpus::SpliceCorpus(const CorpusSource& src)
    : fs_(open_filesystem(src)) {
  if (src.kind == CorpusKind::kDirectory) {
    files_ = list_corpus_files(src.corpus);
  } else if (src.kind == CorpusKind::kCorpusFile) {
    std::string err;
    store_ = fsgen::CorpusReader::open(src.corpus, &err);
    if (!store_)
      throw std::runtime_error("corpus store " + src.corpus + ": " + err);
  }
}

std::size_t SpliceCorpus::file_count() const {
  if (store_) return store_->file_count();
  return fs_ ? fs_->file_count() : files_.size();
}

SpliceRunConfig SpliceCorpus::run_config(SpliceRunConfig requested) const {
  if (store_) {
    requested.flow = store_->info().params.flow;
    requested.compress_files = false;
  }
  return requested;
}

SpliceStats SpliceCorpus::run_range(const SpliceRunConfig& cfg,
                                    std::size_t begin, std::size_t end) const {
  if (store_) return run_corpus_range(cfg, *store_, begin, end);
  if (fs_) return run_filesystem_range(cfg, *fs_, begin, end);
  return run_files_range(cfg, files_, begin, end);
}

CellStatsCollector collect_directory_stats(const fs::path& root,
                                           CellStatsConfig cfg,
                                           const DirLimits& limits) {
  CellStatsCollector collector(std::move(cfg));
  for (const auto& path : list_corpus_files(root, limits)) {
    const util::Bytes file = read_file_prefix(path, limits.max_file_bytes);
    if (file.empty()) continue;
    collector.add_file(util::ByteView(file));
  }
  return collector;
}

}  // namespace cksum::core
