#include "core/dircorpus.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

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
  end = std::min(end, file_count());
  begin = std::min(begin, end);
  return run_bytes_range(
      cfg, [this](std::size_t i) { return file_bytes(i); }, begin, end);
}

std::optional<util::Bytes> SpliceCorpus::file_bytes(std::size_t i) const {
  if (fs_) return fs_->file(i);
  if (store_)
    throw std::logic_error("a corpus store keeps packets, not file bytes");
  util::Bytes file = read_file_prefix(files_[i], DirLimits{}.max_file_bytes);
  if (file.empty()) return std::nullopt;
  return file;
}

CellStatsCollector collect_cell_stats(const SpliceCorpus& corpus,
                                      CellStatsConfig cfg, unsigned threads) {
  const std::size_t n = corpus.file_count();
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(std::clamp<std::size_t>(n, 1, threads));

  std::vector<CellStatsCollector> partial(threads, CellStatsCollector(cfg));
  std::vector<std::exception_ptr> errors(threads);
  std::atomic<std::size_t> next{0};
  auto worker = [&](unsigned t) {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < n;)
        if (const std::optional<util::Bytes> file = corpus.file_bytes(i))
          partial[t].add_file(util::ByteView(*file));
    } catch (...) {
      errors[t] = std::current_exception();
      next = n;  // stop the other workers
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  CellStatsCollector collector(std::move(cfg));
  for (const auto& p : partial) collector.merge(p);
  return collector;
}

}  // namespace cksum::core
