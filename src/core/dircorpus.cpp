#include "core/dircorpus.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/timer.hpp"
#include "util/parallel.hpp"

namespace cksum::core {

namespace fs = std::filesystem;

namespace {

/// sched.file_bytes_ns: one file's bytes made (generated, or read for
/// a directory), once per SpliceCorpus::file_bytes call.
obs::Histogram file_bytes_ns() {
  static const obs::Histogram h = obs::Registry::global().histogram(
      "sched.file_bytes_ns", obs::Tag::kTiming);
  return h;
}

}  // namespace

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
  return util::read_file(path.string(), max_bytes).value_or(util::Bytes{});
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
  (void)file_bytes_ns();  // manifests carry it from the open on
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
  if (store_)
    throw std::logic_error("a corpus store keeps packets, not file bytes");
  obs::ScopedTimer timer(file_bytes_ns());
  if (fs_) return fs_->file(i);
  std::optional<util::Bytes> file =
      util::read_file(files_[i].string(), DirLimits{}.max_file_bytes);
  if (file && file->empty()) return std::nullopt;
  return file;
}

CellStatsCollector collect_cell_stats(const SpliceCorpus& corpus,
                                      CellStatsConfig cfg, unsigned threads) {
  const std::size_t n = corpus.file_count();
  std::vector<CellStatsCollector> partial(util::pool_threads(n, threads),
                                          CellStatsCollector(cfg));
  util::for_each_index(n, threads, [&](unsigned t, std::size_t i) {
    if (const std::optional<util::Bytes> file = corpus.file_bytes(i))
      partial[t].add_file(util::ByteView(*file));
  });

  CellStatsCollector collector(std::move(cfg));
  for (const auto& p : partial) collector.merge(p);
  return collector;
}

}  // namespace cksum::core
