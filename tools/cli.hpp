// The front-end cksumlab and faultlab share: option tables, value
// decoding, the telemetry manifest around a run, and the worker entry
// of a distributed run.
//
// Each subcommand declares its flags as a table of Opt entries; one
// loop walks the arguments and one decoder checks every value, so a
// subcommand accepts exactly the flags in its own table and a
// malformed value is a usage error (exit 2) naming the option.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "checksum/checksum.hpp"
#include "dist/worker.hpp"
#include "net/packet.hpp"
#include "obs/exporter.hpp"

namespace cksum::tools {

/// The field an option sets; its type says how the value is read:
///   bool*                    a flag (takes no value), set to true
///   net::ChecksumPlacement*  the flag `--trailer`, set to kTrailer
///   std::string*             the value as given
///   unsigned*, unsigned long*, unsigned long long*
///                            an unsigned number that fits the field
///   std::uint16_t*           a TCP port, 1..65535
///   double*                  a finite non-negative real
///   alg::Algorithm*          a transport checksum: tcp, f255 or f256
using Field =
    std::variant<bool*, net::ChecksumPlacement*, std::string*, unsigned*,
                 unsigned long*, unsigned long long*, std::uint16_t*, double*,
                 alg::Algorithm*>;

/// One row of a subcommand's option table.
struct Opt {
  std::string_view name;  ///< "--threads"
  Field field;
  /// Number base: 0 (C rules: 0x… hex, 0… octal) for seeds and
  /// scenarios, which reproducer lines print in hex.
  int base = 10;
  bool* seen = nullptr;  ///< set to true when the option is given
};

/// `text` as a number of type T, or std::nullopt unless it is one:
/// digits only (no sign, space or suffix) in `base`, within T's range.
template <typename T>
std::optional<T> to_number(const std::string& text, int base = 10) {
  const bool digit_first =
      !text.empty() && ((text[0] >= '0' && text[0] <= '9') ||
                        (std::is_floating_point_v<T> && text[0] == '.'));
  if (!digit_first) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  if constexpr (std::is_floating_point_v<T>) {
    const double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || *end != '\0' || !std::isfinite(v))
      return std::nullopt;
    return v;
  } else {
    const unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (errno == ERANGE || *end != '\0' || v > std::numeric_limits<T>::max())
      return std::nullopt;
    return static_cast<T>(v);
  }
}

/// to_number into `out`; on a malformed value prints
/// "<tool>: <what> expects a number, got '<text>'" and returns false.
template <typename T>
bool read_number(const char* tool, std::string_view what,
                 const std::string& text, T& out, int base = 10) {
  const std::optional<T> v = to_number<T>(text, base);
  if (!v) {
    std::fprintf(stderr, "%s: %.*s expects a number, got '%s'\n", tool,
                 static_cast<int>(what.size()), what.data(), text.c_str());
    return false;
  }
  out = *v;
  return true;
}

/// A TCP port in 1..65535 into `out`; prints why not and returns false
/// otherwise (a wider value would bind or connect somewhere unrelated).
inline bool read_port(const char* tool, std::string_view what,
                      const std::string& text, std::uint16_t& out) {
  const std::optional<unsigned long> v = to_number<unsigned long>(text);
  if (!v || *v == 0 || *v > 65535) {
    std::fprintf(stderr, "%s: %.*s wants a port in 1..65535, got '%s'\n",
                 tool, static_cast<int>(what.size()), what.data(),
                 text.c_str());
    return false;
  }
  out = static_cast<std::uint16_t>(*v);
  return true;
}

/// Walk `args` against `table`. A non-option argument goes to
/// `positional` when the subcommand takes any; everything else must
/// be a row of `table`. On the first bad argument prints the reason
/// ("<tool>: ...") and returns false.
inline bool parse_options(std::span<const std::string> args,
                          const std::vector<Opt>& table, const char* tool,
                          std::vector<std::string>* positional = nullptr) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto opt = std::find_if(table.begin(), table.end(),
                                  [&](const Opt& o) { return o.name == a; });
    if (opt == table.end()) {
      if (positional != nullptr && !a.starts_with('-')) {
        positional->push_back(a);
        continue;
      }
      std::fprintf(stderr, "%s: unknown option '%s'\n", tool, a.c_str());
      return false;
    }
    if (opt->seen != nullptr) *opt->seen = true;
    if (bool* const* flag = std::get_if<bool*>(&opt->field)) {
      **flag = true;
      continue;
    }
    if (auto* const* p = std::get_if<net::ChecksumPlacement*>(&opt->field)) {
      **p = net::ChecksumPlacement::kTrailer;
      continue;
    }
    if (i + 1 == args.size()) {
      std::fprintf(stderr, "%s: %s expects a value\n", tool, a.c_str());
      return false;
    }
    const std::string& v = args[++i];
    const bool ok = std::visit(
        [&](auto* field) {
          using T = std::remove_pointer_t<decltype(field)>;
          if constexpr (std::is_same_v<T, std::string>) {
            *field = v;
            return true;
          } else if constexpr (std::is_same_v<T, std::uint16_t>) {
            return read_port(tool, a, v, *field);
          } else if constexpr (std::is_same_v<T, alg::Algorithm>) {
            if (v == "tcp") {
              *field = alg::Algorithm::kInternet;
            } else if (v == "f255") {
              *field = alg::Algorithm::kFletcher255;
            } else if (v == "f256") {
              *field = alg::Algorithm::kFletcher256;
            } else {
              std::fprintf(stderr, "%s: %s wants tcp, f255 or f256, got '%s'\n",
                           tool, a.c_str(), v.c_str());
              return false;
            }
            return true;
          } else if constexpr (std::is_arithmetic_v<T> &&
                               !std::is_same_v<T, bool>) {
            return read_number(tool, a, v, *field, opt->base);
          } else {
            return false;  // flags were handled above
          }
        },
        opt->field);
    if (!ok) return false;
  }
  return true;
}

/// The worker side of a distributed run:
/// `--connect host:port [--worker-id n] [--metrics-out path]`. The
/// service ships the corpus and run configuration, so only connection
/// identity is parsed. `worker_tool` names the worker's sub-manifest.
/// Prints the reason and returns std::nullopt on bad arguments.
inline std::optional<dist::WorkerOptions> parse_worker(
    std::span<const std::string> args, const char* tool,
    std::string worker_tool) {
  dist::WorkerOptions w;
  w.tool = std::move(worker_tool);
  std::string hostport;
  if (!parse_options(args,
                     {{"--connect", &hostport},
                      {"--worker-id", &w.worker_id},
                      {"--metrics-out", &w.metrics_out}},
                     tool))
    return std::nullopt;
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "%s: --connect wants host:port\n", tool);
    return std::nullopt;
  }
  if (!read_port(tool, "--connect", hostport.substr(colon + 1), w.port))
    return std::nullopt;
  w.host = hostport.substr(0, colon);
  return w;
}

using TickerLine = std::string (*)(const obs::Snapshot&, double elapsed);

/// Telemetry export around one run. The exporter exists only when
/// `--metrics-out` or `--progress` asked for it; the stderr ticker
/// draws when the command supplies a ticker line and either
/// `--progress` was given or stderr is a terminal.
class RunManifest {
 public:
  RunManifest(const std::string& metrics_out, bool progress,
              TickerLine ticker_line = nullptr)
      : path_(metrics_out) {
    if (metrics_out.empty() && !progress) return;
    obs::MetricsExporter::Options eo;
    eo.manifest_path = metrics_out;
    eo.ticker = ticker_line != nullptr && (progress || isatty(2) != 0);
    if (ticker_line != nullptr) eo.ticker_line = ticker_line;
    exporter_ = std::make_unique<obs::MetricsExporter>(obs::Registry::global(),
                                                       std::move(eo));
  }

  /// Stop the exporter and write the manifest: the run's identity,
  /// the kernel selection, then `members` (rendered `, "name": value`
  /// text). True when none was asked for; on a write failure prints
  /// "<tool>: cannot write manifest to <path>" and returns false.
  bool finish(const std::string& tool, const std::string& corpus,
              std::uint64_t seed, unsigned threads,
              const std::string& members = {}) {
    if (!exporter_) return true;
    obs::RunInfo info;
    info.tool = tool;
    info.corpus = corpus;
    info.seed = seed;
    info.threads = threads;
    info.extra_json = alg::kern::kernel_manifest_json() + members;
    if (exporter_->finish(std::move(info))) return true;
    std::fprintf(stderr, "%s: cannot write manifest to %s\n",
                 tool.substr(0, tool.find(' ')).c_str(), path_.c_str());
    return false;
  }

 private:
  std::string path_;
  std::unique_ptr<obs::MetricsExporter> exporter_;
};

}  // namespace cksum::tools
