// cksum_layers — the benchmark's traced replay (benchmark/README.md).
//
//   cksum_layers --mode mem|corpus --manifest <file> --store <path>
//                [--seconds s] [--trace-out <path>]
//
// Replays one workload's sequential splice loop from the library's
// public calls and times every call from outside, so each layer gets a
// busy time without any span inside the program:
//
//   mem     from_manifest -> per file: Filesystem::file ->
//           packetize_file -> evaluate_pair over its pairs -> merge
//   corpus  CorpusReader::open -> per file: file_packets ->
//           evaluate_pair over its pairs -> merge
//
// Both modes first replay the corpus build (generate, packetize, then
// the build_corpus overload that seals pre-packetised files, so seal is
// timed alone) into --store. The corpus mode's run phase reads that
// store; the mem mode opens and reconstructs it once afterwards, so
// every workload reports every store layer. The run phase repeats until
// --seconds have passed (at least once); spans of the first repetition
// are kept in memory and written as a Chrome trace when the run ends.
// DFS time is taken per file batch, never per pair: a clock read costs
// about as much as a small pair.
//
// stdout: one JSON object with per-layer seconds for the set-up and for
// every repetition, the dist frame encode/decode cost on a real shard
// result, and the splice report, which must equal `cksumlab splice`'s.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/splice_sim.hpp"
#include "dist/frame.hpp"
#include "dist/protocol.hpp"
#include "fsgen/corpus_store.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"

using namespace cksum;

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double ts_us = 0;
  double dur_us = 0;
  long long file = -1;  ///< -1: not tied to one file
};

/// Times calls into the layers: adds each call's duration to a per-layer
/// busy total and, while `record` is set, keeps it as a span.
class Recorder {
 public:
  bool record = true;

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  template <typename F>
  auto time(const char* layer, long long file, double& busy_s, F&& f) {
    const double t0 = now_us();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      finish(layer, file, busy_s, t0);
    } else {
      auto out = f();
      finish(layer, file, busy_s, t0);
      return out;
    }
  }

  void span(std::string name, long long file, double t0_us, double t1_us) {
    if (record) spans_.push_back({std::move(name), t0_us, t1_us - t0_us, file});
  }

  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f", s.ts_us,
                    s.dur_us);
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buf;
      if (s.file >= 0) out << ", \"args\": {\"file\": " << s.file << "}";
      out << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  void finish(const char* layer, long long file, double& busy_s, double t0) {
    const double t1 = now_us();
    busy_s += (t1 - t0) * 1e-6;
    span(layer, file, t0, t1);
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Per-layer busy seconds of one phase, keyed by layer name.
using Layers = std::map<std::string, double>;

std::string layers_json(const Layers& l) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, v] : l) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.9f", out.size() > 1 ? ", " : "",
                  name.c_str(), v);
    out += buf;
  }
  return out + "}";
}

std::uint64_t counter(const obs::Snapshot& s, std::string_view name) {
  const obs::MetricValue* m = s.find(name);
  return m != nullptr ? m->value : 0;
}

/// Evaluate one file's adjacent pairs into a fresh SpliceStats, as the
/// CLI's sequential loop does (files/packets included).
core::SpliceStats eval_file(const net::PacketConfig& cfg,
                            const std::vector<core::SimPacket>& pkts) {
  core::SpliceStats st;
  st.files = 1;
  st.packets = pkts.size();
  for (std::size_t j = 0; j + 1 < pkts.size(); ++j)
    core::evaluate_pair(cfg, pkts[j], pkts[j + 1], st);
  return st;
}

/// Median ns per call of `op` over a few batches of 1,000 calls.
template <typename F>
double batch_ns(F&& op) {
  constexpr int kBatch = 1000;
  std::vector<double> per_call;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) op();
    per_call.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        kBatch);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

int fail(const std::string& why) {
  std::fprintf(stderr, "cksum_layers: %s\n", why.c_str());
  return 1;
}

int replay(int argc, char** argv) {
  std::string mode, manifest_path, store_path, trace_out;
  double seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return fail("option " + a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--mode") {
      mode = v;
    } else if (a == "--manifest") {
      manifest_path = v;
    } else if (a == "--store") {
      store_path = v;
    } else if (a == "--seconds") {
      seconds = std::stod(v);
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return fail("unknown option " + a);
    }
  }
  if ((mode != "mem" && mode != "corpus") || manifest_path.empty() ||
      store_path.empty())
    return fail("usage: --mode mem|corpus --manifest <file> --store <path> "
                "[--seconds s] [--trace-out <path>]");
  const bool mem = mode == "mem";

  const util::Bytes text = core::read_file_prefix(manifest_path, 1u << 24);
  const std::string_view manifest(reinterpret_cast<const char*>(text.data()),
                                  text.size());
  const fsgen::FsProfile& prof = fsgen::profile("nsc05");
  const net::FlowConfig flow = core::paper_flow_config();
  const net::PacketConfig& pcfg = flow.packet;
  obs::Registry& reg = obs::Registry::global();
  core::register_splice_metrics();
  Recorder rec;

  // Set-up replay: what `cksumlab corpus build --manifest` does, with
  // generate, packetize and seal timed apart.
  Layers setup;
  std::uint64_t gen_bytes = 0, cells = 0;
  {
    const double t0 = rec.now_us();
    const fsgen::Filesystem fs = fsgen::Filesystem::from_manifest(prof, manifest);
    std::vector<std::vector<core::SimPacket>> files(fs.file_count());
    for (std::size_t i = 0; i < fs.file_count(); ++i) {
      const double f0 = rec.now_us();
      const util::Bytes bytes = rec.time("fsgen.generate", i,
                                         setup["fsgen.generate"],
                                         [&] { return fs.file(i); });
      files[i] = rec.time("core.packetize", i, setup["core.packetize"], [&] {
        return core::packetize_file(flow, util::ByteView(bytes));
      });
      rec.span("setup.file", i, f0, rec.now_us());
      gen_bytes += bytes.size();
      for (const core::SimPacket& sp : files[i]) cells += sp.pdu.num_cells();
    }
    fsgen::CorpusBuildParams params;
    params.profile = manifest_path;
    params.flow = flow;
    std::string err;
    const bool sealed =
        rec.time("fsgen.corpus.seal", -1, setup["fsgen.corpus.seal"],
                 [&] { return fsgen::build_corpus(params, files, store_path, &err); });
    if (!sealed) return fail("seal failed: " + err);
    rec.span("setup", -1, t0, rec.now_us());
  }
  std::uint64_t store_bytes = 0;
  {
    std::string err;
    const auto rd = fsgen::CorpusReader::open(store_path, &err);
    if (!rd) return fail("sealed store does not open: " + err);
    store_bytes = rd->info().file_size;
  }

  // Run phase: the workload's own loop, repeated until --seconds pass.
  std::vector<Layers> runs;
  core::SpliceStats result;
  const auto phase_start = Clock::now();
  do {
    Layers l;
    core::SpliceStats st;
    const obs::Snapshot before = reg.snapshot();
    const double t0 = rec.now_us();
    if (mem) {
      const fsgen::Filesystem fs =
          rec.time("fsgen.manifest", -1, l["fsgen.manifest"], [&] {
            return fsgen::Filesystem::from_manifest(prof, manifest);
          });
      for (std::size_t i = 0; i < fs.file_count(); ++i) {
        const double f0 = rec.now_us();
        const util::Bytes bytes = rec.time("fsgen.generate", i,
                                           l["fsgen.generate"],
                                           [&] { return fs.file(i); });
        const auto pkts = rec.time("core.packetize", i, l["core.packetize"], [&] {
          return core::packetize_file(flow, util::ByteView(bytes));
        });
        const core::SpliceStats fst = rec.time(
            "core.splice.dfs", i, l["core.splice.dfs"],
            [&] { return eval_file(pcfg, pkts); });
        rec.time("core.splice.merge", i, l["core.splice.merge"],
                 [&] { st.merge(fst); });
        rec.span("file", i, f0, rec.now_us());
      }
    } else {
      std::string err;
      const auto rd = rec.time("fsgen.corpus.open", -1, l["fsgen.corpus.open"],
                               [&] { return fsgen::CorpusReader::open(store_path, &err); });
      if (!rd) return fail("store does not open: " + err);
      for (std::size_t i = 0; i < rd->file_count(); ++i) {
        const double f0 = rec.now_us();
        const auto pkts =
            rec.time("fsgen.corpus.reconstruct", i, l["fsgen.corpus.reconstruct"],
                     [&] { return rd->file_packets(i); });
        const core::SpliceStats fst = rec.time(
            "core.splice.dfs", i, l["core.splice.dfs"],
            [&] { return eval_file(pcfg, pkts); });
        rec.time("core.splice.merge", i, l["core.splice.merge"],
                 [&] { st.merge(fst); });
        rec.span("file", i, f0, rec.now_us());
      }
    }
    const double t1 = rec.now_us();
    rec.span("run", -1, t0, t1);
    rec.record = false;
    l["wall"] = (t1 - t0) * 1e-6;
    l["dfs_nodes"] = static_cast<double>(
        counter(reg.snapshot(), "splice.dfs_nodes") -
        counter(before, "splice.dfs_nodes"));
    if (!runs.empty() && !(st == result))
      return fail("splice results differ between repetitions");
    result = st;
    runs.push_back(std::move(l));
  } while (std::chrono::duration<double>(Clock::now() - phase_start).count() <
           seconds);

  // The in-memory path never reads a store; measure it once anyway so
  // every workload reports every layer.
  Layers probe;
  if (mem) {
    std::string err;
    const auto rd = rec.time("fsgen.corpus.open", -1, probe["fsgen.corpus.open"],
                             [&] { return fsgen::CorpusReader::open(store_path, &err); });
    if (!rd) return fail("store does not open: " + err);
    for (std::size_t i = 0; i < rd->file_count(); ++i)
      rec.time("fsgen.corpus.reconstruct", i, probe["fsgen.corpus.reconstruct"],
               [&] { return rd->file_packets(i).size(); });
  }

  // dist frame cost on a real shard result: the first file with a pair,
  // evaluated as a one-file lease, with the worker's registry deltas.
  double encode_ns = 0, decode_ns = 0;
  std::size_t frame_bytes = 0;
  {
    std::string err;
    const auto rd = fsgen::CorpusReader::open(store_path, &err);
    if (!rd) return fail("store does not open: " + err);
    std::size_t f = 0;
    std::vector<core::SimPacket> pkts;
    for (; f < rd->file_count(); ++f) {
      pkts = rd->file_packets(f);
      if (pkts.size() >= 2) break;
    }
    const obs::Snapshot before = reg.snapshot();
    dist::LeaseResultMsg msg;
    msg.shard = f;
    msg.epoch = 1;
    msg.job = 1;
    msg.stats = eval_file(pcfg, pkts);
    msg.deltas = obs::counter_deltas(before, reg.snapshot());
    std::uint32_t seq = 0;
    util::Bytes wire;
    encode_ns = batch_ns([&] {
      wire = dist::encode_frame(dist::MsgType::kLeaseResult, seq++,
                                dist::encode(msg));
    });
    frame_bytes = wire.size();
    bool ok = true;
    decode_ns = batch_ns([&] {
      dist::MsgType type{};
      std::uint32_t s = 0, len = 0;
      ok &= dist::decode_frame_header(wire.data(), &type, &s, &len);
      const util::ByteView body(wire.data(), dist::kFrameHeaderLen + len);
      std::uint32_t stored = 0;
      for (int b = 0; b < 4; ++b)
        stored |= static_cast<std::uint32_t>(
                      wire[dist::kFrameHeaderLen + len + b])
                  << (8 * b);
      ok &= dist::frame_crc_ok(body, stored);
      const auto back = dist::decode_lease_result(
          body.subspan(dist::kFrameHeaderLen, len));
      ok &= back.has_value() && back->stats == msg.stats;
    });
    if (!ok) return fail("lease result does not survive its frame");
  }

  if (!trace_out.empty() && !rec.write_chrome_trace(trace_out))
    return fail("cannot write " + trace_out);

  std::string out = "{\"mode\": \"" + mode + "\"";
  out += ", \"setup\": " + layers_json(setup);
  out += ", \"generate_bytes\": " + std::to_string(gen_bytes);
  out += ", \"cells\": " + std::to_string(cells);
  out += ", \"store_bytes\": " + std::to_string(store_bytes);
  out += ", \"runs\": [";
  for (std::size_t r = 0; r < runs.size(); ++r)
    out += (r != 0 ? ", " : "") + layers_json(runs[r]);
  out += "], \"store_probe\": " + layers_json(probe);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ", \"frame\": {\"encode_ns\": %.3f, \"decode_ns\": %.3f, "
                "\"bytes\": %zu}",
                encode_ns, decode_ns, frame_bytes);
  out += buf;
  out += ", \"report\": " +
         core::splice_stats_json(result, alg::name(pcfg.transport)) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return replay(argc, argv);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
