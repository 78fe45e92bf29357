// Seeded mutational fuzzer over the parsers that must never fault
// (docs/ROBUSTNESS.md). Each target replays tests/fuzz_regress/<target>/,
// then a fixed number of mutants of seeds from the repo's own writers; an
// input that faults or breaks an invariant goes to fuzz-crash-<target>.bin.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#include "atm/demux.hpp"
#include "checksum/kernels/kernel.hpp"
#include "core/experiments.hpp"
#include "dist/frame.hpp"
#include "dist/protocol.hpp"
#include "fsgen/corpus_store.hpp"
#include "trace/ingest.hpp"
#include "util/pcap.hpp"

namespace cksum {
namespace {

using util::ByteView;
using util::Bytes;

// The input under test and where it goes if the process dies on it:
// plain globals, as the hooks may only make async-signal-safe calls.
const Bytes* g_input = nullptr;
char g_repro_path[64];
volatile std::uint64_t g_sink;  // keeps the reads of parsed views

void write_repro() {
  const int fd = g_input == nullptr ? -1
                 : ::open(g_repro_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  [[maybe_unused]] const auto n = ::write(fd, g_input->data(), g_input->size());
  ::close(fd);
}

// A fault ends the process through a signal (SIGABRT for an uncaught
// exception or a failed library assertion) or ASan's death callback.
const bool g_hooked = [] {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_set_death_callback(write_repro);
  const int signals[] = {SIGABRT};
#else
  const int signals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
#endif
  for (const int sig : signals)
    std::signal(sig, [](int s) {
      write_repro();
      std::signal(s, SIG_DFL);
      std::raise(s);
    });
  return true;
}();

template <class T>
void touch(std::span<const T> s) {
  for (const std::byte b : std::as_bytes(s)) g_sink = g_sink + unsigned(b);
}

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(f)), {});
}

/// Replays the target's committed inputs, then `iterations` draws; check
/// names the invariant an input broke ("" when all held).
template <class Draw, class Check>
void fuzz(const char* name, const std::vector<Bytes>& seeds, Draw draw,
          Check check, int iterations) {
  std::snprintf(g_repro_path, sizeof g_repro_path, "fuzz-crash-%s.bin", name);
  const auto one = [&](const Bytes& in, const std::string& what) {
    g_input = &in;
    const std::string why = check(in);
    if (!why.empty()) write_repro();
    g_input = nullptr;
    EXPECT_EQ(why, "") << name << ", " << what << ": see " << g_repro_path;
    return why.empty();
  };
  const auto dir = std::filesystem::path(CKSUM_FUZZ_REGRESS_DIR) / name;
  if (std::filesystem::is_directory(dir))
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (!one(read_file(e.path()), e.path().filename())) return;
  util::Rng rng(0xF022);
  for (int i = 0; i < iterations; ++i)
    if (!one(draw(rng, seeds), "iteration " + std::to_string(i))) return;
}

/// A write to an aligned LE u32 or u64 (half the time in the first 64
/// bytes, where headers sit): ±1, 0, ~0, or + 2^(w-4..w-2) for a w-bit
/// field, so a count times a record size can wrap to the real size.
void poke_field(util::Rng& rng, Bytes& b) {
  const std::size_t w = rng.chance(0.5) ? 8 : 4;
  const std::size_t span =
      rng.chance(0.5) ? std::min<std::size_t>(b.size(), 64) : b.size();
  if (span < w) return;
  std::uint8_t* field = b.data() + rng.below(span / w) * w;
  std::uint64_t v = 0;
  std::memcpy(&v, field, w);
  switch (const std::uint64_t k = rng.below(7)) {
    case 0: ++v; break;
    case 1: --v; break;
    case 2: v = 0; break;
    case 3: v = ~std::uint64_t{0}; break;
    default: v += std::uint64_t{1} << (8 * w - 8 + k);
  }
  std::memcpy(field, &v, w);
}

/// One to four stacked mutations of a seed: bit flip, interesting
/// byte, truncation, insertion, splice with a seed's tail, field write.
Bytes mutate(util::Rng& rng, const std::vector<Bytes>& seeds) {
  constexpr std::uint8_t kInteresting[] = {0, 1, 10, 32, 48, 127, 128, 255};
  Bytes b = seeds[rng.below(seeds.size())];
  for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
    const std::size_t at = rng.below(b.size() + 1);
    const Bytes& o = seeds[rng.below(seeds.size())];
    switch (rng.below(6)) {
      case 0: if (at < b.size()) b[at] ^= 1 << rng.below(8); break;
      case 1: if (at < b.size()) b[at] = kInteresting[rng.below(8)]; break;
      case 2: b.resize(at); break;
      case 3: b.insert(b.begin() + at, 1 + rng.below(16), rng.next()); break;
      case 4:
        b.resize(at);
        b.insert(b.end(), o.begin() + rng.below(o.size() + 1), o.end());
        break;
      default: poke_field(rng, b);
    }
  }
  return b;
}

/// Three small files: what the pcap, store and manifest seeds hold.
fsgen::Filesystem small_fs() {
  return fsgen::Filesystem(fsgen::profile("nsc05"),
                           {{fsgen::FileKind::kText, 11, 900},
                            {fsgen::FileKind::kExecutable, 12, 1300},
                            {fsgen::FileKind::kGmonProfile, 13, 300}});
}

TEST(Fuzz, PcapReader) {
  std::vector<Bytes> seeds;
  const fsgen::Filesystem fs = small_fs();
  for (const auto link : {util::PcapLink::kRaw, util::PcapLink::kEthernet}) {
    std::ostringstream os;
    util::PcapWriter w(os, link);
    for (std::size_t f = 0; f < fs.file_count(); ++f)
      for (const auto& p :
           net::segment_file(core::paper_flow_config(), fs.file(f)))
        w.write_packet(p.ip_bytes());
    seeds.emplace_back(os.view().begin(), os.view().end());
  }
  fuzz("pcap", seeds, mutate, [](const Bytes& in) {
    std::string err;
    const auto r = trace::PcapReader::parse(in, &err);
    if (r == nullptr) return err.empty() ? "rejected with no reason" : "";
    const trace::IngestCounts c =
        trace::ingest_capture(*r, {core::paper_flow_config()}).counts;
    if (c.records != r->record_count() ||
        c.accepted + c.rejected != c.records || c.rejected != c.reject_sum())
      return "ingest counts do not add up";
    return "";
  }, 8000);
}

TEST(Fuzz, CorpusReader) {
  const std::string path = "fuzz_store.ckcorp";
  const fsgen::CorpusBuildParams params{"", 1.0, core::paper_flow_config()};
  std::string err;
  ASSERT_TRUE(fsgen::build_corpus(params, small_fs(), path, &err)) << err;
  // Half the inputs get both CRCs recomputed, as CorpusStoreCorruption's
  // reseal does, so that their mutations reach the checks behind them.
  const auto draw = [](util::Rng& rng, const std::vector<Bytes>& s) {
    constexpr std::size_t kHeader = 168, kHeaderCrc = 24, kSealCrc = 28;
    Bytes b = mutate(rng, s);
    if (rng.chance(0.5) && b.size() >= kHeader) {
      const std::uint32_t seal = alg::kern::crc32(ByteView(b).subspan(kHeader));
      std::memcpy(b.data() + kSealCrc, &seal, 4);
      std::memset(b.data() + kHeaderCrc, 0, 4);
      const std::uint32_t hdr = alg::kern::crc32(ByteView(b).first(kHeader));
      std::memcpy(b.data() + kHeaderCrc, &hdr, 4);
    }
    return b;
  };
  fuzz("corpus", {read_file(path)}, draw, [&](const Bytes& in) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(in.data()),
               static_cast<std::streamsize>(in.size()));
    std::string why;
    const auto rd = fsgen::CorpusReader::open(path, &why);
    if (rd == nullptr) return why.empty() ? "rejected with no reason" : "";
    const fsgen::CorpusInfo& info = rd->info();
    if (info.files > info.file_size / sizeof(fsgen::CorpusFileRec) ||
        info.packets > info.file_size / sizeof(fsgen::StoredPacket) ||
        info.cells > info.file_size / sizeof(core::CellPartial))
      return "accepted counts that cannot fit the file";
    for (std::size_t i = 0; i < rd->file_count(); ++i)
      for (const core::PacketView& v : rd->file_views(i)) {
        touch(std::span(v.partials, 1));
        touch(v.cells);
        touch(v.hdr_ok_self);
        touch(v.pdu);
      }
    return "";
  }, 8000);
  std::remove(path.c_str());
}

TEST(Fuzz, DistDecode) {
  using namespace dist;
  const std::pair<MsgType, Bytes> msgs[] = {
      {MsgType::kHello, encode(HelloMsg{3, 1, 4242})},
      {MsgType::kJobConfig, encode(JobConfigMsg{2, "j", {}})},
      {MsgType::kLeaseGrant, encode(LeaseGrantMsg{3, 1, 0, 4, 2})},
      {MsgType::kLeaseResult, encode(LeaseResultMsg{3, 1, {}, {{"k", 7}}, 2})},
      {MsgType::kHeartbeat, encode(HeartbeatMsg{3, 1, 2})},
      {MsgType::kGoodbye, encode(GoodbyeMsg{"w.json"})}};
  // All the frames as one stream, then each payload and each frame.
  std::vector<Bytes> seeds(1);
  for (const auto& [type, payload] : msgs) {
    seeds.push_back(payload);
    seeds.push_back(encode_frame(type, 0, payload));
    seeds[0].insert(seeds[0].end(), seeds.back().begin(), seeds.back().end());
  }
  fuzz("dist", seeds, mutate, [](const Bytes& in) {
    const ByteView v(in);
    (void)std::tuple{decode_hello(v),        decode_config(v),
                     decode_job_config(v),   decode_lease_grant(v),
                     decode_lease_result(v), decode_heartbeat(v),
                     decode_goodbye(v)};
    // The same bytes from a peer that hangs up; recv() NACKs a bad CRC.
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return "no socketpair";
    const auto sent = ::write(sv[1], in.data(), in.size());
    ::close(sv[1]);
    FrameChannel ch(sv[0]);
    for (Frame f; ch.recv(&f, 1000);) {
    }
    return sent == ssize_t(in.size()) ? "" : "short write to the socket";
  }, 10000);
}

TEST(Fuzz, Manifest) {
  const fsgen::FsProfile& prof = fsgen::profile("nsc05");
  const std::string m = small_fs().to_manifest();
  const auto parse = [&](std::string_view text) {
    return fsgen::Filesystem::from_manifest(prof, text).to_manifest();
  };
  fuzz("manifest", {Bytes(m.begin(), m.end())}, mutate, [&](const Bytes& in) {
    try {
      const std::string once =
          parse({reinterpret_cast<const char*>(in.data()), in.size()});
      if (parse(once) != once) return "a parsed manifest does not round-trip";
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      return e.what();  // any other exception is a fault
    }
    return "";
  }, 10000);
}

constexpr std::size_t L = atm::kCellLen;  // the demux target's unit

/// Edits of a stream of 53-byte cells: drop, duplicate, swap, EOM
/// flip (the HEC recomputed), and a splice with another stream.
Bytes edit_cells(util::Rng& rng, const std::vector<Bytes>& seeds) {
  Bytes s = seeds[rng.below(seeds.size())];
  for (std::uint64_t n = 1 + rng.below(8); n > 0 && !s.empty(); --n) {
    const std::size_t off = rng.below(s.size() / L) * L;
    const auto at = s.begin() + off;
    const Bytes& o = seeds[rng.below(seeds.size())];
    switch (rng.below(5)) {
      case 0: s.erase(at, at + L); break;
      case 1:
        s.insert(at, L, 0);
        std::copy_n(s.begin() + off + L, L, s.begin() + off);
        break;
      case 2:
        std::swap_ranges(at, at + L, s.begin() + rng.below(s.size() / L) * L);
        break;
      case 3: at[3] ^= 0x02, at[4] = atm::compute_hec(&at[0]); break;
      default:
        s.erase(at, s.end());
        s.insert(s.end(), o.begin() + rng.below(o.size() / L + 1) * L, o.end());
    }
  }
  return s;
}

TEST(Fuzz, VcDemux) {
  // Three streams of twelve AAL5 PDUs on six VCs, interleaved in per-VC
  // order by one clock per VC; `sent` holds every payload.
  util::Rng rng(0xA115);
  std::set<Bytes> sent;
  std::vector<Bytes> seeds(3);
  for (Bytes& stream : seeds) {
    std::vector<std::pair<std::uint64_t, Bytes>> cells;
    std::uint64_t clock[6] = {};
    for (int p = 0; p < 12; ++p) {
      Bytes payload(1 + rng.below(1500));
      rng.fill(payload);
      const auto vc = static_cast<std::uint16_t>(rng.below(6));
      for (const atm::Cell& c :
           atm::segment_pdu(atm::CpcsPdu::frame(payload), 0, 32 + vc))
        cells.emplace_back(clock[vc] += 1 + rng.below(8), c.to_bytes());
      sent.insert(std::move(payload));
    }
    std::sort(cells.begin(), cells.end());
    for (const auto& c : cells)
      stream.insert(stream.end(), c.second.begin(), c.second.end());
  }
  // Small limits, so the channel cap and pending budget engage. After every
  // cell: I1 no fault, I2 the demux within its limits, I3 no PDU passes
  // the length check and CRC-32 unless it is a payload that was sent.
  const atm::DemuxLimits limits{4, 96};
  fuzz("demux", seeds, edit_cells, [&](const Bytes& in) {
    atm::VcDemux demux(limits);
    for (ByteView b(in); b.size() >= L; b = b.subspan(L)) {
      const auto cell = atm::Cell::from_bytes(b.first(L));
      const auto out = cell ? demux.push(*cell) : std::nullopt;
      if (demux.pending_cells() > limits.max_pending_cells ||
          demux.channel_count() > limits.max_channels)
        return "I2: the demux outgrew its limits";
      if (!out || !out->pdu.length_ok || !out->pdu.crc_ok) continue;
      const ByteView p = out->pdu.payload();
      if (sent.count(Bytes(p.begin(), p.end())) == 0)
        return "I3: an accepted PDU matches no sent payload";
    }
    return "";
  }, 8000);
}

}  // namespace
}  // namespace cksum
