// Corpus-store conformance tier (docs/CORPUS.md): a store built by
// build_corpus and streamed back through run_corpus_range must be
// bitwise indistinguishable from re-packetising the source filesystem
// — for every transport checksum in the registry, both placements, and
// compressed transfers — and a corrupted store must be rejected at
// open() with an explicit reason, never by faulting.
#include <cstdio>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "checksum/kernels/kernel.hpp"
#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/splice_sim.hpp"
#include "fsgen/corpus_store.hpp"
#include "fsgen/profile.hpp"

namespace cksum {
namespace {

// CorpusHeader layout facts the corruption tests patch against
// (static_asserted to 168 bytes in corpus_store.cpp).
constexpr std::size_t kHeaderSize = 168;
constexpr std::size_t kEndianOff = 8;
constexpr std::size_t kVersionOff = 12;
constexpr std::size_t kHeaderCrcOff = 24;
constexpr std::size_t kSealCrcOff = 28;
constexpr std::size_t kSectionTableOff = kHeaderSize;

util::Bytes read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return util::Bytes(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const util::Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

void put_u32(util::Bytes& b, std::size_t off, std::uint32_t v) {
  std::memcpy(b.data() + off, &v, sizeof v);
}

std::uint32_t get_u32(const util::Bytes& b, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}

/// Recompute seal_crc and header_crc after a deliberate patch, so the
/// targeted validation check — not the CRCs — is what rejects the
/// file.
void reseal(util::Bytes& b) {
  put_u32(b, kSealCrcOff,
          alg::kern::crc32(util::ByteView(b.data() + kHeaderSize,
                                          b.size() - kHeaderSize)));
  put_u32(b, kHeaderCrcOff, 0);
  put_u32(b, kHeaderCrcOff,
          alg::kern::crc32(util::ByteView(b.data(), kHeaderSize)));
}

/// Build a small nsc05 store under `flow` and return its path. The
/// file is owned by the caller (std::remove when done).
std::string build_store(const net::FlowConfig& flow, bool compress,
                        const std::string& path, double scale = 0.05) {
  fsgen::CorpusBuildParams params;
  params.profile = "nsc05";
  params.scale = scale;
  params.flow = flow;
  params.compress = compress;
  const fsgen::Filesystem fs(fsgen::profile("nsc05"), scale);
  std::string err;
  EXPECT_TRUE(fsgen::build_corpus(params, fs, path, &err)) << err;
  return path;
}

void expect_stats_identical(const core::SpliceStats& a,
                            const core::SpliceStats& b,
                            const net::FlowConfig& flow) {
  // The full machine-readable report compares every published field…
  EXPECT_EQ(core::splice_stats_json(a, alg::name(flow.packet.transport)),
            core::splice_stats_json(b, alg::name(flow.packet.transport)));
  // …and the load-bearing counters are asserted individually so a
  // failure names the divergent column.
  EXPECT_EQ(a.files, b.files);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.caught_by_header, b.caught_by_header);
  EXPECT_EQ(a.identical, b.identical);
  EXPECT_EQ(a.remaining, b.remaining);
  EXPECT_EQ(a.missed_crc, b.missed_crc);
  EXPECT_EQ(a.missed_transport, b.missed_transport);
  EXPECT_EQ(a.missed_both, b.missed_both);
  EXPECT_EQ(a.missed_koopman_dual, b.missed_koopman_dual);
  EXPECT_EQ(a.missed_koopman_single, b.missed_koopman_single);
}

// --- Round-trip conformance -----------------------------------------

TEST(CorpusStore, RoundTripEveryTransportAndPlacement) {
  const alg::Algorithm transports[] = {alg::Algorithm::kInternet,
                                       alg::Algorithm::kFletcher255,
                                       alg::Algorithm::kFletcher256};
  const net::ChecksumPlacement placements[] = {
      net::ChecksumPlacement::kHeader, net::ChecksumPlacement::kTrailer};
  for (const alg::Algorithm tr : transports) {
    for (const net::ChecksumPlacement pl : placements) {
      net::FlowConfig flow = core::paper_flow_config();
      flow.packet.transport = tr;
      flow.packet.placement = pl;
      const std::string path = build_store(flow, false, "tcs_rt.ckcorp");

      std::string err;
      const auto rd = fsgen::CorpusReader::open(path, &err);
      ASSERT_NE(rd, nullptr) << err;
      EXPECT_EQ(rd->info().params.flow.packet.transport, tr);
      EXPECT_EQ(rd->info().params.flow.packet.placement, pl);

      // Opened as a splice source, the store's flow wins over the
      // (default) flow asked for.
      const core::SpliceCorpus corpus({core::CorpusKind::kCorpusFile, path});
      core::SpliceRunConfig asked;
      asked.flow = core::paper_flow_config();
      asked.threads = 2;
      const core::SpliceRunConfig cfg = corpus.run_config(asked);
      EXPECT_EQ(cfg.flow.packet.transport, tr);
      EXPECT_EQ(cfg.flow.packet.placement, pl);
      const core::SpliceStats streamed =
          corpus.run_range(cfg, 0, corpus.file_count());
      // A store keeps packets, not file bytes: the cell-statistics
      // pass refuses it, from any of its threads.
      EXPECT_THROW(core::collect_cell_stats(corpus, {}, 2), std::logic_error);

      core::SpliceRunConfig ref = cfg;
      ref.flow = flow;
      const fsgen::Filesystem fs(fsgen::profile("nsc05"), 0.05);
      const core::SpliceStats direct = core::run_filesystem(ref, fs);
      expect_stats_identical(streamed, direct, flow);
      std::remove(path.c_str());
    }
  }
}

TEST(CorpusStore, CompressedRoundTrip) {
  const net::FlowConfig flow = core::paper_flow_config();
  const std::string path = build_store(flow, true, "tcs_lzw.ckcorp");
  std::string err;
  const auto rd = fsgen::CorpusReader::open(path, &err);
  ASSERT_NE(rd, nullptr) << err;
  EXPECT_TRUE(rd->info().params.compress);

  core::SpliceRunConfig cfg;
  cfg.flow = rd->info().params.flow;
  const core::SpliceStats streamed =
      core::run_corpus_range(cfg, *rd, 0, rd->file_count());

  core::SpliceRunConfig ref = cfg;
  ref.compress_files = true;  // build-time compression == run-time
  const fsgen::Filesystem fs(fsgen::profile("nsc05"), 0.05);
  expect_stats_identical(streamed, core::run_filesystem(ref, fs), flow);
  std::remove(path.c_str());
}

TEST(CorpusStore, RangeDecompositionMatchesWholeRun) {
  const net::FlowConfig flow = core::paper_flow_config();
  const std::string path = build_store(flow, false, "tcs_range.ckcorp");
  std::string err;
  const auto rd = fsgen::CorpusReader::open(path, &err);
  ASSERT_NE(rd, nullptr) << err;

  core::SpliceRunConfig cfg;
  cfg.flow = rd->info().params.flow;
  const core::SpliceStats whole =
      core::run_corpus_range(cfg, *rd, 0, rd->file_count());

  // Any shard partition must merge back to the whole-run stats — the
  // property the distributed service's corpus jobs lean on.
  core::SpliceStats merged;
  const std::size_t n = rd->file_count();
  for (std::size_t begin = 0; begin < n; begin += 2)
    merged.merge(core::run_corpus_range(cfg, *rd, begin,
                                        std::min(begin + 2, n)));
  expect_stats_identical(merged, whole, flow);
  std::remove(path.c_str());
}

TEST(CorpusStore, PacketReconstructionBitwise) {
  const net::FlowConfig flow = core::paper_flow_config();
  const std::string path = build_store(flow, false, "tcs_pkt.ckcorp");
  std::string err;
  const auto rd = fsgen::CorpusReader::open(path, &err);
  ASSERT_NE(rd, nullptr) << err;

  const fsgen::Filesystem fs(fsgen::profile("nsc05"), 0.05);
  ASSERT_EQ(rd->file_count(), fs.file_count());
  for (std::size_t i = 0; i < fs.file_count(); ++i) {
    const util::Bytes data = fs.file(i);
    const std::vector<core::SimPacket> want =
        core::packetize_file(flow, util::ByteView(data));
    const std::vector<core::SimPacket> got = rd->file_packets(i);
    ASSERT_EQ(got.size(), want.size()) << "file " << i;
    for (std::size_t p = 0; p < want.size(); ++p) {
      const core::SimPacket& w = want[p];
      const core::SimPacket& g = got[p];
      const util::ByteView wb = w.pdu.bytes(), gb = g.pdu.bytes();
      ASSERT_EQ(gb.size(), wb.size());
      EXPECT_EQ(std::memcmp(gb.data(), wb.data(), wb.size()), 0)
          << "pdu bytes, file " << i << " packet " << p;
      // Whole records: a partial added later is covered unedited.
      EXPECT_TRUE(static_cast<const core::PacketPartials&>(g) ==
                  static_cast<const core::PacketPartials&>(w))
          << "packet partials, file " << i << " packet " << p;
      EXPECT_TRUE(g.cells == w.cells)
          << "cell partials, file " << i << " packet " << p;
      EXPECT_EQ(g.hdr_ok_self, w.hdr_ok_self);
    }
  }
  std::remove(path.c_str());
}

TEST(CorpusStore, InfoFieldsSane) {
  net::FlowConfig flow = core::paper_flow_config();
  flow.segment_size = 512;
  const std::string path = build_store(flow, false, "tcs_info.ckcorp");
  std::string err;
  const auto rd = fsgen::CorpusReader::open(path, &err);
  ASSERT_NE(rd, nullptr) << err;
  const fsgen::CorpusInfo& in = rd->info();
  EXPECT_EQ(in.version, fsgen::kCorpusVersion);
  EXPECT_EQ(in.files, fsgen::Filesystem(fsgen::profile("nsc05"), 0.05)
                          .file_count());
  EXPECT_GT(in.packets, 0u);
  EXPECT_GT(in.cells, in.packets);  // every packet has >= 1 cell
  EXPECT_EQ(in.pdu_bytes, in.cells * 48);
  EXPECT_EQ(in.file_size, read_all(path).size());
  EXPECT_EQ(in.params.profile, "nsc05");
  EXPECT_DOUBLE_EQ(in.params.scale, 0.05);
  EXPECT_EQ(in.params.flow.segment_size, 512u);
  std::remove(path.c_str());
}

// --- Corruption matrix ----------------------------------------------

class CorpusStoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // One scratch file per test: ctest runs each case as its own
    // process in a shared cwd, so a fixed name races under -j.
    path_ = std::string("tcs_corrupt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ckcorp";
    build_store(core::paper_flow_config(), false, path_);
    pristine_ = read_all(path_);
    ASSERT_GT(pristine_.size(), kHeaderSize);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Write `mutated` and expect open() to reject it with a reason.
  std::string expect_rejected(const util::Bytes& mutated,
                              const std::string& what) {
    write_all(path_, mutated);
    std::string err;
    const auto rd = fsgen::CorpusReader::open(path_, &err);
    EXPECT_EQ(rd, nullptr) << what;
    EXPECT_FALSE(err.empty()) << what << ": rejected without a reason";
    return err;
  }

  std::string path_;
  util::Bytes pristine_;
};

TEST_F(CorpusStoreCorruption, MissingFileRejected) {
  std::string err;
  EXPECT_EQ(fsgen::CorpusReader::open("tcs_no_such_file.ckcorp", &err),
            nullptr);
  EXPECT_FALSE(err.empty());
}

TEST_F(CorpusStoreCorruption, TruncationsRejected) {
  const std::size_t n = pristine_.size();
  const std::size_t cuts[] = {0,       1,           kHeaderSize - 1,
                              kHeaderSize, kHeaderSize + 7, n / 2,
                              n - 64,  n - 1};
  for (const std::size_t cut : cuts) {
    util::Bytes t(pristine_.begin(),
                  pristine_.begin() + static_cast<std::ptrdiff_t>(cut));
    expect_rejected(t, "truncated to " + std::to_string(cut) + " bytes");
  }
}

TEST_F(CorpusStoreCorruption, BitFlipsNeverFault) {
  // A spread of single-bit flips across the whole file — header,
  // section table, and every section body — must each be caught by
  // one of the two CRC seals (or an earlier structural check).
  const std::size_t n = pristine_.size();
  const std::size_t stride = std::max<std::size_t>(1, n / 61);
  for (std::size_t off = 0; off < n; off += stride) {
    util::Bytes m = pristine_;
    m[off] ^= static_cast<std::uint8_t>(1u << (off % 8));
    expect_rejected(m, "bit flip at offset " + std::to_string(off));
  }
}

TEST_F(CorpusStoreCorruption, BadMagicRejected) {
  util::Bytes m = pristine_;
  m[0] = 'X';
  const std::string err = expect_rejected(m, "bad magic");
  EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST_F(CorpusStoreCorruption, WrongVersionRejected) {
  util::Bytes m = pristine_;
  put_u32(m, kVersionOff, fsgen::kCorpusVersion + 7);
  reseal(m);  // targeted check, not the CRC, must reject it
  const std::string err = expect_rejected(m, "wrong version");
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST_F(CorpusStoreCorruption, ForeignEndiannessRejected) {
  util::Bytes m = pristine_;
  put_u32(m, kEndianOff, __builtin_bswap32(get_u32(m, kEndianOff)));
  reseal(m);
  const std::string err = expect_rejected(m, "foreign endianness");
  EXPECT_NE(err.find("endian"), std::string::npos) << err;
}

TEST_F(CorpusStoreCorruption, SectionOutOfBoundsRejected) {
  // Point the first section far past EOF; with the seals recomputed
  // the bounds check is the only line of defence against a wild read.
  util::Bytes m = pristine_;
  const std::size_t off_field = kSectionTableOff + 8;  // SectionRec.offset
  std::uint64_t huge = m.size() * 2 + fsgen::kCorpusAlign;
  std::memcpy(m.data() + off_field, &huge, sizeof huge);
  reseal(m);
  const std::string err = expect_rejected(m, "section out of bounds");
  EXPECT_NE(err.find("bounds"), std::string::npos) << err;
}

TEST_F(CorpusStoreCorruption, MisalignedSectionRejected) {
  util::Bytes m = pristine_;
  const std::size_t off_field = kSectionTableOff + 8;
  std::uint64_t off = 0;
  std::memcpy(&off, m.data() + off_field, sizeof off);
  off += 8;  // still in bounds, no longer 64-byte aligned
  std::memcpy(m.data() + off_field, &off, sizeof off);
  reseal(m);
  const std::string err = expect_rejected(m, "misaligned section");
  EXPECT_NE(err.find("misaligned"), std::string::npos) << err;
}

TEST_F(CorpusStoreCorruption, CorruptPacketIndexRejected) {
  // Rewrite the first packet record's cell_begin to past-the-end; the
  // per-packet index validation must catch it before file_packets can
  // read out of bounds.
  util::Bytes m = pristine_;
  const std::size_t table_off = kSectionTableOff + 24;  // slot 1: kPackets
  std::uint64_t pkt_off = 0;
  std::memcpy(&pkt_off, m.data() + table_off + 8, sizeof pkt_off);
  std::uint64_t evil = ~0ull / 2;
  std::memcpy(m.data() + pkt_off, &evil, sizeof evil);  // cell_begin
  reseal(m);
  const std::string err = expect_rejected(m, "corrupt packet index");
  EXPECT_NE(err.find("packet"), std::string::npos) << err;
}

}  // namespace
}  // namespace cksum
