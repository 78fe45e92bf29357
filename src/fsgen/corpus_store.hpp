// Precomputed splice-corpus store — the streaming half of the
// line-rate refactor (docs/CORPUS.md).
//
// `run_filesystem` regenerates every file and re-packetises it (AAL5
// framing + five checksum families per cell) on every run; for a
// fixed corpus that work is identical each time. A corpus store runs
// the packetiser ONCE and persists everything evaluate_pair consumes
// — each packet's core::PacketPartials and core::CellPartial records
// as they are, header-check verdicts, and the raw PDU bytes the slow
// path materialises from — in a single mmap-able arena, so workers
// evaluate shards straight from the mapping instead of re-checksumming.
//
// On-disk layout (native-endian, the endian tag rejects foreign
// files):
//
//   [CorpusHeader]            sealed by header_crc (field zeroed)
//   [SectionRec x n]          kind/offset/size table
//   [sections ...]            each offset 64-byte aligned, zero padded
//
// seal_crc covers every byte after the header (section table
// included), so any bit flip in the body is detected before use; the
// header has its own CRC so a flipped length/offset can never send
// the reader out of bounds — every structural invariant is checked at
// open() with an explicit reason, never by faulting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/pdu_model.hpp"
#include "fsgen/profile.hpp"
#include "net/flow.hpp"

namespace cksum::fsgen {

/// Magic, then the layout version in its own header field: a store of
/// another version is rejected as "unsupported corpus version", not as
/// a foreign file.
inline constexpr char kCorpusMagic[8] = {'C', 'K', 'C', 'O',
                                         'R', 'P', '0', '1'};
inline constexpr std::uint32_t kCorpusEndianTag = 0x01020304;
inline constexpr std::uint32_t kCorpusVersion = 2;
inline constexpr std::size_t kCorpusAlign = 64;

/// Everything that went into packetising the corpus. Persisted in the
/// header: a store is only valid for the exact flow it was built
/// with (the transport checksum is written into the packet bytes),
/// so readers take their run configuration FROM the store instead of
/// trusting the caller to repeat it.
struct CorpusBuildParams {
  std::string profile;  ///< display name (informational)
  double scale = 1.0;
  net::FlowConfig flow;
  bool compress = false;  ///< files were LZW-compressed before transfer
};

/// Section kinds, in file order.
enum class CorpusSection : std::uint32_t {
  kFiles = 1,     ///< CorpusFileRec[file_count]
  kPackets = 2,   ///< StoredPacket[packet_count]
  kCells = 3,     ///< core::CellPartial[cell_count]
  kHdrOk = 4,     ///< u8 blob, per-packet [hdr_begin, +cell_count-1)
  kPduBytes = 5,  ///< raw PDU bytes, per-packet [pdu_offset, +48*cells)
};

struct CorpusSectionRec {
  std::uint32_t kind = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  ///< from file start, kCorpusAlign-aligned
  std::uint64_t size = 0;    ///< payload bytes (padding not included)
};
static_assert(sizeof(CorpusSectionRec) == 24);

/// One packet as stored: where its cells, header verdicts and PDU
/// bytes start, then its partials as the packetiser computed them.
struct StoredPacket {
  std::uint64_t cell_begin = 0;  ///< first index into kCells
  std::uint64_t hdr_begin = 0;   ///< first index into kHdrOk
  std::uint64_t pdu_offset = 0;  ///< byte offset into kPduBytes
  std::uint32_t cell_count = 0;
  std::uint32_t pad = 0;
  core::PacketPartials partials;

  friend bool operator==(const StoredPacket&, const StoredPacket&) = default;
};
static_assert(sizeof(StoredPacket) == 136);
static_assert(std::has_unique_object_representations_v<StoredPacket>);

struct CorpusFileRec {
  std::uint64_t packet_begin = 0;
  std::uint64_t packet_count = 0;
};
static_assert(sizeof(CorpusFileRec) == 16);

/// Summary returned by info() (and printed by `cksumlab corpus info`).
struct CorpusInfo {
  std::uint32_t version = 0;
  std::uint64_t file_size = 0;
  std::uint64_t files = 0;
  std::uint64_t packets = 0;
  std::uint64_t cells = 0;
  std::uint64_t pdu_bytes = 0;
  CorpusBuildParams params;
};

/// Packetise every file of `fs` under `params`, on every hardware
/// thread, and seal them in file order into `path` through the
/// overload below: the same bytes at any thread count. Returns false
/// with a reason in *error (the partial output file is removed); an
/// exception thrown while packetising is rethrown here.
bool build_corpus(const CorpusBuildParams& params, const Filesystem& fs,
                  const std::string& path, std::string* error);

/// Seal already-packetised files — the one store writer, and the
/// corpus-from-capture path (src/trace/ingest.hpp feeds this). Each
/// section is streamed from the packets through a 1 MiB buffer that
/// carries the seal CRC; the header goes in last. `files` must be
/// grouped exactly as packetize_file would have produced them under
/// params.flow; params.compress is recorded but no compression happens
/// here (a capture carries post-compression bytes already).
bool build_corpus(const CorpusBuildParams& params,
                  const std::vector<std::vector<core::SimPacket>>& files,
                  const std::string& path, std::string* error);

/// Read side: mmaps the file, validates magic/version/endianness/
/// CRCs/section bounds/alignment and every packet index once, then
/// serves packets as views into the mapping. Thread-safe after open()
/// (all reads are const over the mapping).
class CorpusReader {
 public:
  /// nullptr + reason in *error on any validation failure. Never
  /// faults on truncated or corrupted input.
  static std::unique_ptr<CorpusReader> open(const std::string& path,
                                            std::string* error);
  ~CorpusReader();
  CorpusReader(const CorpusReader&) = delete;
  CorpusReader& operator=(const CorpusReader&) = delete;

  const CorpusInfo& info() const noexcept { return info_; }
  std::size_t file_count() const noexcept {
    return static_cast<std::size_t>(info_.files);
  }

  /// File i's packets as views into the mapping, nothing copied: what
  /// core::run_corpus_range evaluates. Each view holds what the
  /// packet's SimPacket from packetize_file(params.flow, <file bytes>)
  /// holds on the original data (asserted by tests/test_corpus_store.cpp).
  /// Valid while this reader lives.
  std::vector<core::PacketView> file_views(std::size_t i) const;

  /// File i's packets copied out of file_views(i) into SimPackets,
  /// bitwise-equal to packetize_file(params.flow, <file bytes>) on the
  /// original data. No checksum is recomputed.
  std::vector<core::SimPacket> file_packets(std::size_t i) const;

  /// Ask the kernel to prefetch the byte ranges files [begin, end)
  /// touch — their packet records, cells, header verdicts and PDU
  /// bytes — via posix_madvise(WILLNEED). Purely advisory: a shard
  /// streams correctly (just colder) if the call is a no-op, so
  /// failures are ignored. Called by core::run_corpus_range at the
  /// start of every lease (docs/PERF.md).
  void advise_will_need(std::size_t begin, std::size_t end) const;

 private:
  CorpusReader() = default;

  const std::uint8_t* base_ = nullptr;  ///< mmap base
  std::size_t map_len_ = 0;
  CorpusInfo info_;
  // Section payloads (validated in-bounds at open).
  const CorpusFileRec* files_ = nullptr;
  const StoredPacket* packets_ = nullptr;
  const core::CellPartial* cells_ = nullptr;
  const std::uint8_t* hdr_ok_ = nullptr;
  const std::uint8_t* pdu_bytes_ = nullptr;
};

}  // namespace cksum::fsgen
