// A deterministic faulty block device: the storage twin of
// faults::FaultyChannel (docs/STORAGE.md, docs/FAULTS.md).
//
// Every write() rolls one fault-class partition draw against the
// plan's rates; at most one fault class fires per write, the storage
// analogue of the paper's per-packet fault events:
//
//   torn        a sector-aligned prefix of the new block lands over
//               the old content (power loss mid-write — the storage
//               splice: new[0, 512·s) ‖ old[512·s, B))
//   misdirected the whole block lands at another initialised address;
//               the target keeps its old content (the storage twin of
//               the ATM misdelivery class)
//   lost        the write is dropped whole; the target keeps its old
//               content (acknowledged-but-never-persisted)
//   corrupt     the block lands, then an in-place bit/byte/burst error
//               (core::apply_burst) hits the stored copy
//
// Determinism discipline is FaultyChannel's: the device owns one
// util::Rng seeded at construction, and the (plan, seed, write
// sequence) triple always produces the same fault schedule — the same
// tears at the same sectors, the same victims, the same burst
// patterns. format() bypasses the plan for fault-free test setup.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace cksum::storage {

/// Per-write fault probabilities. The classes partition one uniform
/// draw, so they are mutually exclusive and the rates must sum to at
/// most 1; a rate of 1.0 for one class forces it on every write.
struct StoragePlan {
  double torn_rate = 0.0;
  double misdirect_rate = 0.0;
  double lost_rate = 0.0;
  double corrupt_rate = 0.0;

  /// Burst length bounds (bits) for the corrupt class.
  unsigned burst_bits_min = 1;
  unsigned burst_bits_max = 32;

  double total_rate() const noexcept {
    return torn_rate + misdirect_rate + lost_rate + corrupt_rate;
  }
};

/// What one write() actually did.
struct WriteEvent {
  enum class Kind {
    kCommitted,    ///< full block landed at the target address
    kTorn,         ///< prefix of `tear_sectors` sectors landed
    kMisdirected,  ///< full block landed at `victim` instead
    kLost,         ///< nothing landed
    kCorrupted,    ///< full block landed, then an in-place burst
  };
  Kind kind = Kind::kCommitted;
  std::size_t tear_sectors = 0;  ///< torn: sectors of the new write kept
  std::uint64_t victim = 0;      ///< misdirected: address that was hit
};

/// Injection counters, mergeable across devices (commutative sums, so
/// per-thread devices aggregate deterministically).
struct StorageStats {
  std::uint64_t writes = 0;
  std::uint64_t committed = 0;
  std::uint64_t torn = 0;
  std::uint64_t misdirected = 0;
  std::uint64_t lost = 0;
  std::uint64_t corrupted = 0;

  std::uint64_t total_injected() const noexcept {
    return torn + misdirected + lost + corrupted;
  }

  void merge(const StorageStats& other) noexcept {
    writes += other.writes;
    committed += other.committed;
    torn += other.torn;
    misdirected += other.misdirected;
    lost += other.lost;
    corrupted += other.corrupted;
  }

  friend bool operator==(const StorageStats&, const StorageStats&) = default;
};

class BlockDevice {
 public:
  /// `block_size` must be a positive multiple of kSectorSize.
  BlockDevice(std::size_t block_size, const StoragePlan& plan,
              std::uint64_t seed);

  /// Fault-free placement (mkfs / test setup): the block always lands
  /// intact at `addr` and does not count as a write.
  void format(std::uint64_t addr, util::ByteView block);

  /// One write through the fault plan. `block.size()` must equal the
  /// device block size.
  WriteEvent write(std::uint64_t addr, util::ByteView block);

  /// Stored content at `addr`; empty view when never written.
  util::ByteView read(std::uint64_t addr) const noexcept;

  /// Every initialised address, in increasing order.
  std::vector<std::uint64_t> addresses() const;

  std::size_t block_size() const noexcept { return block_size_; }
  const StoragePlan& plan() const noexcept { return plan_; }
  const StorageStats& stats() const noexcept { return stats_; }

 private:
  std::size_t block_size_;
  StoragePlan plan_;
  util::Rng rng_;
  StorageStats stats_;
  // Ordered so victim selection (below(count) into the sorted address
  // list) is a deterministic function of the fault schedule alone.
  std::map<std::uint64_t, util::Bytes> blocks_;
};

}  // namespace cksum::storage
