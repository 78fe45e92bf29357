// Shard lease bookkeeping for the job service — pure logic, no I/O,
// so the whole fault-tolerance state machine is unit-testable.
//
// A shard is a contiguous file range [begin, end) of the corpus. Its
// lifecycle:
//
//   kPending   --acquire-->  kLeased  --deliver-->  kDone
//                  ^             |
//                  +--expire()---+   (deadline passed, worker lost,
//                  +--revoke_worker+  or lease explicitly revoked)
//
// Every (re)grant increments the shard's epoch; a result is accepted
// only if it carries the current epoch AND the shard is still leased.
// That makes accounting at-most-once: when a slow worker's lease is
// reassigned and both workers eventually deliver, exactly one result
// (the current epoch's) is merged and the other is counted stale.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace cksum::dist {

struct Shard {
  std::size_t begin = 0;  ///< first file index (inclusive)
  std::size_t end = 0;    ///< one past the last file index

  enum class State : std::uint8_t { kPending, kLeased, kDone };
  State state = State::kPending;
  std::uint64_t epoch = 0;      ///< bumped on every (re)grant
  std::uint64_t holder = 0;     ///< worker id while kLeased
  std::uint64_t deadline = 0;   ///< lease expiry, service clock (ms)
  std::uint32_t grants = 0;     ///< times this shard has been granted
};

/// What deliver() decided about an incoming result.
enum class DeliverOutcome : std::uint8_t {
  kAccepted,   ///< current epoch, shard now kDone — merge it
  kStale,      ///< superseded epoch or not the holder — discard
  kDuplicate,  ///< shard already kDone — discard
  kUnknown,    ///< no such shard — discard
};

class LeaseTable {
 public:
  /// Partition [0, nfiles) into ceil(nfiles / shard_files) shards.
  LeaseTable(std::size_t nfiles, std::size_t shard_files);

  std::size_t shard_count() const { return shards_.size(); }
  const Shard& shard(std::size_t i) const { return shards_[i]; }

  /// Lease the lowest pending shard to `worker` until `deadline`.
  /// Returns the shard index, or nullopt when nothing is pending.
  std::optional<std::size_t> acquire(std::uint64_t worker,
                                     std::uint64_t deadline);

  /// Push the holder's deadline forward (heartbeat). Ignored unless
  /// `worker` currently holds `shard` at `epoch`.
  void extend(std::size_t shard, std::uint64_t epoch, std::uint64_t worker,
              std::uint64_t deadline);

  /// Classify a delivered result; kAccepted also marks the shard done.
  DeliverOutcome deliver(std::size_t shard, std::uint64_t epoch,
                         std::uint64_t worker);

  /// Return every leased shard whose deadline is < now to kPending.
  /// Returns how many leases expired.
  std::size_t expire(std::uint64_t now);

  /// Return all of `worker`'s leased shards to kPending (connection
  /// lost). Returns how many leases were revoked.
  std::size_t revoke_worker(std::uint64_t worker);

  bool complete() const { return done_ == shards_.size(); }
  std::size_t done_count() const { return done_; }
  /// Shards granted more than once — the reassignment count.
  std::size_t reassigned_count() const;

 private:
  std::vector<Shard> shards_;
  std::size_t done_ = 0;
};

}  // namespace cksum::dist
