#include "dist/lease.hpp"

#include <algorithm>

namespace cksum::dist {

LeaseTable::LeaseTable(std::size_t nfiles, std::size_t shard_files) {
  shard_files = std::max<std::size_t>(1, shard_files);
  for (std::size_t begin = 0; begin < nfiles; begin += shard_files) {
    Shard s;
    s.begin = begin;
    s.end = std::min(nfiles, begin + shard_files);
    shards_.push_back(s);
  }
  pending_ = shards_.size();
}

std::optional<std::size_t> LeaseTable::acquire(std::uint64_t worker,
                                               std::uint64_t deadline) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.state != Shard::State::kPending) continue;
    s.state = Shard::State::kLeased;
    s.epoch++;
    s.holder = worker;
    s.deadline = deadline;
    s.grants++;
    pending_--;
    return i;
  }
  return std::nullopt;
}

void LeaseTable::extend(std::size_t shard, std::uint64_t epoch,
                        std::uint64_t worker, std::uint64_t deadline) {
  if (shard >= shards_.size()) return;
  Shard& s = shards_[shard];
  if (s.state != Shard::State::kLeased || s.epoch != epoch ||
      s.holder != worker)
    return;
  s.deadline = std::max(s.deadline, deadline);
}

DeliverOutcome LeaseTable::deliver(std::size_t shard, std::uint64_t epoch,
                                   std::uint64_t worker) {
  if (shard >= shards_.size()) return DeliverOutcome::kUnknown;
  Shard& s = shards_[shard];
  if (s.state == Shard::State::kDone) return DeliverOutcome::kDuplicate;
  if (s.state != Shard::State::kLeased || s.epoch != epoch ||
      s.holder != worker)
    return DeliverOutcome::kStale;
  s.state = Shard::State::kDone;
  done_++;
  return DeliverOutcome::kAccepted;
}

std::size_t LeaseTable::expire(std::uint64_t now) {
  std::size_t n = 0;
  for (Shard& s : shards_) {
    if (s.state == Shard::State::kLeased && s.deadline < now) {
      s.state = Shard::State::kPending;
      n++;
    }
  }
  pending_ += n;
  return n;
}

std::size_t LeaseTable::revoke_worker(std::uint64_t worker) {
  std::size_t n = 0;
  for (Shard& s : shards_) {
    if (s.state == Shard::State::kLeased && s.holder == worker) {
      s.state = Shard::State::kPending;
      n++;
    }
  }
  pending_ += n;
  return n;
}

std::size_t LeaseTable::reassigned_count() const {
  std::size_t n = 0;
  for (const Shard& s : shards_)
    if (s.grants > 1) n += s.grants - 1;
  return n;
}

}  // namespace cksum::dist
