// A pool of threads that share one atomic file index.
//
// The corpus build (fsgen::build_corpus) and the cell-statistics pass
// (core::collect_cell_stats) both do independent work per file; each
// worker takes the next index until none is left, so a slow file
// never holds up the others.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace cksum::util {

/// The threads a pool over `n` items runs: `threads`, or every hardware
/// thread when it is 0, clamped to [1, n].
inline unsigned pool_threads(std::size_t n, unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::clamp<std::size_t>(n, 1, threads));
}

/// Calls fn(t, i) once for every i in [0, n), on pool_threads(n, threads)
/// threads; t is the index of the worker making the call. A worker that
/// throws stops the others from taking further items, and once every
/// worker has joined, the exception of the lowest-numbered worker that
/// threw is rethrown here. So is the error of a thread that could not
/// be started, after the ones already running are stopped and joined.
template <class Fn>
void for_each_index(std::size_t n, unsigned threads, Fn fn) {
  threads = pool_threads(n, threads);
  std::vector<std::exception_ptr> errors(threads);
  std::atomic<std::size_t> next{0};
  auto worker = [&](unsigned t) {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(t, i);
    } catch (...) {
      errors[t] = std::current_exception();
      next = n;  // stop the other workers
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  try {
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  } catch (...) {  // a thread that cannot start: stop and join the rest
    next = n;
    for (auto& th : pool) th.join();
    throw;
  }
  for (auto& th : pool) th.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace cksum::util
