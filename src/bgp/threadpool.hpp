// Minimal fixed-size thread pool for fanning independent per-prefix
// simulations across cores.  Tasks are indexed; `parallel_for` blocks until
// every index has been processed.
//
// Error handling: if a body throws, the first exception is captured, no
// further indices are handed out (already-claimed indices finish), and the
// exception is rethrown on the calling thread once the batch has drained.
// The pool stays usable for subsequent batches.
//
// Misuse handling: calling parallel_for from inside a body running on the
// same pool throws std::logic_error (it would deadlock the multi-threaded
// pool); concurrent parallel_for calls from distinct external threads are
// serialized.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "netbase/thread_annotations.hpp"

namespace bgp {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of distinct threads parallel_for runs bodies on: the spawned
  /// workers plus the calling thread, which joins every batch.  A pool
  /// built for N threads spawns N - 1 workers, so size() == N.  Sizes
  /// per-slot state such as obs::ShardGroup.
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// The worker count `threads` resolves to (nb::resolve_threads: 0 ->
  /// hardware_concurrency, min 1, clamped to nb::kMaxResolvedThreads).
  /// Exposed so callers (CLI --threads, benchmarks, the serve daemon) can
  /// report the effective count without constructing a pool.
  static unsigned resolve(unsigned threads);

  /// Runs body(i) for every i in [0, count), distributing dynamically.
  /// body must be thread-safe.  Runs inline when the pool has one thread.
  /// Rethrows the first exception a body threw, after draining the batch.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// parallel_for that also hands the body the stable slot index of the
  /// executing thread (always < size(); workers are 0..size()-2, the
  /// calling thread is size()-1).  A slot is owned by exactly one thread for
  /// the whole batch, so bodies may write slot-indexed state -- e.g. an
  /// obs::Shard -- without synchronization; the batch barrier orders those
  /// writes before anything the caller does after parallel_for_worker
  /// returns.
  void parallel_for_worker(
      std::size_t count,
      const std::function<void(unsigned worker, std::size_t i)>& body);

 private:
  struct Batch {
    std::size_t count = 0;
    std::size_t next = 0;       // first unclaimed index
    std::size_t in_flight = 0;  // claimed but not yet finished
    const std::function<void(std::size_t)>* body = nullptr;
    std::exception_ptr error;   // first exception thrown by a body
  };

  void worker_loop() RD_EXCLUDES(mutex_);
  /// Claims and runs batch indices until none remain (all claimed, or the
  /// batch was poisoned by an exception).
  void work_through_batch() RD_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  nb::Mutex submit_mutex_;  // serializes external parallel_for callers
  nb::Mutex mutex_;
  /// _any variants: they wait on the annotated nb::MutexLock rather than
  /// std::unique_lock<std::mutex>.
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
  Batch batch_ RD_GUARDED_BY(mutex_);
  bool has_batch_ RD_GUARDED_BY(mutex_) = false;
  bool stop_ RD_GUARDED_BY(mutex_) = false;
};

}  // namespace bgp
