#include "bgp/threadpool.hpp"

#include <algorithm>
#include <stdexcept>

#include "netbase/sysinfo.hpp"

namespace bgp {

namespace {
// The pool whose batch the current thread is executing, if any; used to
// detect nested parallel_for calls that would deadlock.
thread_local const ThreadPool* tls_running_pool = nullptr;
// The executing thread's slot for parallel_for_worker: workers are
// 0..size()-2 (set once at thread start), the calling thread size()-1
// (set per batch in parallel_for, restored after for nested pools).
thread_local unsigned tls_worker_slot = 0;
}  // namespace

unsigned ThreadPool::resolve(unsigned threads) {
  // Delegates to the one shared rule (0 = hardware concurrency, clamped)
  // so pools, rdtool subcommands and benches cannot drift apart.
  return nb::resolve_threads(threads);
}

ThreadPool::ThreadPool(unsigned threads) {
  // The calling thread runs bodies too, so N threads need N - 1 workers;
  // with one thread every batch runs inline.
  threads = resolve(threads);
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this, i] {
      tls_worker_slot = i;
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    nb::MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (tls_running_pool == this) {
    throw std::logic_error(
        "nested ThreadPool::parallel_for on the same pool");
  }
  const ThreadPool* previous = tls_running_pool;
  const unsigned previous_slot = tls_worker_slot;
  tls_running_pool = this;
  tls_worker_slot = static_cast<unsigned>(workers_.size());
  struct Restore {
    const ThreadPool* previous;
    unsigned previous_slot;
    ~Restore() {
      tls_running_pool = previous;
      tls_worker_slot = previous_slot;
    }
  } restore{previous, previous_slot};

  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  nb::MutexLock submit(submit_mutex_);
  {
    nb::MutexLock lock(mutex_);
    batch_ = Batch{count, 0, 0, &body, nullptr};
    has_batch_ = true;
  }
  work_cv_.notify_all();
  // The calling thread participates too.
  work_through_batch();
  std::exception_ptr error;
  {
    nb::MutexLock lock(mutex_);
    // Explicit wait loop: the predicate reads mutex_-guarded state, which
    // the thread-safety analysis can follow here but not inside a lambda
    // passed to condition_variable_any::wait.
    while (batch_.next < batch_.count || batch_.in_flight != 0)
      done_cv_.wait(lock);
    has_batch_ = false;
    error = std::move(batch_.error);
    batch_ = Batch{};
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for_worker(
    std::size_t count,
    const std::function<void(unsigned worker, std::size_t i)>& body) {
  parallel_for(count,
               [&body](std::size_t i) { body(tls_worker_slot, i); });
}

void ThreadPool::work_through_batch() {
  for (;;) {
    std::size_t index;
    const std::function<void(std::size_t)>* body;
    {
      nb::MutexLock lock(mutex_);
      if (!has_batch_ || batch_.next >= batch_.count) return;
      index = batch_.next++;
      ++batch_.in_flight;
      body = batch_.body;
    }
    std::exception_ptr error;
    try {
      (*body)(index);
    } catch (...) {
      error = std::current_exception();
    }
    nb::MutexLock lock(mutex_);
    --batch_.in_flight;
    if (error) {
      if (!batch_.error) batch_.error = std::move(error);
      batch_.next = batch_.count;  // abandon unclaimed indices
    }
    if (batch_.next >= batch_.count && batch_.in_flight == 0)
      done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  tls_running_pool = this;
  for (;;) {
    {
      nb::MutexLock lock(mutex_);
      while (!stop_ && !(has_batch_ && batch_.next < batch_.count))
        work_cv_.wait(lock);
      if (stop_) return;
    }
    work_through_batch();
  }
}

}  // namespace bgp
