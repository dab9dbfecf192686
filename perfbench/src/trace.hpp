// Bench-side spans around the calls into each layer (README.md, "Traced
// run").  A span carries name, layer, start, end, parent and, for serve
// requests, the request id.  Spans stay in memory and are written out once,
// after the run; a disabled tracer records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// One recorded span; ids start at 1, parent 0 means a root span.
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    unsigned thread = 0;
  };

  /// Opens a span on construction and closes it on destruction.  Its parent
  /// is the innermost open scope of the calling thread, unless `parent` is
  /// given (a load-generator thread parents its requests to the serve span
  /// of the main thread).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, const char* name,
          std::uint64_t request = 0, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
    std::uint64_t saved_current_ = 0;
  };

  /// Self time per layer: each span's duration minus the part of it that
  /// its child spans cover, summed by layer.
  std::map<std::string, double> self_seconds() const;

  /// Writes the spans as Chrome trace_event JSON.  False on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  void record(Span span);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;  // guarded by mutex_
  std::map<std::uint64_t, unsigned> thread_index_;  // guarded by mutex_

  friend class Scope;
};

}  // namespace perfbench
