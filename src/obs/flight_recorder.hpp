// Always-on crash telemetry for the refinement loop: a fixed-capacity
// event ring per track (one serial track plus one per sweep worker),
// recording coarse loop events -- iteration starts, per-prefix sweep
// simulations (a "shard" is one prefix), prefix freezes, checkpoints,
// faults -- cheaply enough to stay attached by default.  On a degraded or
// faulted stop (R700/R702/R703/R704) core::refine_model dumps the rings to a
// post-mortem JSON so the last moments of a bad run are inspectable even
// when no trace sink was attached.
//
// Lock-free by ownership, not by cleverness: each track is written by
// exactly one thread (ThreadPool::parallel_for_worker guarantees a worker
// slot is owned by one thread per batch; the serial track by the loop
// thread), so record() is a plain slot write plus one release store of the
// monotone event count.  Readers (dump_json) acquire the counts; they run
// after the pool barrier -- or post-mortem, when the workers are long
// quiescent -- so they never race a writer.  A full ring overwrites its
// oldest events: the recorder keeps the most recent `capacity` events per
// track, and the dump reports how many were dropped.
//
// Recording never feeds back into the fit: like the Observer sinks, the
// fitted model is byte-identical with and without a recorder attached.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace obs {

enum class FlightEventType : std::uint8_t {
  kIterationStart,  // a=iteration, b=active prefixes
  kShardStart,      // a=iteration, b=shard (one prefix)
  kShardEnd,        // a=iteration, b=shard (one prefix), c=arena bytes
                    // (high-water)
  kPrefixFrozen,    // a=iteration, b=origin, c=PrefixOutcome as int
  kCheckpoint,      // a=iteration, b=ok (1) / failed (0)
  kInterrupt,       // a=iteration
  kFault,           // a=iteration, b=kind (0 sweep, 2 resume)
  kStop,            // a=RefineStop as int, b=iterations
  // Serve-daemon events (serve::Server; DESIGN.md section 15).  Track
  // convention there: 0 = accept loop, 1 = admission (serialized by the
  // queue mutex), 2 + w = worker w.
  kServeAccept,   // a=connection id
  kServeRequest,  // a=op (ServeRequest::Op), b=outcome (ServeOutcome),
                  // c=handler micros
  kServeShed,     // a=connection id, b=queue depth at rejection
  kServeDrain,    // a=in-flight requests when the drain began
};

/// Stable token used in dumps: iteration-start | shard-start | shard-end |
/// prefix-frozen | checkpoint | interrupt | fault | stop | serve-accept |
/// serve-request | serve-shed | serve-drain.
const char* flight_event_type_name(FlightEventType type);

/// One recorded event.  The payload words a/b/c are typed per
/// FlightEventType (see the enum comments); dump_json names them.
struct FlightEvent {
  std::uint64_t ts_us = 0;
  FlightEventType type = FlightEventType::kStop;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// `tracks` single-writer rings of `capacity` events each.  Convention
  /// (refine_model): track 0 is the serial loop, track 1 + w is sweep
  /// slot w, so callers size it 1 + thread count (ThreadPool::size()).
  explicit FlightRecorder(unsigned tracks,
                          std::size_t capacity = kDefaultCapacity);

  unsigned tracks() const { return static_cast<unsigned>(num_tracks_); }
  std::size_t capacity() const { return capacity_; }

  /// Overrides the dump label of `track` (default: "serial" / "worker-N",
  /// the refine convention).  Call before any writer starts -- labels are
  /// not synchronized with record().
  void set_label(unsigned track, std::string label);

  /// Microseconds since recorder construction (the dump's time origin).
  std::uint64_t now_us() const;

  /// Appends one event to `track`'s ring, overwriting the oldest when
  /// full.  Must only be called by the track's owning thread; events on an
  /// out-of-range track are dropped (a mis-sized recorder degrades, never
  /// corrupts).
  void record(unsigned track, FlightEventType type, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0) {
    if (track >= num_tracks_) return;
    Track& t = tracks_[track];
    const std::uint64_t n = t.count.load(std::memory_order_relaxed);
    t.ring[n % capacity_] = FlightEvent{now_us(), type, a, b, c};
    t.count.store(n + 1, std::memory_order_release);
  }

  /// Events ever recorded on `track` (including overwritten ones).
  std::uint64_t recorded(unsigned track) const;

  /// The post-mortem document: {"tool": "flight-recorder", "version": 1,
  /// "tracks": N, "capacity": C, "rings": [{"track", "label", "recorded",
  /// "dropped", "events": [{"ts_us", "type", <typed payload keys>}]}]}.
  /// Events are emitted oldest first.  Call only while the writers are
  /// quiescent (after a pool barrier / after the fit returned).
  std::string dump_json(int indent = 0) const;

  /// Writes dump_json(2) atomically (tmp file + rename) so a crash during
  /// the dump never leaves a truncated document.  False + `error` on I/O
  /// failure.
  bool dump_to_file(const std::string& path, std::string* error = nullptr) const;

 private:
  struct Track {
    std::vector<FlightEvent> ring;
    std::atomic<std::uint64_t> count{0};
  };

  std::size_t num_tracks_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point origin_;
  std::unique_ptr<Track[]> tracks_;
  /// Per-track dump labels; "" falls back to the refine convention.
  std::vector<std::string> labels_;
};

}  // namespace obs
