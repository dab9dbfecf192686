#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "netbase/fsio.hpp"
#include "netbase/json.hpp"

namespace obs {

namespace {

/// JSON key names for the a/b/c payload words of each event type; nullptr
/// drops the word from the dump.
struct PayloadKeys {
  const char* a = nullptr;
  const char* b = nullptr;
  const char* c = nullptr;
};

PayloadKeys payload_keys(FlightEventType type) {
  switch (type) {
    case FlightEventType::kIterationStart:
      return {"iteration", "active", nullptr};
    case FlightEventType::kShardStart:
      return {"iteration", "shard", nullptr};
    case FlightEventType::kShardEnd:
      return {"iteration", "shard", "arena_bytes"};
    case FlightEventType::kPrefixFrozen:
      return {"iteration", "origin", "outcome"};
    case FlightEventType::kCheckpoint:
      return {"iteration", "ok", nullptr};
    case FlightEventType::kInterrupt:
      return {"iteration", nullptr, nullptr};
    case FlightEventType::kFault:
      return {"iteration", "kind", nullptr};
    case FlightEventType::kStop:
      return {"stop", "iterations", nullptr};
    case FlightEventType::kServeAccept:
      return {"connection", nullptr, nullptr};
    case FlightEventType::kServeRequest:
      return {"op", "outcome", "micros"};
    case FlightEventType::kServeShed:
      return {"connection", "queue_depth", nullptr};
    case FlightEventType::kServeDrain:
      return {"in_flight", nullptr, nullptr};
  }
  return {};
}

}  // namespace

const char* flight_event_type_name(FlightEventType type) {
  switch (type) {
    case FlightEventType::kIterationStart:
      return "iteration-start";
    case FlightEventType::kShardStart:
      return "shard-start";
    case FlightEventType::kShardEnd:
      return "shard-end";
    case FlightEventType::kPrefixFrozen:
      return "prefix-frozen";
    case FlightEventType::kCheckpoint:
      return "checkpoint";
    case FlightEventType::kInterrupt:
      return "interrupt";
    case FlightEventType::kFault:
      return "fault";
    case FlightEventType::kStop:
      return "stop";
    case FlightEventType::kServeAccept:
      return "serve-accept";
    case FlightEventType::kServeRequest:
      return "serve-request";
    case FlightEventType::kServeShed:
      return "serve-shed";
    case FlightEventType::kServeDrain:
      return "serve-drain";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(unsigned tracks, std::size_t capacity)
    : num_tracks_(tracks == 0 ? 1 : tracks),
      capacity_(capacity == 0 ? 1 : capacity),
      origin_(std::chrono::steady_clock::now()),
      tracks_(new Track[num_tracks_]),
      labels_(num_tracks_) {
  for (std::size_t t = 0; t < num_tracks_; ++t)
    tracks_[t].ring.resize(capacity_);
}

void FlightRecorder::set_label(unsigned track, std::string label) {
  if (track < num_tracks_) labels_[track] = std::move(label);
}

std::uint64_t FlightRecorder::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

std::uint64_t FlightRecorder::recorded(unsigned track) const {
  if (track >= num_tracks_) return 0;
  return tracks_[track].count.load(std::memory_order_acquire);
}

std::string FlightRecorder::dump_json(int indent) const {
  nb::JsonWriter json(indent);
  json.begin_object();
  json.key("tool").value("flight-recorder");
  json.key("version").value(1);
  json.key("tracks").value(static_cast<std::uint64_t>(num_tracks_));
  json.key("capacity").value(static_cast<std::uint64_t>(capacity_));
  json.key("rings").begin_array();
  for (std::size_t t = 0; t < num_tracks_; ++t) {
    const Track& track = tracks_[t];
    const std::uint64_t count = track.count.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(count, capacity_);
    json.begin_object();
    json.key("track").value(static_cast<std::uint64_t>(t));
    json.key("label").value(
        !labels_[t].empty() ? labels_[t]
        : t == 0            ? std::string("serial")
                            : "worker-" + std::to_string(t - 1));
    json.key("recorded").value(count);
    json.key("dropped").value(count - kept);
    json.key("events").begin_array();
    // Oldest kept event first: the ring holds [count - kept, count).
    for (std::uint64_t i = count - kept; i < count; ++i) {
      const FlightEvent& e = track.ring[i % capacity_];
      const PayloadKeys keys = payload_keys(e.type);
      json.begin_object();
      json.key("ts_us").value(e.ts_us);
      json.key("type").value(flight_event_type_name(e.type));
      if (keys.a != nullptr) json.key(keys.a).value(e.a);
      if (keys.b != nullptr) json.key(keys.b).value(e.b);
      if (keys.c != nullptr) json.key(keys.c).value(e.c);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  std::string* error) const {
  return nb::write_file_atomic(path, dump_json(2) + "\n", error);
}

}  // namespace obs
