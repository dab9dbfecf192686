// The long-lived route-prediction daemon behind `rdtool serve` (DESIGN.md
// section 15): loads a fitted model once and answers predict / explain /
// what-if / health queries over the length-prefixed JSON protocol
// (serve/protocol.hpp), robust by construction:
//
//  * Concurrency: a fixed worker pool executes read-only queries against
//    one shared Engine whose epoch-cached SimContext snapshot makes
//    concurrent const run() calls safe; each worker owns a SimMemory
//    arena that predict and explain simulate in, so the steady state
//    allocates (amortized) nothing per simulation.
//    What-if queries run against copy-on-write model forks cached by edit
//    key and base-model generation (Model::generation()).
//  * Deadlines: every request gets a wall-clock deadline (server default,
//    request-overridable downward).  The connection answers `degraded`
//    with R710 at the deadline even when the worker is stalled -- the
//    worker finishes harmlessly and its late result is dropped.  What-if
//    handlers check the deadline between prefixes (the PR 5 budget
//    contract via core::WhatIfOptions) and return partial counts.
//  * Backpressure: a bounded admission queue; a full queue rejects with
//    R711 ("503"-style structured shed, `serve.shed` counter) instead of
//    queueing unboundedly.
//  * Poisoned-query quarantine: malformed frames are answered with
//    position-carrying R715 errors; a connection exceeding the malformed
//    streak threshold is answered R713 and closed.  Handler faults
//    (injectable: throw / bad_alloc / stall / diverge, see
//    core::ServeFaultPlan) are absorbed into R712 responses -- a worker
//    thread never dies.
//  * Drain: request_stop() (the SIGTERM path) stops accepting, rejects
//    new requests with R714, finishes the in-flight queue within the
//    drain budget, then force-expires leftovers; shutdown() returns once
//    every thread joined, after which the caller flushes observability
//    atomically (obs::flush_observability) and exits 0.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bgp/engine.hpp"
#include "core/fault_inject.hpp"
#include "netbase/socket.hpp"
#include "serve/protocol.hpp"
#include "topology/model.hpp"

namespace obs {
class FlightRecorder;
class Registry;
class TraceSink;
}  // namespace obs

namespace serve {

struct ServeConfig {
  /// Worker threads (0 = hardware concurrency via nb::resolve_threads).
  unsigned threads = 0;
  /// Admission queue capacity (0 = 4x workers).
  std::size_t queue_capacity = 0;
  /// Default and maximum per-request deadline.
  double deadline_seconds = 2.0;
  /// Drain budget: how long request_stop() waits for in-flight requests.
  double drain_seconds = 5.0;
  /// Default / maximum origins a what-if diff evaluates.
  std::size_t whatif_max_origins = 8;
  /// Cap on detailed change records per what-if response.
  std::size_t max_changes = 32;
  /// Cached what-if forks before the cache resets.
  std::size_t fork_cache_capacity = 8;
  /// Consecutive malformed frames before a connection is quarantined.
  int quarantine_threshold = 3;
  std::size_t max_frame_bytes = nb::kMaxFrameBytes;
  bgp::EngineOptions engine;

  obs::FlightRecorder* flight = nullptr;  // tracks: see flight_tracks()
  obs::TraceSink* trace = nullptr;        // per-request spans when attached
  core::ServeFaultPlan fault;             // RD_FAULT_INJECTION only
};

/// Point-in-time health snapshot (the `health` / `statusz` payload).
struct ServeStatus {
  double uptime_seconds = 0;
  std::uint64_t generation = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  unsigned workers = 0;
  bool draining = false;

  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t malformed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t worker_faults = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t fork_hits = 0;
  std::uint64_t fork_misses = 0;
};

class Server {
 public:
  /// The model must outlive the server and must not be mutated while it
  /// serves (the shared-snapshot contract).
  Server(const topo::Model& model, ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Flight-recorder tracks a serve daemon with `workers` workers writes:
  /// track 0 = accept loop, track 1 = admission (shed events, serialized
  /// by the queue mutex), track 2 + w = worker w.
  static unsigned flight_tracks(unsigned workers) { return 2 + workers; }

  unsigned workers() const { return workers_; }
  std::size_t queue_capacity() const { return queue_capacity_; }

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop
  /// and worker pool.  False + `error` on bind failure.
  bool listen(std::uint16_t port, std::string* error);
  std::uint16_t port() const { return port_; }

  /// Begins the cooperative drain (idempotent, callable after SIGTERM).
  void request_stop();
  /// True once request_stop() was called (or listen() never was).
  bool stopping() const { return draining_.load(std::memory_order_relaxed); }

  /// Drains and joins everything (see class comment).  Safe to call
  /// without listen() and more than once.
  void shutdown();

  /// Answers one request text through the exact worker code path
  /// (parse -> validate -> execute with deadline -> render), bypassing
  /// sockets and admission.  Used by `rdtool serve --once`, the tests'
  /// byte-identity oracle, and anyone embedding the daemon.
  std::string answer(const std::string& request_text);

  ServeStatus status() const;

  /// Copies the serve.* counters and gauges into `registry` (called once
  /// at drain time, before the atomic metrics flush).
  void export_metrics(obs::Registry* registry) const;

 private:
  struct Stats {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> rejected_draining{0};
    std::atomic<std::uint64_t> malformed{0};
    std::atomic<std::uint64_t> quarantined{0};
    std::atomic<std::uint64_t> deadline_expired{0};
    std::atomic<std::uint64_t> worker_faults{0};
    std::atomic<std::uint64_t> abandoned{0};
    std::atomic<std::uint64_t> fork_hits{0};
    std::atomic<std::uint64_t> fork_misses{0};
  };

  /// One admitted request travelling from a connection thread to a worker
  /// and back.  The connection waits on `cv` until `done` or its deadline;
  /// past the deadline it sets `expired` and answers degraded itself --
  /// the worker then drops the late (or never-started) result.
  struct Pending {
    ServeRequest request;
    std::chrono::steady_clock::time_point deadline;
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::string response;
    std::atomic<bool> expired{false};
  };

  /// A cached copy-on-write what-if fork: the edited model plus an engine
  /// over it, keyed by (edit key, base Model::generation()).
  struct Fork {
    std::uint64_t base_generation;
    topo::Model changed;
    bgp::Engine engine;
    Fork(std::uint64_t generation, topo::Model model,
         const bgp::EngineOptions& options)
        : base_generation(generation),
          changed(std::move(model)),
          engine(changed, options) {}
  };

  struct Connection {
    nb::TcpStream stream;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  std::chrono::steady_clock::time_point request_deadline(
      const ServeRequest& request) const;

  void accept_loop();
  void serve_connection(std::uint64_t conn_id, Connection* conn);
  void worker_loop(unsigned worker);
  /// Joins and erases finished connection threads (accept-loop housekeeping).
  void reap_connections(bool all);

  /// Executes one parsed request (worker thread or the --once path) and
  /// returns the rendered response.  Never throws: faults become R712.
  std::string execute(const ServeRequest& request,
                      std::chrono::steady_clock::time_point deadline,
                      bgp::SimMemory& memory, unsigned worker);
  std::string handle_predict(const ServeRequest& request,
                             bgp::SimMemory& memory);
  std::string handle_explain(const ServeRequest& request,
                             bgp::SimMemory& memory);
  std::string handle_whatif(const ServeRequest& request,
                            std::chrono::steady_clock::time_point deadline);
  std::string handle_health(const ServeRequest& request);

  std::shared_ptr<Fork> fork_for(const ServeRequest& request);

  const topo::Model& model_;
  ServeConfig config_;
  unsigned workers_;
  std::size_t queue_capacity_;
  bgp::Engine engine_;
  std::chrono::steady_clock::time_point start_;
  Stats stats_;

  nb::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  /// Hard stop for connection reads (set after the drain budget).
  std::atomic<bool> conn_stop_{false};
  std::atomic<bool> started_{false};

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Pending>> queue_;
  std::atomic<std::size_t> executing_{0};
  std::vector<std::thread> worker_threads_;

  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 0;

  std::mutex fork_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Fork>> forks_;
};

}  // namespace serve
