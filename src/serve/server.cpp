#include "serve/server.hpp"

#include <exception>
#include <new>
#include <stdexcept>
#include <utility>

#include "analysis/diagnostics.hpp"
#include "bgp/explain.hpp"
#include "bgp/sim_memory.hpp"
#include "core/whatif.hpp"
#include "netbase/ip.hpp"
#include "netbase/json.hpp"
#include "netbase/sysinfo.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Outcome token recorded in flight kServeRequest events (payload b).
enum class ServeOutcome : std::uint64_t {
  kOk = 0,
  kDegraded = 1,
  kError = 2,
  kAbandoned = 3,
};

/// Starts a response document: {"id": N, "status": S.  The caller adds
/// payload members and calls end_object().
void begin_response(nb::JsonWriter* json, std::uint64_t id,
                    const char* status) {
  json->begin_object();
  json->key("id").value(id);
  json->key("status").value(status);
}

/// A complete non-ok response with no payload.
std::string render_failure(std::uint64_t id, const char* status,
                           const char* code, const std::string& message) {
  nb::JsonWriter json;
  begin_response(&json, id, status);
  json.key("code").value(code);
  json.key("error").value(message);
  json.end_object();
  return json.str();
}

void append_path_set(nb::JsonWriter* json,
                     const std::set<std::vector<nb::Asn>>& paths) {
  json->begin_array();
  for (const auto& path : paths) {
    json->begin_array();
    for (nb::Asn hop : path) json->value(static_cast<std::uint64_t>(hop));
    json->end_array();
  }
  json->end_array();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

Server::Server(const topo::Model& model, ServeConfig config)
    : model_(model),
      config_(std::move(config)),
      workers_(nb::resolve_threads(config_.threads)),
      queue_capacity_(config_.queue_capacity == 0 ? 4 * workers_
                                                  : config_.queue_capacity),
      engine_(model, config_.engine),
      start_(Clock::now()) {
  // Build the shared SimContext snapshot up front: the first query then
  // pays no epoch-cache miss, and every concurrent query shares it.
  (void)engine_.context();
}

Server::~Server() { shutdown(); }

Clock::time_point Server::request_deadline(const ServeRequest& request) const {
  // A request may tighten its deadline, never extend past the server cap.
  double seconds = config_.deadline_seconds;
  if (request.deadline_ms > 0) {
    const double requested = request.deadline_ms / 1000.0;
    if (requested < seconds || seconds <= 0) seconds = requested;
  }
  if (seconds <= 0) seconds = 2.0;
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

bool Server::listen(std::uint16_t port, std::string* error) {
  auto listener = nb::TcpListener::bind(port, error);
  if (!listener) return false;
  listener_ = std::move(*listener);
  port_ = listener_.port();
  started_.store(true);
  worker_threads_.reserve(workers_);
  for (unsigned w = 0; w < workers_; ++w)
    worker_threads_.emplace_back([this, w] { worker_loop(w); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::accept_loop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    std::string error;
    auto stream = listener_.accept(/*timeout_ms=*/100, &error);
    reap_connections(/*all=*/false);
    if (!stream) continue;
    const std::uint64_t conn_id = stats_.connections.fetch_add(1) + 1;
    if (config_.flight != nullptr)
      config_.flight->record(0, obs::FlightEventType::kServeAccept, conn_id);
    auto conn = std::make_unique<Connection>();
    conn->stream = std::move(*stream);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    raw->thread =
        std::thread([this, conn_id, raw] { serve_connection(conn_id, raw); });
  }
}

void Server::reap_connections(bool all) {
  std::vector<std::unique_ptr<Connection>> done;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || (*it)->finished.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : done)
    if (conn->thread.joinable()) conn->thread.join();
}

void Server::serve_connection(std::uint64_t conn_id, Connection* conn) {
  int malformed_streak = 0;
  while (!conn_stop_.load(std::memory_order_relaxed)) {
    std::string payload;
    std::string io_error;
    const nb::FrameStatus status =
        nb::read_frame(conn->stream, &payload, /*timeout_ms=*/0, &conn_stop_,
                       config_.max_frame_bytes, &io_error);
    if (status == nb::FrameStatus::kClosed ||
        status == nb::FrameStatus::kStopped ||
        status == nb::FrameStatus::kError) {
      break;
    }
    if (status == nb::FrameStatus::kTimeout) continue;
    if (status == nb::FrameStatus::kTooLarge) {
      // The stream position is unrecoverable (the announced payload was
      // never read): answer, quarantine, close.
      stats_.malformed.fetch_add(1);
      stats_.quarantined.fetch_add(1);
      nb::write_frame(conn->stream,
                      render_failure(0, "error",
                                     analysis::codes::kServeQuarantine,
                                     "oversized frame: " + io_error));
      break;
    }

    std::string parse_error;
    auto request = parse_request(payload, &parse_error);
    if (!request) {
      // Poisoned frame: structured, position-carrying error; the
      // connection survives until the malformed streak trips quarantine.
      stats_.malformed.fetch_add(1);
      ++malformed_streak;
      if (malformed_streak >= config_.quarantine_threshold) {
        stats_.quarantined.fetch_add(1);
        nb::write_frame(
            conn->stream,
            render_failure(0, "error", analysis::codes::kServeQuarantine,
                           "connection quarantined after " +
                               std::to_string(malformed_streak) +
                               " malformed frames (last: " + parse_error +
                               ")"));
        break;
      }
      stats_.errors.fetch_add(1);
      if (!nb::write_frame(conn->stream,
                           render_failure(0, "error",
                                          analysis::codes::kServeBadRequest,
                                          parse_error)))
        break;
      continue;
    }
    malformed_streak = 0;
    stats_.requests.fetch_add(1);

    // Health bypasses the queue: monitoring must answer during overload,
    // and the handler only reads atomics.
    if (request->op == ServeRequest::Op::kHealth) {
      stats_.ok.fetch_add(1);
      if (!nb::write_frame(conn->stream, handle_health(*request))) break;
      continue;
    }

    if (draining_.load(std::memory_order_relaxed)) {
      stats_.rejected_draining.fetch_add(1);
      nb::write_frame(conn->stream,
                      render_failure(request->id, "rejected",
                                     analysis::codes::kServeDraining,
                                     "server is draining"));
      continue;
    }

    auto pending = std::make_shared<Pending>();
    pending->request = *request;
    pending->deadline = request_deadline(*request);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() >= queue_capacity_) {
        // Load shed: bounded admission, structured rejection.  The flight
        // event is written under the queue mutex, which serializes every
        // admission-track writer (the single-writer rule by lock instead
        // of by thread).
        stats_.shed.fetch_add(1);
        if (config_.flight != nullptr)
          config_.flight->record(1, obs::FlightEventType::kServeShed, conn_id,
                                 queue_.size());
        nb::write_frame(conn->stream,
                        render_failure(request->id, "rejected",
                                       analysis::codes::kServeOverload,
                                       "admission queue full"));
        continue;
      }
      queue_.push_back(pending);
    }
    queue_cv_.notify_one();

    std::unique_lock<std::mutex> lock(pending->mutex);
    const bool finished = pending->cv.wait_until(
        lock, pending->deadline, [&pending] { return pending->done; });
    if (finished) {
      const std::string response = pending->response;
      lock.unlock();
      if (!nb::write_frame(conn->stream, response)) break;
      continue;
    }
    // Deadline passed with the worker still stalled (or the request still
    // queued): answer degraded NOW and let the late result be dropped --
    // the client always hears back within its deadline, and a stalled
    // handler can never wedge the connection.
    pending->expired.store(true, std::memory_order_release);
    lock.unlock();
    stats_.deadline_expired.fetch_add(1);
    stats_.degraded.fetch_add(1);
    if (!nb::write_frame(conn->stream,
                         render_failure(pending->request.id, "degraded",
                                        analysis::codes::kServeDeadline,
                                        "deadline exceeded")))
      break;
  }
  {
    // shutdown() calls shutdown_both() on live streams under this lock;
    // closing under it too keeps that from reading a closing (or reused) fd.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conn->stream.close();
  }
  conn->finished.store(true, std::memory_order_release);
}

void Server::worker_loop(unsigned worker) {
  SimBuffers buffers;
  for (;;) {
    std::shared_ptr<Pending> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) {
        if (draining_.load(std::memory_order_relaxed)) return;
        continue;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    if (pending->expired.load(std::memory_order_acquire)) {
      // Expired while queued: the connection already answered degraded.
      stats_.abandoned.fetch_add(1);
      if (config_.flight != nullptr)
        config_.flight->record(
            2 + worker, obs::FlightEventType::kServeRequest,
            static_cast<std::uint64_t>(pending->request.op),
            static_cast<std::uint64_t>(ServeOutcome::kAbandoned), 0);
      continue;
    }
    executing_.fetch_add(1);
    const std::string response =
        execute(pending->request, pending->deadline, buffers, worker);
    executing_.fetch_sub(1);
    {
      std::lock_guard<std::mutex> lock(pending->mutex);
      pending->done = true;
      pending->response = response;
    }
    pending->cv.notify_all();
    if (pending->expired.load(std::memory_order_acquire))
      stats_.abandoned.fetch_add(1);
  }
}

std::string Server::execute(const ServeRequest& request,
                            Clock::time_point deadline, SimBuffers& buffers,
                            unsigned worker) {
  const std::uint64_t start_us =
      config_.trace != nullptr ? config_.trace->now_us() : 0;
  const Clock::time_point handler_start = Clock::now();
  std::string response;
  ServeOutcome outcome = ServeOutcome::kOk;
  try {
#ifdef RD_FAULT_INJECTION
    // Request-addressed fault points (core::ServeFaultPlan): only honored
    // when the daemon opted in, so a rogue client cannot stall workers.
    if (config_.fault.honor_request_faults && !request.fault.empty()) {
      if (request.fault == "throw")
        throw std::runtime_error("injected worker fault");
      if (request.fault == "stall") {
        const std::uint64_t ms =
            request.stall_ms > 0 ? request.stall_ms : config_.fault.stall_ms;
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
    }
#endif
    switch (request.op) {
      case ServeRequest::Op::kPredict:
        response = handle_predict(request, buffers);
        break;
      case ServeRequest::Op::kExplain:
        response = handle_explain(request, buffers);
        break;
      case ServeRequest::Op::kWhatIf:
        response = handle_whatif(request, deadline, buffers);
        break;
      case ServeRequest::Op::kHealth:
        response = handle_health(request);
        break;
    }
    if (response.find("\"status\": \"degraded\"") != std::string::npos)
      outcome = ServeOutcome::kDegraded;
    else if (response.find("\"status\": \"ok\"") == std::string::npos)
      outcome = ServeOutcome::kError;
  } catch (const std::bad_alloc&) {
    // Allocation failure inside a handler (e.g. during a what-if fork):
    // the worker absorbs it and answers structured; it never dies.
    stats_.worker_faults.fetch_add(1);
    outcome = ServeOutcome::kError;
    response = render_failure(request.id, "error",
                              analysis::codes::kServeHandlerFault,
                              "allocation failure while handling request");
  } catch (const std::exception& e) {
    stats_.worker_faults.fetch_add(1);
    outcome = ServeOutcome::kError;
    response =
        render_failure(request.id, "error",
                       analysis::codes::kServeHandlerFault,
                       std::string("handler fault: ") + e.what());
  }
  switch (outcome) {
    case ServeOutcome::kOk:
      stats_.ok.fetch_add(1);
      break;
    case ServeOutcome::kDegraded:
      stats_.degraded.fetch_add(1);
      break;
    default:
      stats_.errors.fetch_add(1);
      break;
  }
  const std::uint64_t micros = static_cast<std::uint64_t>(
      seconds_since(handler_start) * 1e6);
  if (config_.flight != nullptr)
    config_.flight->record(2 + worker, obs::FlightEventType::kServeRequest,
                           static_cast<std::uint64_t>(request.op),
                           static_cast<std::uint64_t>(outcome), micros);
  if (config_.trace != nullptr &&
      config_.trace->enabled(obs::TraceLevel::kIteration)) {
    config_.trace->complete("serve", op_name(request.op), start_us, micros,
                            worker + 1);
  }
  return response;
}

std::string Server::handle_predict(const ServeRequest& request,
                                   SimBuffers& buffers) {
  if (!model_.has_as(request.origin) || !model_.has_as(request.vantage)) {
    return render_failure(request.id, "error",
                          analysis::codes::kServeBadRequest,
                          "origin and vantage must name ASes in the model");
  }
  bgp::PrefixSimResult& sim = buffers.sim;
  const nb::Prefix prefix = nb::Prefix::for_asn(request.origin);
  engine_.run_into(engine_.identity_view(prefix, request.origin),
                   buffers.memory, nullptr, nullptr, sim);
  bool diverged = !sim.converged;
#ifdef RD_FAULT_INJECTION
  if (config_.fault.honor_request_faults && request.fault == "diverge")
    diverged = true;
#endif
  const auto paths = core::best_paths_of(model_, sim, request.vantage);

  nb::JsonWriter json;
  begin_response(&json, request.id, diverged ? "degraded" : "ok");
  if (diverged) {
    // Divergence guard tripped: the RIBs are a partial fixed point; report
    // them as degraded with the R-code instead of killing the query.
    json.key("code").value(analysis::codes::kEngineDiverged);
    json.key("error").value("divergence guard tripped; paths are partial");
  }
  json.key("op").value("predict");
  json.key("origin").value(static_cast<std::uint64_t>(request.origin));
  json.key("vantage").value(static_cast<std::uint64_t>(request.vantage));
  json.key("reachable").value(!paths.empty());
  json.key("paths");
  append_path_set(&json, paths);
  json.end_object();
  return json.str();
}

std::string Server::handle_explain(const ServeRequest& request,
                                   SimBuffers& buffers) {
  if (!model_.has_as(request.origin) || !model_.has_as(request.vantage)) {
    return render_failure(request.id, "error",
                          analysis::codes::kServeBadRequest,
                          "origin and as must name ASes in the model");
  }
  bgp::PrefixSimResult& sim = buffers.sim;
  const nb::Prefix prefix = nb::Prefix::for_asn(request.origin);
  engine_.run_into(engine_.identity_view(prefix, request.origin),
                   buffers.memory, nullptr, nullptr, sim);
  nb::JsonWriter json;
  begin_response(&json, request.id, "ok");
  json.key("op").value("explain");
  json.key("origin").value(static_cast<std::uint64_t>(request.origin));
  json.key("as").value(static_cast<std::uint64_t>(request.vantage));
  json.key("routers").begin_array();
  for (topo::Model::Dense r : model_.routers_of(request.vantage)) {
    json.begin_object();
    json.key("router").value(model_.router_id(r).str());
    json.key("text").value(
        bgp::explain_selection(model_, sim, r).str(model_));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::shared_ptr<Server::Fork> Server::fork_for(const ServeRequest& request) {
  const std::string key = request.fork_key();
  const std::uint64_t generation = model_.generation();
  {
    std::lock_guard<std::mutex> lock(fork_mutex_);
    auto it = forks_.find(key);
    if (it != forks_.end() && it->second->base_generation == generation) {
      stats_.fork_hits.fetch_add(1);
      return it->second;
    }
  }
  stats_.fork_misses.fetch_add(1);
#ifdef RD_FAULT_INJECTION
  // The bad_alloc-during-fork injection point: fires before anything is
  // cached, so the fork cache never holds a half-built entry.
  if (config_.fault.honor_request_faults && request.fault == "bad-alloc")
    throw std::bad_alloc();
#endif
  core::WhatIfScenario scenario;
  if (request.edit == "session-down") {
    scenario.remove_sessions.emplace_back(request.session_a,
                                          request.session_b);
  } else {
    scenario.deny_prefix.push_back(
        {request.from, request.to, nb::Prefix::for_asn(request.origin)});
  }
  auto fork = std::make_shared<Fork>(
      generation, core::apply_scenario(model_, scenario), config_.engine);
  {
    std::lock_guard<std::mutex> lock(fork_mutex_);
    // Bounded cache: a reset is simpler than LRU bookkeeping and the
    // steady state (a handful of hot edits) never reaches it.
    if (forks_.size() >= config_.fork_cache_capacity) forks_.clear();
    forks_[key] = fork;
  }
  return fork;
}

std::string Server::handle_whatif(const ServeRequest& request,
                                  Clock::time_point deadline,
                                  SimBuffers& buffers) {
  if (request.edit == "session-down") {
    if (!model_.has_router(request.session_a) ||
        !model_.has_router(request.session_b) ||
        !model_.has_session(request.session_a, request.session_b)) {
      return render_failure(request.id, "error",
                            analysis::codes::kServeBadRequest,
                            "session does not exist in the model");
    }
  } else {
    if (!model_.has_as(request.origin) || !model_.has_as(request.from) ||
        !model_.has_as(request.to)) {
      return render_failure(request.id, "error",
                            analysis::codes::kServeBadRequest,
                            "origin, from and to must name ASes in the model");
    }
  }
  const auto fork = fork_for(request);

  std::vector<nb::Asn> origins = request.origins;
  if (origins.empty()) {
    if (request.edit == "policy-edit") {
      origins.push_back(request.origin);
    } else {
      origins = model_.asns();
    }
  }
  if (origins.size() > config_.whatif_max_origins)
    origins.resize(config_.whatif_max_origins);

  core::WhatIfOptions options;
  options.engine = config_.engine;
  options.max_changes = config_.max_changes;
  core::WhatIfResult result;
  for (nb::Asn origin : origins) {
    // The per-request deadline applied between prefixes (PR 5's budget
    // contract): a slow diff returns partial counts as `degraded`, never
    // nothing.
    if (Clock::now() >= deadline) {
      result.truncated = true;
      break;
    }
    if (!model_.has_as(origin)) continue;
    core::diff_origin_routes(model_, engine_, fork->changed, fork->engine,
                             origin, options, buffers.memory, buffers.sim,
                             buffers.after, &result);
  }

  nb::JsonWriter json;
  begin_response(&json, request.id, result.truncated ? "degraded" : "ok");
  if (result.truncated) {
    json.key("code").value(analysis::codes::kServeDeadline);
    json.key("error").value(
        "deadline exceeded; counts cover the evaluated prefixes only");
  }
  json.key("op").value("whatif");
  json.key("edit").value(request.edit);
  json.key("prefixes_evaluated")
      .value(static_cast<std::uint64_t>(result.prefixes_evaluated));
  json.key("pairs_evaluated")
      .value(static_cast<std::uint64_t>(result.pairs_evaluated));
  json.key("pairs_changed")
      .value(static_cast<std::uint64_t>(result.pairs_changed));
  json.key("pairs_lost_reachability")
      .value(static_cast<std::uint64_t>(result.pairs_lost_reachability));
  json.key("pairs_gained_reachability")
      .value(static_cast<std::uint64_t>(result.pairs_gained_reachability));
  json.key("changes").begin_array();
  for (const core::RouteChange& change : result.changes) {
    json.begin_object();
    json.key("origin").value(static_cast<std::uint64_t>(change.origin));
    json.key("observer").value(static_cast<std::uint64_t>(change.observer));
    json.key("before");
    append_path_set(&json, change.before);
    json.key("after");
    append_path_set(&json, change.after);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string Server::handle_health(const ServeRequest& request) {
  const ServeStatus s = status();
  nb::JsonWriter json;
  begin_response(&json, request.id, "ok");
  json.key("op").value("health");
  json.key("uptime_seconds").value_fixed(s.uptime_seconds, 3);
  json.key("generation").value(s.generation);
  json.key("ases").value(static_cast<std::uint64_t>(model_.num_ases()));
  json.key("routers").value(static_cast<std::uint64_t>(model_.num_routers()));
  json.key("workers").value(s.workers);
  json.key("queue_depth").value(static_cast<std::uint64_t>(s.queue_depth));
  json.key("queue_capacity")
      .value(static_cast<std::uint64_t>(s.queue_capacity));
  json.key("draining").value(s.draining);
  json.key("peak_rss_bytes").value(nb::peak_rss_bytes());
  json.key("counters").begin_object();
  json.key("connections").value(s.connections);
  json.key("requests").value(s.requests);
  json.key("ok").value(s.ok);
  json.key("degraded").value(s.degraded);
  json.key("errors").value(s.errors);
  json.key("shed").value(s.shed);
  json.key("rejected_draining").value(s.rejected_draining);
  json.key("malformed").value(s.malformed);
  json.key("quarantined").value(s.quarantined);
  json.key("deadline_expired").value(s.deadline_expired);
  json.key("worker_faults").value(s.worker_faults);
  json.key("abandoned").value(s.abandoned);
  json.key("fork_hits").value(s.fork_hits);
  json.key("fork_misses").value(s.fork_misses);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string Server::answer(const std::string& request_text) {
  std::string parse_error;
  auto request = parse_request(request_text, &parse_error);
  if (!request) {
    stats_.malformed.fetch_add(1);
    stats_.errors.fetch_add(1);
    return render_failure(0, "error", analysis::codes::kServeBadRequest,
                          parse_error);
  }
  stats_.requests.fetch_add(1);
  SimBuffers buffers;
  return execute(*request, request_deadline(*request), buffers, 0);
}

ServeStatus Server::status() const {
  ServeStatus s;
  s.uptime_seconds = seconds_since(start_);
  s.generation = model_.generation();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queue_depth = queue_.size();
  }
  s.queue_capacity = queue_capacity_;
  s.workers = workers_;
  s.draining = draining_.load(std::memory_order_relaxed);
  s.connections = stats_.connections.load();
  s.requests = stats_.requests.load();
  s.ok = stats_.ok.load();
  s.degraded = stats_.degraded.load();
  s.errors = stats_.errors.load();
  s.shed = stats_.shed.load();
  s.rejected_draining = stats_.rejected_draining.load();
  s.malformed = stats_.malformed.load();
  s.quarantined = stats_.quarantined.load();
  s.deadline_expired = stats_.deadline_expired.load();
  s.worker_faults = stats_.worker_faults.load();
  s.abandoned = stats_.abandoned.load();
  s.fork_hits = stats_.fork_hits.load();
  s.fork_misses = stats_.fork_misses.load();
  return s;
}

void Server::export_metrics(obs::Registry* registry) const {
  if (registry == nullptr) return;
  const ServeStatus s = status();
  const auto add = [registry](const char* name, std::uint64_t value) {
    registry->add(registry->counter(name), value);
  };
  add("serve.connections", s.connections);
  add("serve.requests", s.requests);
  add("serve.ok", s.ok);
  add("serve.degraded", s.degraded);
  add("serve.errors", s.errors);
  add("serve.shed", s.shed);
  add("serve.rejected_draining", s.rejected_draining);
  add("serve.malformed", s.malformed);
  add("serve.quarantined", s.quarantined);
  add("serve.deadline_expired", s.deadline_expired);
  add("serve.worker_faults", s.worker_faults);
  add("serve.abandoned", s.abandoned);
  add("serve.fork_hits", s.fork_hits);
  add("serve.fork_misses", s.fork_misses);
  registry->set_gauge(registry->gauge("serve.workers"), s.workers);
  registry->set_gauge(registry->gauge("serve.queue_capacity"),
                      s.queue_capacity);
  registry->set_gauge(registry->gauge("serve.uptime_seconds"),
                      static_cast<std::uint64_t>(s.uptime_seconds));
  registry->set_gauge(registry->gauge("serve.peak_rss_bytes"),
                      nb::peak_rss_bytes());
}

void Server::request_stop() {
  draining_.store(true, std::memory_order_relaxed);
  queue_cv_.notify_all();
}

void Server::shutdown() {
  request_stop();
  if (!started_.exchange(false)) return;

  // 1. Stop accepting: the accept loop observes draining_ within one
  //    100 ms poll slice; joining it closes the front door.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (config_.flight != nullptr) {
    std::size_t in_flight = executing_.load();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      in_flight += queue_.size();
    }
    config_.flight->record(0, obs::FlightEventType::kServeDrain, in_flight);
  }

  // 2. Drain budget: wait for the admitted queue and executing handlers.
  const Clock::time_point budget =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config_.drain_seconds));
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.empty() && executing_.load() == 0) break;
    }
    if (Clock::now() >= budget) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // 3. Force-expire whatever the budget left behind: waiting connections
  //    get an immediate structured rejection instead of their full
  //    deadline, and workers skip the expired entries instantly.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const auto& pending : queue_) {
      pending->expired.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> plock(pending->mutex);
        if (!pending->done) {
          pending->done = true;
          pending->response = render_failure(
              pending->request.id, "rejected",
              analysis::codes::kServeDraining, "server drained before "
              "execution");
        }
      }
      pending->cv.notify_all();
    }
  }
  queue_cv_.notify_all();
  for (std::thread& worker : worker_threads_)
    if (worker.joinable()) worker.join();
  worker_threads_.clear();

  // 4. Unblock and join every connection reader.
  conn_stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) conn->stream.shutdown_both();
  }
  reap_connections(/*all=*/true);
}

}  // namespace serve
