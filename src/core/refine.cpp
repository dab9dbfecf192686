#include "core/refine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/check_convergence.hpp"
#include "analysis/dispute_graph.hpp"
#include "analysis/policy_audit.hpp"
#include "analysis/validate_model.hpp"
#include "analysis/workset.hpp"
#include "bgp/sim_memory.hpp"
#include "bgp/threadpool.hpp"
#include "core/fault_inject.hpp"
#include "core/oscillation.hpp"
#include "netbase/json.hpp"
#include "netbase/sysinfo.hpp"
#include "netbase/thread_annotations.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/observer.hpp"
#include "topology/model_io.hpp"

namespace core {
namespace {

using bgp::PrefixSimResult;
using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::AsPath;
using topo::Model;

bool route_path_equals(std::span<const Asn> route_path,
                       std::span<const Asn> expected) {
  return route_path.size() == expected.size() &&
         std::equal(route_path.begin(), route_path.end(), expected.begin());
}

struct PrefixWork {
  Asn origin = nb::kInvalidAsn;
  Prefix prefix;
  std::vector<AsPath> paths;  // deterministically sorted, shorter first
  bool done = false;
  std::size_t matched = 0;  // last iteration's fully matched paths
  // Fault-tolerance state (all checkpointed; see topo::RefineCheckpoint).
  PrefixOutcome outcome = PrefixOutcome::kActive;
  std::size_t active_iterations = 0;  // iterations this prefix was refined
  std::size_t frozen_iteration = 0;   // 0 = never frozen
  OscillationDetector detector;
};

class Refiner {
 public:
  Refiner(Model& model, const RefineConfig& config)
      : model_(model), config_(config) {}

  std::size_t routers_added = 0;
  std::size_t policies_changed = 0;
  std::size_t filters_relaxed = 0;

  /// Resets the per-iteration duplicate alias map; call once per iteration
  /// before the serial apply pass.
  void begin_iteration() {
    alias_.clear();
    pending_.clear();
  }

  /// Runs one heuristic pass for one prefix on top of its simulation.
  /// Returns true if the model was changed.
  ///
  /// mutate=false is the count-only mode of the oscillation guard's freeze
  /// protocol: reservations and matched counting are performed exactly as
  /// in a real pass (mutations never alter the *current* simulation, so the
  /// counts agree), but the model is left untouched -- the pass answers
  /// "how many paths stay matched if we freeze this prefix right now".
  bool process(PrefixWork& work, const PrefixSimResult& sim,
               bool mutate = true);

 private:
  // Candidate scan at AS `a` for the route path `route_path` (not including
  // `a`).  Routers created during this iteration's apply pass are read
  // through their snapshot ancestor's simulated RIB (see snapshot_proxy).
  struct Candidates {
    Model::Dense rib_out_unreserved = Model::kNoRouter;
    Model::Dense rib_in_unreserved = Model::kNoRouter;
    Model::Dense rib_in_any = Model::kNoRouter;
  };
  // A quasi-router is reserved for a route path (suffix), not for a whole
  // observed path: two observed paths sharing a suffix at an AS share the
  // quasi-router serving it.  The suffix is stored as a span into the
  // PrefixWork's own path storage (stable for the whole process() call), so
  // reserving never copies hop vectors.
  using Reservations = std::unordered_map<Model::Dense, std::span<const Asn>>;

  Candidates scan(const PrefixSimResult& sim, Asn a,
                  std::span<const Asn> route_path,
                  const Reservations& reserved) const;

  /// Installs the ranking + deny-shorter filters that make `target` select
  /// the route `route_path` (Section 4.6, "policy adjustment").
  /// `announcer` is the quasi-router of the announcing neighbor AS that was
  /// reserved for the rest of the path while walking from the origin
  /// (kNoRouter when the announcing AS is the origin itself, where every
  /// router announces the same route).  Filters are anchored to the
  /// announcer -- not to the simulation snapshot -- so the adjustment is
  /// stable across iterations:
  ///   * session announcer -> target:            allow >= len(route);
  ///   * other sessions from the announcing AS:  allow >  len(route)
  ///     (blocks equal-length look-alikes that would steal the tie-break);
  ///   * sessions from other ASes:               allow >= len(route)
  ///     (equal-length routes lose to the MED ranking).
  void adjust_policy(const PrefixWork& work, Model::Dense announcer,
                     RouterId target, std::span<const Asn> route_path);

  /// Fig. 7 filter deletion at AS `a` (= hops[k]) for the observed path.
  /// Returns true if a filter was relaxed (possibly toward a duplicate).
  bool try_filter_deletion(const PrefixWork& work, const PrefixSimResult& sim,
                           std::span<const Asn> hops, std::size_t k);

  /// The snapshot router whose simulated RIB stands in for `r`: identity
  /// for routers the simulation covered, the recorded ancestor for
  /// duplicates created earlier in this iteration's apply pass, kNoRouter
  /// otherwise.  A duplicate inherits its source's sessions and per-prefix
  /// policies, so for every prefix that has not customized it the duplicate
  /// would simulate to exactly its source's RIB -- the same inheritance
  /// argument the duplication step itself rests on.  Without this proxy,
  /// every prefix needing an extra quasi-router at a shared AS would mint
  /// its own duplicate in the same iteration instead of reserving one a
  /// prefix before it just created (the old interleaved loop shared them
  /// through re-simulation).
  Model::Dense snapshot_proxy(const PrefixSimResult& sim,
                              Model::Dense r) const {
    if (r < sim.routers.size()) return r;
    const auto it = alias_.find(r);
    return it == alias_.end() ? Model::kNoRouter : it->second;
  }

  /// Records a freshly minted duplicate so later PREFIXES of this iteration
  /// can scan it.  Publication is deferred to the end of process(): the old
  /// interleaved loop simulated before each prefix, so a prefix saw the
  /// duplicates of the prefixes before it but never its own same-iteration
  /// ones -- deferring reproduces that visibility exactly.  The stored
  /// ancestor is always a snapshot router (chains collapse through the
  /// already-published aliases).
  void record_duplicate(const PrefixSimResult& sim, Model::Dense source,
                        RouterId dup) {
    pending_.emplace_back(model_.dense(dup), snapshot_proxy(sim, source));
  }

  Model& model_;
  const RefineConfig& config_;
  /// False during count-only passes (see process); mutation branches then
  /// report "would change" without touching the model.
  bool mutate_ = true;
  /// This-iteration duplicate -> snapshot ancestor (kNoRouter when none).
  std::unordered_map<Model::Dense, Model::Dense> alias_;
  /// Duplicates minted by the prefix currently in process(), published to
  /// alias_ when it finishes.
  std::vector<std::pair<Model::Dense, Model::Dense>> pending_;
};

Refiner::Candidates Refiner::scan(
    const PrefixSimResult& sim, Asn a, std::span<const Asn> route_path,
    const Reservations& reserved) const {
  Candidates out;
  for (Model::Dense r : model_.routers_of(a)) {
    const Model::Dense proxy = snapshot_proxy(sim, r);
    if (proxy == Model::kNoRouter) continue;  // no simulated stand-in
    const bgp::RouterState& state = sim.routers[proxy];
    const auto reservation = reserved.find(r);
    // Reserved for the same suffix == available for this suffix.
    const bool is_reserved =
        reservation != reserved.end() &&
        !route_path_equals(reservation->second, route_path);
    const bgp::Route* best = state.best_route();
    if (best != nullptr && route_path_equals(best->path, route_path)) {
      if (!is_reserved && out.rib_out_unreserved == Model::kNoRouter)
        out.rib_out_unreserved = r;
      // A RIB-Out match implies a RIB-In match.
      if (out.rib_in_any == Model::kNoRouter) out.rib_in_any = r;
      if (!is_reserved && out.rib_in_unreserved == Model::kNoRouter)
        out.rib_in_unreserved = r;
      continue;
    }
    for (const bgp::Route& entry : state.rib_in) {
      if (!route_path_equals(entry.path, route_path)) continue;
      if (out.rib_in_any == Model::kNoRouter) out.rib_in_any = r;
      if (!is_reserved && out.rib_in_unreserved == Model::kNoRouter)
        out.rib_in_unreserved = r;
      break;
    }
  }
  return out;
}

void Refiner::adjust_policy(const PrefixWork& work, Model::Dense announcer,
                            RouterId target,
                            std::span<const Asn> route_path) {
  ++policies_changed;
  model_.clear_owned_rules(work.prefix, target);
  const Asn next_as = route_path.front();
  if (config_.allow_ranking)
    model_.set_ranking(target, work.prefix, next_as);
  if (!config_.allow_filters) return;

  if (work.origin == config_.debug_origin) {
    std::fprintf(stderr, "[refine %u]   announcer=%s\n", work.origin,
                 announcer == Model::kNoRouter
                     ? "origin"
                     : model_.router_id(announcer).str().c_str());
  }
  const std::size_t arriving_len = route_path.size();
  const Model::Dense target_dense = model_.dense(target);
  for (Model::Dense peer : model_.peers(target_dense)) {
    const RouterId peer_id = model_.router_id(peer);
    std::uint32_t deny_below = static_cast<std::uint32_t>(arriving_len);
    if (peer_id.asn() == next_as) {
      if (announcer != Model::kNoRouter && peer != announcer) {
        // Same-AS session that is not the designated announcer: an
        // equal-length route over it would tie on MED and could steal the
        // lowest-router-id tie-break, so require strictly longer.
        deny_below = static_cast<std::uint32_t>(arriving_len + 1);
      }
    } else if (!config_.allow_ranking) {
      // Filters-only mode (ablation): without the MED ranking, equal-length
      // routes from other ASes would go to the tie-break, so block them too.
      deny_below = static_cast<std::uint32_t>(arriving_len + 1);
    }
    model_.set_export_filter(peer_id, target, work.prefix, deny_below,
                             target);
  }
}

bool Refiner::try_filter_deletion(const PrefixWork& work,
                                  const PrefixSimResult& sim,
                                  std::span<const Asn> hops, std::size_t k) {
  const Asn a = hops[k];
  const Asn announcing = hops[k + 1];
  const std::span<const Asn> neighbor_route(hops.data() + k + 2,
                                            hops.size() - k - 2);
  const std::size_t arriving_len = neighbor_route.size() + 1;
  const topo::PrefixPolicy* policy = model_.find_policy(work.prefix);
  if (policy == nullptr) return false;  // nothing can be blocking

  for (Model::Dense q : model_.routers_of(announcing)) {
    const Model::Dense proxy = snapshot_proxy(sim, q);
    if (proxy == Model::kNoRouter) continue;
    const bgp::Route* best = sim.routers[proxy].best_route();
    if (best == nullptr || !route_path_equals(best->path, neighbor_route))
      continue;
    const RouterId q_id = model_.router_id(q);
    for (Model::Dense r : model_.routers_of(a)) {
      const topo::ExportFilter* filter =
          model_.find_export_filter(q, r, policy);
      if (filter == nullptr || !filter->blocks(arriving_len)) continue;
      if (!mutate_) return true;  // count-only: report without relaxing
      const RouterId r_id = model_.router_id(r);
      if (config_.allow_duplication && filter->owner_target.valid() &&
          filter->owner_target == r_id) {
        // The filter protects r's assigned path (Fig. 7): give the blocked
        // path a fresh landing spot instead of destroying r's setup.
        const RouterId dup = model_.duplicate_router(r_id);
        ++routers_added;
        record_duplicate(sim, r, dup);
        model_.relax_export_filter(q_id, dup, work.prefix, arriving_len);
      } else {
        model_.relax_export_filter(q_id, r_id, work.prefix, arriving_len);
      }
      ++filters_relaxed;
      return true;
    }
    // q selects the right route and no filter blocks it; the RIB-In will
    // appear once simulations catch up with this iteration's changes.
  }
  return false;
}

bool Refiner::process(PrefixWork& work, const PrefixSimResult& sim,
                      bool mutate) {
  mutate_ = mutate;
  bool changed = false;
  Reservations reserved;
  work.matched = 0;

  for (std::size_t path_index = 0; path_index < work.paths.size();
       ++path_index) {
    const AsPath& path = work.paths[path_index];
    const auto& hops = path.hops();
    bool full_match = true;
    // Quasi-router reserved for the previous (origin-side) hop; the
    // designated announcer for the next hop's policy adjustment.
    Model::Dense announcer = Model::kNoRouter;

    for (std::size_t k = hops.size(); k-- > 0;) {
      if (k + 1 == hops.size()) continue;  // the origin originates
      const Asn a = hops[k];
      const std::span<const Asn> route_path(hops.data() + k + 1,
                                            hops.size() - k - 1);
      Candidates c = scan(sim, a, route_path, reserved);

      if (c.rib_out_unreserved != Model::kNoRouter) {
        reserved.emplace(c.rib_out_unreserved, route_path);
        announcer = c.rib_out_unreserved;
        continue;  // matched here; walk on toward the observation point
      }

      full_match = false;
      const bool debug = work.origin == config_.debug_origin;
      if (c.rib_in_unreserved != Model::kNoRouter) {
        reserved.emplace(c.rib_in_unreserved, route_path);
        if (mutate_) {
          if (debug)
            std::fprintf(stderr,
                         "[refine %u] adjust %s for suffix-at %u len %zu\n",
                         work.origin,
                         model_.router_id(c.rib_in_unreserved).str().c_str(),
                         a, route_path.size());
          adjust_policy(work, announcer,
                        model_.router_id(c.rib_in_unreserved), route_path);
        }
        changed = true;
      } else if (c.rib_in_any != Model::kNoRouter) {
        if (config_.allow_duplication) {
          if (mutate_) {
            const RouterId dup =
                model_.duplicate_router(model_.router_id(c.rib_in_any));
            ++routers_added;
            record_duplicate(sim, c.rib_in_any, dup);
            reserved.emplace(model_.dense(dup), route_path);
            if (debug)
              std::fprintf(stderr, "[refine %u] duplicate %s -> %s at %u\n",
                           work.origin,
                           model_.router_id(c.rib_in_any).str().c_str(),
                           dup.str().c_str(), a);
            adjust_policy(work, announcer, dup, route_path);
          }
          changed = true;
        }
        // Without duplication the path cannot be accommodated; give up.
      } else {
        const bool deleted = try_filter_deletion(work, sim, hops, k);
        if (debug)
          std::fprintf(stderr, "[refine %u] no rib-in at %u (len %zu), "
                       "filter-deletion=%d\n",
                       work.origin, a, route_path.size(), deleted);
        if (deleted) changed = true;
      }
      break;  // one fix per path per iteration (Section 4.6)
    }
    if (full_match) ++work.matched;
  }
  for (const auto& [dup, ancestor] : pending_) alias_.emplace(dup, ancestor);
  pending_.clear();
  return changed;
}

/// Serialized access to the checkpoint file.  Every save runs on the
/// refining thread between iterations -- after an iteration, on interrupt
/// or after a sweep fault -- never from a sweep worker; the writer still
/// owns a mutex, and clang's thread-safety analysis checks it is taken for
/// every write.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  /// Atomic save (tmp + rename inside save_refine_checkpoint); returns
  /// false and fills `error` on failure.
  bool write(const topo::RefineCheckpoint& checkpoint, std::string* error)
      RD_EXCLUDES(mutex_) {
    nb::MutexLock lock(mutex_);
    return topo::save_refine_checkpoint(path_, checkpoint, error);
  }

 private:
  const std::string path_;
  nb::Mutex mutex_;
};

}  // namespace

const char* prefix_outcome_name(PrefixOutcome outcome) {
  switch (outcome) {
    case PrefixOutcome::kActive:
      return "active";
    case PrefixOutcome::kConverged:
      return "converged";
    case PrefixOutcome::kOscillating:
      return "oscillating";
    case PrefixOutcome::kBudgetExhausted:
      return "budget-exhausted";
  }
  return "active";
}

std::optional<PrefixOutcome> prefix_outcome_from(std::string_view token) {
  if (token == "active") return PrefixOutcome::kActive;
  if (token == "converged") return PrefixOutcome::kConverged;
  if (token == "oscillating") return PrefixOutcome::kOscillating;
  if (token == "budget-exhausted") return PrefixOutcome::kBudgetExhausted;
  return std::nullopt;
}

const char* refine_stop_name(RefineStop stop) {
  switch (stop) {
    case RefineStop::kCompleted:
      return "completed";
    case RefineStop::kIterationCap:
      return "iteration-cap";
    case RefineStop::kWallClock:
      return "wall-clock";
    case RefineStop::kInterrupted:
      return "interrupted";
    case RefineStop::kFault:
      return "fault";
  }
  return "completed";
}

std::uint64_t dataset_fingerprint(const data::BgpDataset& training) {
  // FNV-1a over the origin-ordered training paths: the identity refinement
  // actually consumes (points and record order are irrelevant to the fit).
  std::uint64_t hash = 1469598103934665603ull;
  const auto mixin = [&hash](std::uint64_t value) {
    hash = (hash ^ value) * 1099511628211ull;
  };
  for (const auto& [origin, paths] : training.paths_by_origin()) {
    mixin(origin);
    mixin(paths.size());
    for (const AsPath& path : paths) {
      mixin(path.hops().size());
      for (const Asn hop : path.hops()) mixin(hop);
    }
  }
  return hash;
}

RefineResult refine_model(topo::Model& model,
                          const data::BgpDataset& training,
                          const RefineConfig& config) {
  // Observability (RefineConfig::observer): both sinks optional and
  // one-directional -- nothing read back from them feeds the heuristic, so
  // the fitted model is byte-identical with and without them.
  obs::Registry* reg =
      config.observer != nullptr ? config.observer->registry : nullptr;
  obs::TraceSink* trace =
      config.observer != nullptr ? config.observer->trace : nullptr;
  if (trace != nullptr && trace->level() == obs::TraceLevel::kOff)
    trace = nullptr;
  obs::RefineMetricSet metrics;
  if (reg != nullptr) metrics = obs::RefineMetricSet::define(*reg);
  // Flight recorder (RefineConfig::flight_recorder): same one-directional
  // contract as the observer, but cheap enough -- one ring-slot write per
  // coarse loop event -- to stay attached on every production run.
  obs::FlightRecorder* flight = config.flight_recorder;
  // Phase-span args ({"iteration": N}); empty (unallocated) unless the
  // trace actually records phases.
  const auto iter_args = [&](std::size_t iteration) -> std::string {
    if (trace == nullptr || !trace->enabled(obs::TraceLevel::kPhase))
      return {};
    nb::JsonWriter w;
    w.begin_object()
        .key("iteration")
        .value(static_cast<std::uint64_t>(iteration))
        .end_object();
    return w.str();
  };
  obs::PhaseTimer total_timer(reg, metrics.total_ns, trace, "refine");

  RefineResult result;
  std::vector<PrefixWork> work;
  std::size_t total_paths = 0;
  std::size_t unmatchable = 0;
  for (auto& [origin, paths] : training.paths_by_origin()) {
    total_paths += paths.size();
    if (!model.has_as(origin)) {
      unmatchable += paths.size();  // origin absent from the model graph
      continue;
    }
    PrefixWork w;
    w.origin = origin;
    w.prefix = Prefix::for_asn(origin);
    w.paths = paths;
    work.push_back(std::move(w));
  }

  bgp::Engine engine(model, config.engine);  // default: policy-agnostic
  Refiner refiner(model, config);
  bgp::ThreadPool pool(config.threads);
  result.threads_used = pool.size() == 0 ? 1 : pool.size();

  for (PrefixWork& w : work) {
    w.detector =
        OscillationDetector(config.oscillation_window,
                            config.oscillation_confirmations);
  }

  const std::uint64_t dataset_hash = dataset_fingerprint(training);
  const auto wall_start = std::chrono::steady_clock::now();
  // Timestamp source for sweep samples and sweep spans: the trace clock
  // when a sink is attached (so profiler spans align with phase spans in
  // the same file), the fit's own steady clock otherwise -- consistent
  // within one fit either way.
  const auto sweep_now_us = [&]() -> std::uint64_t {
    if (trace != nullptr) return trace->now_us();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
  };
  const auto push_diag = [&result](analysis::Severity severity,
                                   const char* code, std::string location,
                                   std::string message) {
    result.diagnostics.push_back(analysis::Diagnostic{
        severity, code, std::move(location), std::move(message)});
  };
  const auto freeze = [&flight](PrefixWork& w, PrefixOutcome outcome,
                                std::size_t iteration) {
    w.done = true;
    w.outcome = outcome;
    w.frozen_iteration = iteration;
    if (flight != nullptr)
      flight->record(0, obs::FlightEventType::kPrefixFrozen, iteration,
                     w.origin, static_cast<std::uint64_t>(outcome));
  };
  // Forensic pass behind an R700/R701 freeze: name the dispute wheel the
  // static analyzer can pin on this prefix (cross-link to dispute_graph).
  // Enumeration caps are far below the audit's defaults -- this runs inside
  // the fit, so it must stay cheap even on hostile policy states.
  const auto suspect_wheel = [&](const PrefixWork& w) -> std::string {
    analysis::DisputeGraphOptions options;
    options.max_paths_per_router = 16;
    options.max_path_length = 12;
    options.max_nodes = 4096;
    const analysis::DisputeGraph graph =
        analysis::build_dispute_graph(engine, w.prefix, w.origin, options);
    const std::vector<std::size_t> cycle = analysis::find_dispute_cycle(graph);
    if (cycle.empty()) {
      return graph.truncated
                 ? "no dispute cycle found within enumeration caps"
                 : "no static dispute cycle found";
    }
    return "suspected dispute wheel: " +
           analysis::render_cycle(model, graph, cycle);
  };
  // Atomic full-state snapshot after `completed_iteration`; resuming from it
  // reproduces the uninterrupted run byte for byte.  A failed save degrades
  // to a warning (R705): losing checkpoints must not lose the fit.
  CheckpointWriter checkpoint_writer(config.checkpoint_path);
  const auto write_checkpoint = [&](std::size_t completed_iteration) {
    if (!checkpoint_writer.enabled()) return;
    topo::RefineCheckpoint ck;
    ck.iteration = completed_iteration;
    ck.dataset_hash = dataset_hash;
    ck.messages_simulated = result.messages_simulated;
    ck.routers_added = refiner.routers_added;
    ck.policies_changed = refiner.policies_changed;
    ck.filters_relaxed = refiner.filters_relaxed;
    ck.prefixes.reserve(work.size());
    for (const PrefixWork& w : work) {
      topo::PrefixCheckpointState p;
      p.origin = w.origin;
      p.state = prefix_outcome_name(w.outcome);
      p.matched = w.matched;
      p.paths_total = w.paths.size();
      p.active_iterations = w.active_iterations;
      p.frozen_iteration = w.frozen_iteration;
      const OscillationDetector::State& st = w.detector.state();
      p.best_matched = st.best_matched;
      p.hits = st.hits;
      p.freeze_pending = st.freeze_pending;
      p.freeze_countdown = st.freeze_countdown;
      p.fingerprints = st.fingerprints;
      ck.prefixes.push_back(std::move(p));
    }
    ck.model = model;
    std::string save_error;
    const bool saved = checkpoint_writer.write(ck, &save_error);
    if (saved) {
      result.checkpoint_written = true;
    } else {
      push_diag(analysis::Severity::kWarning,
                analysis::codes::kCheckpointError, "checkpoint",
                save_error + "; fit continues without this checkpoint");
    }
    if (flight != nullptr)
      flight->record(0, obs::FlightEventType::kCheckpoint,
                     completed_iteration, saved ? 1 : 0);
  };
  const auto finish = [&]() -> RefineResult {
    total_timer.stop();
    result.phase_seconds.total = total_timer.seconds();
    if (reg != nullptr)
      reg->set_gauge(metrics.peak_rss_bytes, nb::peak_rss_bytes());
    if (flight != nullptr) {
      flight->record(0, obs::FlightEventType::kStop,
                     static_cast<std::uint64_t>(result.stop),
                     result.iterations);
      // The post-mortem trigger: any degraded or faulted stop dumps the
      // rings, so the last moments of a bad run are always inspectable.
      if ((result.degraded() || result.stop == RefineStop::kFault) &&
          !config.flight_dump_path.empty()) {
        std::string dump_error;
        if (flight->dump_to_file(config.flight_dump_path, &dump_error)) {
          result.flight_dump_written = true;
        } else {
          push_diag(analysis::Severity::kWarning,
                    analysis::codes::kFlightDumpError, "flight-recorder",
                    dump_error + "; post-mortem dump skipped");
        }
      }
    }
    return std::move(result);
  };

  std::size_t start_iteration = 1;
  if (config.resume != nullptr) {
    const topo::RefineCheckpoint& ck = *config.resume;
    if (ck.dataset_hash != dataset_hash) {
      push_diag(analysis::Severity::kError,
                analysis::codes::kResumeMismatch, "resume",
                "checkpoint was written for a different training set "
                "(dataset hash mismatch); refusing to resume");
      result.stop = RefineStop::kFault;
      if (flight != nullptr)
        flight->record(0, obs::FlightEventType::kFault, 0, /*kind=*/2);
      return finish();
    }
    for (PrefixWork& w : work) {
      const topo::PrefixCheckpointState* saved = nullptr;
      for (const topo::PrefixCheckpointState& p : ck.prefixes) {
        if (p.origin == w.origin) {
          saved = &p;
          break;
        }
      }
      const std::optional<PrefixOutcome> outcome =
          saved != nullptr ? prefix_outcome_from(saved->state) : std::nullopt;
      if (saved == nullptr || !outcome ||
          saved->paths_total != w.paths.size()) {
        push_diag(analysis::Severity::kError,
                  analysis::codes::kResumeMismatch,
                  "origin " + std::to_string(w.origin),
                  "checkpoint does not cover this prefix with the same "
                  "path count; refusing to resume");
        result.stop = RefineStop::kFault;
        if (flight != nullptr)
          flight->record(0, obs::FlightEventType::kFault, 0, /*kind=*/2);
        return finish();
      }
      w.outcome = *outcome;
      w.done = w.outcome != PrefixOutcome::kActive;
      w.matched = saved->matched;
      w.active_iterations = saved->active_iterations;
      w.frozen_iteration = saved->frozen_iteration;
      OscillationDetector::State st;
      st.fingerprints = saved->fingerprints;
      st.hits = saved->hits;
      st.best_matched = saved->best_matched;
      st.freeze_pending = saved->freeze_pending;
      st.freeze_countdown = saved->freeze_countdown;
      w.detector.restore(std::move(st));
    }
    refiner.routers_added = ck.routers_added;
    refiner.policies_changed = ck.policies_changed;
    refiner.filters_relaxed = ck.filters_relaxed;
    result.messages_simulated = ck.messages_simulated;
    result.iterations = ck.iteration;
    start_iteration = ck.iteration + 1;
  }

  // Per-prefix sim spans land on synthetic tids 1000 + worker so Perfetto
  // shows one track per sweep worker (tid 0 is the serial refine track).
  const bool prefix_trace =
      trace != nullptr && trace->enabled(obs::TraceLevel::kPrefix);
  const bool sweep_trace =
      trace != nullptr && trace->enabled(obs::TraceLevel::kIteration);
  // The instrumented sweep: SimCounters and per-prefix sweep samples are
  // collected whenever anything consumes them -- registry shards, the
  // per-iteration rib_entries series, per-prefix spans, or the sweep
  // profiler's samples.
  const bool counting = reg != nullptr || sweep_trace;
  // Named at kIteration (not just kPrefix): profile traces carry
  // per-prefix sweep spans on the worker tracks at the default level, and
  // Perfetto should label them.
  if (sweep_trace) {
    trace->name_thread(0, "refine");
    for (unsigned worker = 0; worker < pool.shard_count(); ++worker)
      trace->name_thread(1000 + worker,
                         "sim-worker-" + std::to_string(worker));
  }
  // Per simulated prefix of an instrumented sweep: which worker ran it, its
  // span on the sweep clock, the worker arena's high-water mark when it
  // finished, and its predicted cost.
  struct ItemRec {
    unsigned worker = 0;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    std::uint64_t arena_bytes = 0;
    std::uint64_t predicted_cost = 0;
  };

  // Each prefix simulates over its identity view, the whole model (DESIGN.md
  // section 12).  The profiler prices each prefix with the planner's
  // relaxed cost model at its default caps (analysis::view_cost).
  const analysis::RouteSpaceOptions cost_space;
  // One simulation arena per pool slot: parallel_for_worker guarantees a
  // slot is owned by one thread per batch, so sweeps reuse these buffers
  // across prefixes and iterations with no per-message heap traffic.
  std::vector<bgp::SimMemory> sim_memory(pool.shard_count());

  std::size_t routers_added_prev = refiner.routers_added;
  std::size_t policies_changed_prev = refiner.policies_changed;
  bool reached_fixpoint = false;
  // Reused across iterations so sims keep their RouterState capacity.
  std::vector<std::size_t> active_index;
  std::vector<PrefixSimResult> sims;
  std::vector<analysis::Diagnostics> sim_diags;
  std::vector<bgp::SimCounters> sim_counters;
  std::vector<ItemRec> item_recs;
  for (std::size_t iteration = start_iteration;
       iteration <= config.max_iterations; ++iteration) {
    active_index.clear();
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (!work[i].done) active_index.push_back(i);
    }
    const std::size_t active = active_index.size();
    if (active == 0) break;
    if (flight != nullptr)
      flight->record(0, obs::FlightEventType::kIterationStart, iteration,
                     active);
    const std::uint64_t iter_ts = sweep_trace ? trace->now_us() : 0;

    // Simulation sweep: every active prefix against the immutable
    // iteration-start model.  The engine's epoch context is built once up
    // front (and held for this iteration's selection fingerprints); worker
    // order does not matter because results land in slots.
    sims.resize(active);
    const std::shared_ptr<const bgp::SimContext> iter_ctx = engine.context();
    // Test-only fault hook: throw from one worker body mid-sweep.
    const auto inject_worker_fault = [&](std::size_t i) {
#ifdef RD_FAULT_INJECTION
      if (config.fault_plan != nullptr &&
          config.fault_plan->throw_iteration == iteration && i == 0) {
        if (config.fault_plan->throw_bad_alloc) throw std::bad_alloc();
        throw std::runtime_error("injected sweep fault");
      }
#else
      (void)i;
#endif
    };
    obs::PhaseTimer sim_timer(reg, metrics.simulate_ns, trace, "simulate",
                              iter_args(iteration));
    if (counting) {
      sim_counters.assign(active, {});
      item_recs.assign(active, {});
    }
    const std::uint64_t sweep_t0 = counting ? sweep_now_us() : 0;
    bool sweep_faulted = false;
    try {
      // Per-worker metric shards merge into the registry in ascending
      // worker order when the group leaves scope (after the pool barrier),
      // so totals are deterministic for every thread count.
      std::optional<obs::ShardGroup> shards;
      if (reg != nullptr) shards.emplace(*reg, pool.shard_count());
      // Observers, the flight recorder and the fault hook are null-or-real
      // sinks inside run_item; results land in per-prefix slots and the
      // apply phase stays serial, so the fitted model is byte-identical at
      // every thread count.
      const auto run_item = [&](unsigned worker, std::size_t i) {
        inject_worker_fault(i);
        const PrefixWork& w = work[active_index[i]];
        bgp::SimMemory& mem = sim_memory[worker];
        const std::uint64_t t0 = counting ? sweep_now_us() : 0;
        const bgp::PrefixView view = engine.identity_view(w.prefix, w.origin);
        const std::uint64_t predicted =
            counting ? analysis::view_cost(view, cost_space) : 0;
        if (flight != nullptr)
          flight->record(1 + worker, obs::FlightEventType::kShardStart,
                         iteration, i, predicted);
        engine.run_into(view, mem,
                        counting ? &sim_counters[i] : nullptr, nullptr,
                        sims[i]);
        const std::uint64_t arena = mem.footprint_bytes();
        if (flight != nullptr)
          flight->record(1 + worker, obs::FlightEventType::kShardEnd,
                         iteration, i, arena);
        if (!counting) return;
        item_recs[i] =
            ItemRec{worker, t0, sweep_now_us() - t0, arena, predicted};
        if (shards.has_value()) {
          obs::Shard& shard = shards->shard(worker);
          const bgp::SimCounters& c = sim_counters[i];
          shard.add(metrics.engine_messages, c.messages);
          shard.add(metrics.engine_activations, c.activations);
          shard.add(metrics.engine_rib_inserts, c.rib_inserts);
          shard.add(metrics.engine_rib_replacements, c.rib_replacements);
          shard.add(metrics.engine_withdrawals, c.withdrawals);
          shard.add(metrics.engine_selection_changes, c.selection_changes);
          shard.observe(metrics.messages_per_prefix,
                        static_cast<double>(c.messages));
        }
      };
      // The one sweep loop: a dynamic queue over the active prefixes in
      // ascending work order.
      pool.parallel_for_worker(active, run_item);
    } catch (const std::exception& e) {
      // A worker body threw (the pool drains the batch, rethrows here, and
      // stays usable).  The model still reflects the last completed
      // iteration -- mutations only happen in the serial phase -- so the
      // state is checkpointable and the partial result is consistent.
      push_diag(analysis::Severity::kError, analysis::codes::kSweepFault,
                "iteration " + std::to_string(iteration),
                std::string("simulation sweep failed: ") + e.what() +
                    "; returning partial result at the last completed "
                    "iteration");
      sweep_faulted = true;
      if (flight != nullptr)
        flight->record(0, obs::FlightEventType::kFault, iteration,
                       /*kind=*/0);
    }
    sim_timer.stop();
    result.phase_seconds.simulate += sim_timer.seconds();
    const std::uint64_t sweep_t1 = counting ? sweep_now_us() : 0;
    if (sweep_faulted) {
      result.stop = RefineStop::kFault;
      write_checkpoint(iteration - 1);
      break;
    }
    if (counting) {
      // Serial post-sweep collection (after the pool barrier): one sample
      // per simulated prefix -- a profile "shard" is one prefix -- plus
      // this iteration's sweep span, the raw material obs::profile_sweep
      // and `rdtool profile` attribute speedup loss from.
      for (std::size_t i = 0; i < active; ++i) {
        const ItemRec& rec = item_recs[i];
        obs::SweepShardSample sample;
        sample.iteration = iteration;
        sample.shard = i;
        sample.worker = rec.worker;
        sample.predicted_cost = rec.predicted_cost;
        sample.start_us = rec.start_us;
        sample.dur_us = rec.dur_us;
        sample.messages = sim_counters[i].messages;
        sample.prefixes = 1;
        sample.arena_bytes = rec.arena_bytes;
        result.shard_samples.push_back(sample);
        if (sweep_trace) {
          // One span per simulated prefix on its worker's track (stable
          // schema; `rdtool profile` reads it back -- DESIGN.md section
          // 9).
          nb::JsonWriter args;
          args.begin_object();
          args.key("iteration").value(static_cast<std::uint64_t>(iteration));
          args.key("shard").value(static_cast<std::uint64_t>(i));
          args.key("predicted_cost").value(sample.predicted_cost);
          args.key("prefixes")
              .value(static_cast<std::uint64_t>(sample.prefixes));
          args.key("messages").value(sample.messages);
          args.key("arena_bytes").value(sample.arena_bytes);
          args.end_object();
          trace->complete("sweep", "shard", sample.start_us, sample.dur_us,
                          1000 + sample.worker, args.str());
        }
      }
      result.sweep_spans.push_back(
          obs::SweepIterationSpan{iteration, sweep_t0, sweep_t1 - sweep_t0});
    }
#ifdef RD_FAULT_INJECTION
    // Test-only fault hook: make one prefix's simulation report divergence.
    if (config.fault_plan != nullptr &&
        config.fault_plan->fail_sim_iteration == iteration) {
      for (std::size_t i = 0; i < active; ++i) {
        if (work[active_index[i]].origin == config.fault_plan->fail_sim_origin)
          sims[i].converged = false;
      }
    }
#endif
    std::uint64_t iteration_messages = 0;
    for (const PrefixSimResult& sim : sims)
      iteration_messages += sim.messages;
    result.messages_simulated += iteration_messages;

    if (prefix_trace) {
      // Serial post-sweep emission: one span per simulation on its
      // worker's track, annotated with the decision-step elimination
      // histogram (the aggregate twin of bgp::explain_selection; costs
      // one compare_routes per Adj-RIB-In entry, which is why it is
      // gated on the most verbose trace level).
      const std::shared_ptr<const bgp::SimContext> ctx = engine.context();
      for (std::size_t i = 0; i < active; ++i) {
        const PrefixWork& w = work[active_index[i]];
        const std::array<std::uint64_t, bgp::kNumDecisionSteps> eliminated =
            obs::elimination_histogram(ctx->ids, sims[i]);
        if (reg != nullptr) {
          for (std::size_t step = 0; step < bgp::kNumDecisionSteps; ++step)
            reg->add(metrics.eliminated[step], eliminated[step]);
        }
        const bgp::SimCounters& c = sim_counters[i];
        nb::JsonWriter args;
        args.begin_object();
        args.key("origin").value(static_cast<std::uint64_t>(w.origin));
        args.key("iteration").value(static_cast<std::uint64_t>(iteration));
        args.key("messages").value(c.messages);
        args.key("activations").value(c.activations);
        args.key("rib_entries").value(c.rib_entries());
        for (std::size_t step = 0; step < bgp::kNumDecisionSteps; ++step) {
          if (eliminated[step] == 0) continue;
          args.key(std::string("eliminated.") +
                   bgp::decision_step_name(
                       static_cast<bgp::DecisionStep>(step)))
              .value(eliminated[step]);
        }
        args.end_object();
        trace->complete("prefix", "sim", item_recs[i].start_us,
                        item_recs[i].dur_us, 1000 + item_recs[i].worker,
                        args.str());
      }
    }

    if (config.validate) {
      // Every simulation must be a fixed point of the model as it stands
      // BEFORE the heuristic consumes it; the replay is independent per
      // prefix, so it fans out too.  Findings merge in prefix order.
      obs::PhaseTimer val_timer(reg, metrics.validate_ns, trace, "validate",
                                iter_args(iteration));
      sim_diags.assign(active, {});
      pool.parallel_for(active, [&](std::size_t i) {
        sim_diags[i] = analysis::check_convergence(engine, sims[i]);
      });
      for (analysis::Diagnostics& found : sim_diags) {
        std::move(found.begin(), found.end(),
                  std::back_inserter(result.diagnostics));
      }
      val_timer.stop();
      result.phase_seconds.validate += val_timer.seconds();
    }

    // Apply phase: strictly serial, in ascending-origin order (work is built
    // from the ordered paths_by_origin map), so mutations -- and hence the
    // fitted model -- are identical for every thread count.  Duplicates a
    // prefix mints here are visible to the prefixes after it through the
    // refiner's alias map (see snapshot_proxy), preserving the sharing the
    // old interleaved loop got from re-simulating mid-iteration.
    obs::PhaseTimer heur_timer(reg, metrics.heuristic_ns, trace, "heuristic",
                               iter_args(iteration));
    refiner.begin_iteration();
    bool any_changed = false;
    for (std::size_t i = 0; i < active; ++i) {
      PrefixWork& w = work[active_index[i]];

      if (!sims[i].converged) {
        // The engine's divergence guard tripped: the policy state reachable
        // for this prefix genuinely oscillates at the protocol level (a
        // dispute wheel; the ground-truth BAD GADGET case).  Iterating
        // further would re-simulate the divergence every round, so freeze
        // the prefix immediately with its structured engine outcome.
        freeze(w, PrefixOutcome::kOscillating, iteration);
        push_diag(analysis::Severity::kError,
                  analysis::codes::kEngineDiverged,
                  "origin " + std::to_string(w.origin),
                  "simulation diverged: " + std::to_string(sims[i].messages) +
                      " messages exceeded the cap of " +
                      std::to_string(sims[i].message_cap) + " after " +
                      std::to_string(sims[i].activations) +
                      " router activations; prefix frozen at matched " +
                      std::to_string(w.matched) + "/" +
                      std::to_string(w.paths.size()) + "; " +
                      suspect_wheel(w));
        continue;
      }

      if (w.detector.freeze_pending()) {
        // Cycle confirmed earlier: check -- without mutating -- whether
        // freezing at the current policy state keeps the best matched
        // count seen during the oscillation.
        refiner.process(w, sims[i], /*mutate=*/false);
        if (w.detector.should_freeze(w.matched)) {
          freeze(w, PrefixOutcome::kOscillating, iteration);
          push_diag(analysis::Severity::kWarning,
                    analysis::codes::kRefineOscillation,
                    "origin " + std::to_string(w.origin),
                    "refinement oscillation confirmed; policies frozen at "
                    "best-matched state (" +
                        std::to_string(w.matched) + "/" +
                        std::to_string(w.paths.size()) + " paths); " +
                        suspect_wheel(w));
          continue;
        }
      }

      const bool changed = refiner.process(w, sims[i]);
      any_changed |= changed;
      ++w.active_iterations;
      if (!changed && w.matched == w.paths.size()) {
        w.done = true;
        w.outcome = PrefixOutcome::kConverged;
        continue;
      }
      if (config.oscillation_window > 0) {
        const std::uint64_t fp =
            mix_u64(fingerprint_selections(sims[i], iter_ctx->ids) ^
                    mix_u64(fingerprint_policy(model, w.prefix)) ^
                    mix_u64(w.matched));
        w.detector.observe(fp, w.matched, changed);
      }
      if (config.prefix_iteration_budget > 0 &&
          w.active_iterations >= config.prefix_iteration_budget) {
        freeze(w, PrefixOutcome::kBudgetExhausted, iteration);
        push_diag(analysis::Severity::kWarning,
                  analysis::codes::kPrefixBudgetExhausted,
                  "origin " + std::to_string(w.origin),
                  "per-prefix iteration budget of " +
                      std::to_string(config.prefix_iteration_budget) +
                      " exhausted; policies frozen at matched " +
                      std::to_string(w.matched) + "/" +
                      std::to_string(w.paths.size()));
      }
    }
    heur_timer.stop();
    result.phase_seconds.heuristic += heur_timer.seconds();

    if (config.validate) {
      // Every mutation of this iteration (policy adjustments, duplications,
      // filter relaxations) must leave the model structurally sound.
      obs::PhaseTimer lint_timer(reg, metrics.validate_ns, trace, "lint",
                                 iter_args(iteration));
      analysis::ValidateOptions lint;
      lint.pairwise_sessions = true;  // duplication closure (Section 4.6)
      analysis::Diagnostics found = analysis::validate_model(model, lint);
      std::move(found.begin(), found.end(),
                std::back_inserter(result.diagnostics));
      lint_timer.stop();
      result.phase_seconds.validate += lint_timer.seconds();
    }

    RefineIterationLog log;
    log.iteration = iteration;
    log.paths_total = total_paths;
    log.active_prefixes = active;
    std::size_t matched = 0;
    for (const PrefixWork& w : work) matched += w.matched;
    log.paths_matched = matched;
    log.routers = model.num_routers();
    auto policy_stats = model.policy_stats();
    log.filters = policy_stats.filters;
    log.rankings = policy_stats.rankings;
    log.routers_added = refiner.routers_added - routers_added_prev;
    log.policies_changed = refiner.policies_changed - policies_changed_prev;
    routers_added_prev = refiner.routers_added;
    policies_changed_prev = refiner.policies_changed;
    result.log.push_back(log);
    result.iterations = iteration;
    if (sweep_trace) {
      // One span per refinement iteration.  The arg names are the stable
      // schema `rdtool stats` reads back into its convergence table
      // (DESIGN.md section 9) -- rename only with a migration there.
      std::uint64_t rib_entries = 0;
      for (const bgp::SimCounters& c : sim_counters)
        rib_entries += c.rib_entries();
      nb::JsonWriter args;
      args.begin_object();
      args.key("iteration").value(static_cast<std::uint64_t>(log.iteration));
      args.key("active_prefixes")
          .value(static_cast<std::uint64_t>(log.active_prefixes));
      args.key("matched").value(static_cast<std::uint64_t>(log.paths_matched));
      args.key("paths_total")
          .value(static_cast<std::uint64_t>(log.paths_total));
      args.key("routers").value(static_cast<std::uint64_t>(log.routers));
      args.key("filters").value(static_cast<std::uint64_t>(log.filters));
      args.key("rankings").value(static_cast<std::uint64_t>(log.rankings));
      args.key("routers_added")
          .value(static_cast<std::uint64_t>(log.routers_added));
      args.key("policies_changed")
          .value(static_cast<std::uint64_t>(log.policies_changed));
      args.key("messages").value(iteration_messages);
      args.key("rib_entries").value(rib_entries);
      args.end_object();
      const std::uint64_t now = trace->now_us();
      trace->complete("refine", "iteration", iter_ts, now - iter_ts, 0,
                      args.str());
      nb::JsonWriter model_series;
      model_series.begin_object();
      model_series.key("routers")
          .value(static_cast<std::uint64_t>(log.routers));
      model_series.key("filters")
          .value(static_cast<std::uint64_t>(log.filters));
      model_series.key("rankings")
          .value(static_cast<std::uint64_t>(log.rankings));
      model_series.end_object();
      trace->counter("refine", "model", now, model_series.str());
      nb::JsonWriter progress_series;
      progress_series.begin_object();
      progress_series.key("matched")
          .value(static_cast<std::uint64_t>(log.paths_matched));
      progress_series.key("active_prefixes")
          .value(static_cast<std::uint64_t>(log.active_prefixes));
      progress_series.end_object();
      trace->counter("refine", "progress", now, progress_series.str());
    }
    if (config.verbose) {
      std::fprintf(stderr,
                   "[refine] iter=%zu matched=%zu/%zu active=%zu routers=%zu "
                   "filters=%zu rankings=%zu\n",
                   iteration, matched, total_paths, active,
                   log.routers, log.filters, log.rankings);
    }
    if (!any_changed) {
      // Fixpoint: no mutation happened, so re-simulating yields the same
      // RIBs and a further iteration cannot help -- exit whether or not
      // every path matched (unmatched remainders occur under ablations).
      // Fully matched prefixes are still marked done for the accounting.
      for (PrefixWork& w : work) {
        if (w.outcome == PrefixOutcome::kActive &&
            w.matched == w.paths.size()) {
          w.done = true;
          w.outcome = PrefixOutcome::kConverged;
        }
      }
      reached_fixpoint = true;
      break;
    }

    // Cooperative interrupt (rdtool's SIGINT/SIGTERM path, or injected):
    // checkpoint the completed iteration and return a partial result whose
    // still-active prefixes stay kActive.
    bool interrupted = config.interrupt != nullptr &&
                       config.interrupt->load(std::memory_order_relaxed);
#ifdef RD_FAULT_INJECTION
    if (config.fault_plan != nullptr &&
        config.fault_plan->interrupt_iteration == iteration)
      interrupted = true;
#endif
    if (interrupted) {
      result.stop = RefineStop::kInterrupted;
      if (flight != nullptr)
        flight->record(0, obs::FlightEventType::kInterrupt, iteration);
      write_checkpoint(iteration);
      break;
    }

    if (config.wall_clock_budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      if (elapsed > config.wall_clock_budget_seconds) {
        std::size_t frozen = 0;
        for (PrefixWork& w : work) {
          if (w.outcome != PrefixOutcome::kActive) continue;
          freeze(w, PrefixOutcome::kBudgetExhausted, iteration);
          ++frozen;
        }
        push_diag(analysis::Severity::kWarning,
                  analysis::codes::kWallClockExhausted, "refine",
                  "wall-clock budget of " +
                      std::to_string(config.wall_clock_budget_seconds) +
                      "s exhausted after " + std::to_string(iteration) +
                      " iterations; " + std::to_string(frozen) +
                      " prefixes frozen as budget-exhausted");
        result.stop = RefineStop::kWallClock;
        write_checkpoint(iteration);
        break;
      }
    }

    if (!config.checkpoint_path.empty() && config.checkpoint_every > 0 &&
        iteration % config.checkpoint_every == 0) {
      write_checkpoint(iteration);
    }
  }

  if (reached_fixpoint) {
    // Stable-but-unmatched prefixes (ablation fixpoints) did converge to a
    // fixed point; their coverage gap shows in matched/paths_total.
    for (PrefixWork& w : work) {
      if (w.outcome == PrefixOutcome::kActive)
        w.outcome = PrefixOutcome::kConverged;
    }
  } else if (result.stop == RefineStop::kCompleted) {
    // The for-loop ran out of iterations (or never ran) with prefixes
    // still active: the global iteration cap is a budget too.
    std::size_t capped = 0;
    for (PrefixWork& w : work) {
      if (w.outcome != PrefixOutcome::kActive) continue;
      freeze(w, PrefixOutcome::kBudgetExhausted, result.iterations);
      push_diag(analysis::Severity::kWarning,
                analysis::codes::kPrefixBudgetExhausted,
                "origin " + std::to_string(w.origin),
                "iteration cap of " + std::to_string(config.max_iterations) +
                    " reached with prefix still active; matched " +
                    std::to_string(w.matched) + "/" +
                    std::to_string(w.paths.size()));
      ++capped;
    }
    if (capped > 0) result.stop = RefineStop::kIterationCap;
  }

  std::size_t matched_total = 0;
  for (const PrefixWork& w : work) matched_total += w.matched;
  result.unmatched_paths = total_paths - matched_total;
  result.success = result.unmatched_paths == 0;
  result.routers_added = refiner.routers_added;
  result.policies_changed = refiner.policies_changed;
  result.filters_relaxed = refiner.filters_relaxed;

  result.outcomes.reserve(work.size());
  for (const PrefixWork& w : work) {
    result.outcomes.push_back(PrefixFitOutcome{
        w.origin, w.outcome, w.matched, w.paths.size(), w.frozen_iteration});
    switch (w.outcome) {
      case PrefixOutcome::kConverged:
        ++result.prefixes_converged;
        break;
      case PrefixOutcome::kOscillating:
        ++result.prefixes_oscillating;
        break;
      case PrefixOutcome::kBudgetExhausted:
        ++result.prefixes_budget_exhausted;
        break;
      case PrefixOutcome::kActive:
        break;  // partial result (interrupted/faulted)
    }
  }

  // Early stops return the partial state untouched: pruning or auditing a
  // half-refined (or about-to-be-resumed) model would mutate past the
  // checkpoint, and pruning relies on simulations a degraded model cannot
  // promise to converge.
  const bool ran_to_stop = result.stop != RefineStop::kInterrupted &&
                           result.stop != RefineStop::kFault;

  if (config.prune_dead && ran_to_stop && !result.degraded()) {
    obs::PhaseTimer prune_timer(nullptr, obs::CounterId{}, trace, "prune");
    analysis::AuditOptions prune;
    prune.engine = config.engine;
    const analysis::PruneResult pruned =
        analysis::prune_dead_policies(model, prune);
    result.dead_rules_pruned = pruned.rules_removed();
    result.empty_policies_dropped = pruned.policies_dropped;
  }
  if (config.validate && ran_to_stop) {
    // Static safety gate on the final model: the MED-only policy language
    // must never have produced a dispute wheel (see dispute_graph.hpp), and
    // a fitted model must not blackhole any router for a fitted prefix
    // (route_space.hpp: refinement filters deny below a length, never
    // everything, so an empty MAY set means the fit destroyed
    // reachability).  Error-severity findings (S500) and A800 blackholes
    // propagate; enumeration-cap warnings (S501/A801) are expected at real
    // scales and stay advisory (visible via Pipeline::audit or `rdtool
    // audit`), keeping "a clean fit reports no diagnostics" intact.
    obs::PhaseTimer audit_timer(reg, metrics.validate_ns, trace, "audit");
    analysis::AuditOptions audit;
    audit.engine = config.engine;
    audit.check_dead = false;
    audit.compute_diversity = false;
    audit.check_blackholes = true;
    analysis::AuditResult audited = analysis::audit_model(model, audit);
    for (analysis::Diagnostic& d : audited.diagnostics) {
      if (d.severity == analysis::Severity::kError ||
          d.code == analysis::codes::kStaticBlackhole) {
        result.diagnostics.push_back(std::move(d));
      }
    }
    audit_timer.stop();
    result.phase_seconds.validate += audit_timer.seconds();
  }
  if (reg != nullptr) {
    reg->add(metrics.iterations, result.iterations);
    reg->add(metrics.messages, result.messages_simulated);
    reg->add(metrics.routers_added, result.routers_added);
    reg->add(metrics.policies_changed, result.policies_changed);
    reg->add(metrics.filters_relaxed, result.filters_relaxed);
    reg->add(metrics.outcome_converged, result.prefixes_converged);
    reg->add(metrics.outcome_oscillating, result.prefixes_oscillating);
    reg->add(metrics.outcome_budget_exhausted,
             result.prefixes_budget_exhausted);
  }
  if (trace != nullptr && trace->enabled(obs::TraceLevel::kIteration)) {
    nb::JsonWriter args;
    args.begin_object();
    args.key("stop").value(std::string_view(refine_stop_name(result.stop)));
    args.key("converged")
        .value(static_cast<std::uint64_t>(result.prefixes_converged));
    args.key("oscillating")
        .value(static_cast<std::uint64_t>(result.prefixes_oscillating));
    args.key("budget_exhausted")
        .value(static_cast<std::uint64_t>(result.prefixes_budget_exhausted));
    args.end_object();
    trace->instant("refine", "stop", trace->now_us(), 0, args.str());
  }
  return finish();
}

}  // namespace core
