// The iterative refinement heuristic of Sections 4.3-4.6 (paper Figure 6):
// starting from the one-quasi-router-per-AS model, repeatedly
//
//   1. simulate every (not yet matched) prefix,
//   2. walk each observed AS-path from the origin toward the observation
//      point and, at the first AS where the path is not yet a RIB-Out match:
//        - RIB-Out at an unreserved quasi-router  -> reserve it;
//        - RIB-In at an unreserved quasi-router   -> reserve it and adjust
//          its per-prefix policy (deny-shorter filters at every announcing
//          neighbor + MED ranking of the correct neighbor AS);
//        - RIB-In only at reserved quasi-routers  -> duplicate one (the new
//          quasi-router inherits sessions and import filters, hence the
//          RIB-In match) and adjust the duplicate;
//        - no RIB-In anywhere, but the announcing neighbor AS has a RIB-Out
//          match -> *filter deletion* (Fig. 7): an earlier-created filter is
//          blocking the path; relax it -- toward a fresh duplicate when the
//          filter protects another path's quasi-router (provenance check),
//          in place otherwise;
//        - otherwise wait for a later iteration (the suffix first has to
//          propagate closer to this AS),
//   3. stop when every training path is a RIB-Out match and an iteration
//      makes no changes (or the iteration cap is hit).
//
// Reservations are per-(prefix, iteration): a quasi-router serves at most one
// observed path of a prefix, which is what makes multiple quasi-routers
// carry route diversity.
//
// Prefixes whose paths are all matched and untouched in an iteration are
// frozen: per-prefix policies are independent across prefixes and additional
// quasi-routers never change another prefix's best routes (a duplicate
// re-advertises an already-advertised path with a higher router id, which
// loses every tie-break), so frozen prefixes stay matched.
//
// Execution model (DESIGN.md section 8): each iteration is a simulate-in-
// parallel / mutate-serially round.  All active prefixes are simulated
// over the whole immutable iteration-start model -- every quasi-router, as
// the paper's loop re-simulates it (Section 4.6; DESIGN.md section 12) --
// embarrassingly parallel and fanned across RefineConfig::threads, then
// the heuristic consumes the results serially in deterministic prefix
// order.  The same independence
// argument as freezing applies within a round: policies are per-prefix, and
// a duplicate another prefix's apply step adds never changes this prefix's
// simulated routes.  Duplicates minted earlier in the same apply pass ARE
// offered to later prefixes -- the candidate scan reads them through their
// source's simulated RIB (sound by the same session/policy inheritance the
// duplication step relies on), so prefixes share duplicates exactly as they
// did when the loop re-simulated after every mutation.  The fitted model is
// byte-identical for every thread count, including 1.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "bgp/engine.hpp"
#include "data/observations.hpp"
#include "obs/profiler.hpp"
#include "topology/model.hpp"

namespace obs {
struct Observer;
class FlightRecorder;
}  // namespace obs

namespace topo {
struct RefineCheckpoint;
}  // namespace topo

namespace core {

struct FaultPlan;

/// Per-prefix fate of a fit.  kActive only survives into results of runs
/// that stopped early (interrupt/fault); every run that ran to a stop
/// condition resolves each prefix to one of the other three.
enum class PrefixOutcome {
  kActive,            // still being refined when the run stopped
  kConverged,         // reached a stable state (fully matched or fixpoint)
  kOscillating,       // oscillation guard froze it (R700/R701)
  kBudgetExhausted,   // an iteration or wall-clock budget froze it (R702/R703)
};

/// Stable token for serialization/JSON: active|converged|oscillating|
/// budget-exhausted.
const char* prefix_outcome_name(PrefixOutcome outcome);
std::optional<PrefixOutcome> prefix_outcome_from(std::string_view token);

/// Why refine_model returned.
enum class RefineStop {
  kCompleted,     // fixpoint or every prefix resolved
  kIterationCap,  // max_iterations exhausted with active prefixes left
  kWallClock,     // wall_clock_budget_seconds exhausted
  kInterrupted,   // RefineConfig::interrupt observed (or injected)
  kFault,         // sweep fault / resume mismatch; see diagnostics
};

const char* refine_stop_name(RefineStop stop);

/// Hash of the training paths (order-independent input identity); stored in
/// checkpoints so a resume against different data fails fast (R706).
std::uint64_t dataset_fingerprint(const data::BgpDataset& training);

struct RefineConfig {
  /// Hard cap; the paper observes convergence within a small multiple of the
  /// maximum AS-path length.
  std::size_t max_iterations = 96;
  /// Worker threads for the per-iteration simulation sweep (0 = hardware
  /// concurrency).  Per-prefix simulations are independent and run against
  /// the immutable iteration-start model; the heuristic then mutates
  /// serially in deterministic prefix order, so the fitted model is
  /// byte-identical for every thread count.
  unsigned threads = 1;

  /// How the model is interpreted during fitting.  The default (agnostic,
  /// no iBGP) is the paper's choice; use_ibgp_mesh reproduces the rejected
  /// alternative of Section 4.6.
  bgp::EngineOptions engine;

  // Ablation switches (bench_ablation): disabling any of these degrades the
  // fixpoint, quantifying each mechanism's contribution.
  bool allow_duplication = true;
  bool allow_filters = true;
  bool allow_ranking = true;

  bool verbose = false;
  /// When set, every heuristic action for this origin's prefix is logged to
  /// stderr (developer aid).
  nb::Asn debug_origin = nb::kInvalidAsn;

  /// Debug hook (on in tests, opt-in elsewhere): run the analysis layer
  /// inside the loop -- analysis::check_convergence on every simulation
  /// before the heuristic consumes it, analysis::validate_model on the
  /// mutated model after every iteration, and the analysis::audit_model
  /// safety pass (dispute-wheel detection, S5xx) on the final model.
  /// Findings land in RefineResult::diagnostics; a clean fit reports none
  /// (our MED-only policies are provably safe; see dispute_graph.hpp).
  bool validate = false;

  /// After the loop, strip rules the static audit proves dead (D6xx) via
  /// analysis::prune_dead_policies.  Behavior-preserving by construction --
  /// every matched training path stays reproducible -- so fitted models
  /// ship minimal.
  bool prune_dead = false;

  /// Observability hook (DESIGN.md section 9): when non-null, the fit
  /// records metrics into observer->registry (per-worker shards inside the
  /// simulation sweep, merged deterministically at sweep exit) and emits
  /// structured trace events to observer->trace at its configured level
  /// (phase spans, per-iteration convergence counters, per-prefix
  /// simulation spans with the decision-step elimination histogram).
  /// Observation never feeds back: the fitted model is byte-identical with
  /// and without an observer, at every thread count, and the null-observer
  /// path does no observability work at all.
  const obs::Observer* observer = nullptr;

  /// Always-on flight recorder (DESIGN.md section 14): when non-null the
  /// fit records coarse lifecycle events (iteration/prefix boundaries,
  /// freezes, checkpoints, faults, the stop) into the recorder's lock-free
  /// per-track rings.  Track 0 is the serial loop; track 1+w is sweep
  /// worker w -- single writer per track, so recording is one relaxed
  /// read + release store and cheap enough to leave attached by default.
  /// Like the observer, it never feeds back into the fit.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// When non-empty AND a flight recorder is attached, the rings are
  /// dumped (atomically) to this path whenever the fit ends degraded or
  /// faulted -- the post-mortem a crash report can ship.  A dump failure
  /// is reported as an R707 warning diagnostic, never an error.
  std::string flight_dump_path;

  // ---- fault tolerance (DESIGN.md section 10) -------------------------------

  /// Wall-clock budget for the whole fit, 0 = unlimited.  On exhaustion the
  /// remaining active prefixes freeze as kBudgetExhausted (R703) and the
  /// fit returns a partial result with stop == kWallClock.
  double wall_clock_budget_seconds = 0;
  /// Cap on refinement iterations spent on any single prefix, 0 =
  /// unlimited.  A prefix hitting it freezes as kBudgetExhausted (R702);
  /// the rest of the fit continues.
  std::size_t prefix_iteration_budget = 0;

  /// Oscillation guard: recent-fingerprint window per prefix and how many
  /// recurrences confirm a cycle.  window 0 disables the guard.
  std::size_t oscillation_window = 12;
  std::size_t oscillation_confirmations = 2;

  /// When non-empty, a resumable checkpoint is written (atomically) to this
  /// path every `checkpoint_every` iterations and at interrupt/fault stops.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 8;
  /// Resume state loaded by the caller (topo::load_refine_checkpoint).  The
  /// caller must also pass the checkpoint's model as `model`; refine_model
  /// verifies the dataset hash and per-prefix consistency (R706 on
  /// mismatch).  A resumed run produces a byte-identical final model to an
  /// uninterrupted one.
  const topo::RefineCheckpoint* resume = nullptr;

  /// Cooperative cancellation: checked between iterations.  When it reads
  /// true the fit checkpoints (if configured) and returns stop ==
  /// kInterrupted with per-prefix partial outcomes.  Safe to set from a
  /// signal handler (rdtool's SIGINT/SIGTERM path).
  const std::atomic<bool>* interrupt = nullptr;

  /// Fault-injection hooks (tests/CI only; see core/fault_inject.hpp).
  /// Ignored unless the library was built with RD_FAULT_INJECTION.
  const FaultPlan* fault_plan = nullptr;
};

struct RefineIterationLog {
  std::size_t iteration = 0;
  std::size_t paths_total = 0;
  std::size_t paths_matched = 0;  // full RIB-Out chains origin->observer
  std::size_t active_prefixes = 0;
  std::size_t routers = 0;  // model size snapshots
  std::size_t filters = 0;
  std::size_t rankings = 0;
  std::size_t routers_added = 0;    // this iteration
  std::size_t policies_changed = 0; // this iteration
};

/// Wall-clock breakdown of one refine_model call, in seconds.  The simulate
/// phase is the parallel sweep (engine runs), validate covers the optional
/// analysis hooks (convergence replay, lint, final audit), heuristic is the
/// serial mutation pass.  total >= the sum (it includes bookkeeping).
struct RefinePhaseSeconds {
  double simulate = 0;
  double heuristic = 0;
  double validate = 0;
  double total = 0;
};

/// Per-prefix outcome row of a fit (ascending origin order, one row per
/// prefix whose origin exists in the model).
struct PrefixFitOutcome {
  nb::Asn origin = nb::kInvalidAsn;
  PrefixOutcome outcome = PrefixOutcome::kActive;
  std::size_t matched = 0;
  std::size_t paths_total = 0;
  /// Iteration at which the oscillation/budget guard froze the prefix,
  /// 0 when it was never frozen.
  std::size_t frozen_iteration = 0;
};

struct RefineResult {
  bool success = false;  // every training path is a RIB-Out match
  /// Why the loop returned.  Partial results (kInterrupted/kFault) carry
  /// valid counters and outcomes up to the stop point.
  RefineStop stop = RefineStop::kCompleted;
  std::size_t iterations = 0;
  std::size_t unmatched_paths = 0;
  /// BGP messages processed across every simulation of the fit (the
  /// engine-throughput denominator for benchmarks).
  std::uint64_t messages_simulated = 0;
  RefinePhaseSeconds phase_seconds;
  /// Effective worker count of the simulation sweep.
  unsigned threads_used = 1;
  /// Total model edits across all iterations.
  std::size_t routers_added = 0;
  std::size_t policies_changed = 0;
  std::size_t filters_relaxed = 0;  // Fig. 7 filter deletions
  /// Rules removed by the RefineConfig::prune_dead pass (0 when off).
  std::size_t dead_rules_pruned = 0;
  std::size_t empty_policies_dropped = 0;
  std::vector<RefineIterationLog> log;
  /// Findings from the RefineConfig::validate hooks (empty when validation
  /// is off or the fit never corrupted the model / engine state) plus any
  /// R7xx runtime-fault diagnostics the loop itself emitted.
  analysis::Diagnostics diagnostics;

  /// Per-prefix fates (graceful degradation: a partial fit still reports
  /// exactly which prefixes converged and what match coverage they reached).
  std::vector<PrefixFitOutcome> outcomes;
  std::size_t prefixes_converged = 0;
  std::size_t prefixes_oscillating = 0;
  std::size_t prefixes_budget_exhausted = 0;
  /// True if at least one checkpoint was successfully written this run.
  bool checkpoint_written = false;
  /// True if a flight-recorder post-mortem dump was written (degraded or
  /// faulted stop with RefineConfig::flight_dump_path set).
  bool flight_dump_written = false;

  /// Always 0: the sweep simulates the whole model and caches no
  /// reachability bounds.  Kept so existing readers of the fields (the
  /// perfbench harness's cache_hit_ratio) still compile; they read 0.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// Sweep-profiler raw material (DESIGN.md section 14): one sample per
  /// simulated prefix of every instrumented sweep (a profile "shard" is one
  /// prefix; `prefixes` is always 1), and the sweep (simulate-phase) span
  /// of each iteration.  Populated only when an observer with a registry
  /// or an iteration-level trace sink is attached; empty otherwise (the
  /// zero-observer path records nothing).  obs::profile_sweep folds these
  /// into the speedup-loss attribution `rdtool profile` reports.
  std::vector<obs::SweepShardSample> shard_samples;
  std::vector<obs::SweepIterationSpan> sweep_spans;

  /// Completed, but with frozen prefixes: the model is usable yet some
  /// training paths are knowingly unmatched (rdtool exit code 3).
  bool degraded() const {
    return prefixes_oscillating + prefixes_budget_exhausted > 0;
  }
};

/// Refines `model` in place against the training dataset.
RefineResult refine_model(topo::Model& model,
                          const data::BgpDataset& training,
                          const RefineConfig& config);

}  // namespace core
