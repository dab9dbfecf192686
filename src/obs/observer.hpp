// The hook callers hand to core::refine_model (RefineConfig::observer) and
// to the tools: a registry for aggregate metrics, a trace sink for timed
// events, either optional.  A null Observer* means "observe nothing" and
// the instrumented code paths collapse to the uninstrumented ones -- the
// fitted model is byte-identical with and without an observer attached
// (asserted by test_obs and the CI perf-smoke job).
//
// Also home to the sim-level derived statistics that are too expensive for
// the engine's hot loop and instead run over a finished PrefixSimResult:
// the decision-step elimination histogram, the aggregate twin of
// bgp::explain_selection.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "bgp/decision.hpp"
#include "bgp/engine.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace obs {

struct Observer {
  Registry* registry = nullptr;
  TraceSink* trace = nullptr;
};

/// The metric schema core::refine_model records (stable names, DESIGN.md
/// section 9).  Counters prefixed `refine.` summarize the fit; `engine.`
/// counters are accumulated through per-ThreadPool-worker shards inside
/// the simulation sweep.  The `engine.eliminated.<step>` counters -- the
/// decision-step elimination histogram -- are only populated when the
/// attached trace sink records at TraceLevel::kPrefix, because they cost
/// one compare_routes per Adj-RIB-In entry per sweep; everything else is
/// cheap enough to record whenever a registry is attached.
struct RefineMetricSet {
  CounterId iterations;                 // refine.iterations
  CounterId messages;                   // refine.messages
  CounterId routers_added;              // refine.routers_added
  CounterId policies_changed;           // refine.policies_changed
  CounterId filters_relaxed;            // refine.filters_relaxed
  CounterId outcome_converged;          // refine.outcome.converged
  CounterId outcome_oscillating;        // refine.outcome.oscillating
  CounterId outcome_budget_exhausted;   // refine.outcome.budget_exhausted
  CounterId simulate_ns;                // refine.phase.simulate_ns
  CounterId heuristic_ns;               // refine.phase.heuristic_ns
  CounterId validate_ns;                // refine.phase.validate_ns
  CounterId total_ns;                   // refine.phase.total_ns
  CounterId engine_messages;            // engine.messages
  CounterId engine_activations;         // engine.activations
  CounterId engine_rib_inserts;         // engine.rib_inserts
  CounterId engine_rib_replacements;    // engine.rib_replacements
  CounterId engine_withdrawals;         // engine.withdrawals
  CounterId engine_selection_changes;   // engine.selection_changes
  /// engine.eliminated.<decision_step_name>, indexed by DecisionStep.
  std::array<CounterId, bgp::kNumDecisionSteps> eliminated;
  /// engine.messages_per_prefix (bounds: powers of four).
  HistogramId messages_per_prefix;
  /// process.peak_rss_bytes -- nb::peak_rss_bytes() sampled once when the
  /// fit finishes (a process high-water mark, so monotone across fits).
  GaugeId peak_rss_bytes;

  /// Defines every metric on `registry` (idempotent: the registry dedups
  /// definitions by name).
  static RefineMetricSet define(Registry& registry);
};

/// Counts, over every router of a finished simulation that selected a best
/// route, each non-best Adj-RIB-In candidate at the decision step that
/// eliminated it versus the best route -- exactly the `lost_at` annotation
/// bgp::explain_selection assigns per candidate, aggregated over the whole
/// sim (test_obs asserts the agreement).  `ids` is the dense-index ->
/// router-id map of the simulated model (bgp::dense_ids or
/// SimContext::ids).  Indexed by static_cast<size_t>(DecisionStep).
std::array<std::uint64_t, bgp::kNumDecisionSteps> elimination_histogram(
    std::span<const std::uint32_t> ids, const bgp::PrefixSimResult& sim);

}  // namespace obs
