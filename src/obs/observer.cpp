#include "obs/observer.hpp"

#include <string>

namespace obs {

RefineMetricSet RefineMetricSet::define(Registry& registry) {
  RefineMetricSet m;
  m.iterations = registry.counter("refine.iterations");
  m.messages = registry.counter("refine.messages");
  m.routers_added = registry.counter("refine.routers_added");
  m.policies_changed = registry.counter("refine.policies_changed");
  m.filters_relaxed = registry.counter("refine.filters_relaxed");
  m.outcome_converged = registry.counter("refine.outcome.converged");
  m.outcome_oscillating = registry.counter("refine.outcome.oscillating");
  m.outcome_budget_exhausted =
      registry.counter("refine.outcome.budget_exhausted");
  m.simulate_ns = registry.counter("refine.phase.simulate_ns");
  m.heuristic_ns = registry.counter("refine.phase.heuristic_ns");
  m.validate_ns = registry.counter("refine.phase.validate_ns");
  m.total_ns = registry.counter("refine.phase.total_ns");
  m.engine_messages = registry.counter("engine.messages");
  m.engine_activations = registry.counter("engine.activations");
  m.engine_rib_inserts = registry.counter("engine.rib_inserts");
  m.engine_rib_replacements = registry.counter("engine.rib_replacements");
  m.engine_withdrawals = registry.counter("engine.withdrawals");
  m.engine_selection_changes = registry.counter("engine.selection_changes");
  for (std::size_t step = 0; step < bgp::kNumDecisionSteps; ++step) {
    m.eliminated[step] = registry.counter(
        std::string("engine.eliminated.") +
        bgp::decision_step_name(static_cast<bgp::DecisionStep>(step)));
  }
  m.messages_per_prefix = registry.histogram(
      "engine.messages_per_prefix",
      {4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144});
  m.peak_rss_bytes = registry.gauge("process.peak_rss_bytes");
  return m;
}

std::array<std::uint64_t, bgp::kNumDecisionSteps> elimination_histogram(
    std::span<const std::uint32_t> ids, const bgp::PrefixSimResult& sim) {
  std::array<std::uint64_t, bgp::kNumDecisionSteps> histogram{};
  for (std::uint32_t r = 0; r < sim.num_routers(); ++r) {
    const bgp::PrefixSimResult::Row best = sim.best_row(r);
    if (best == bgp::PrefixSimResult::kNoRow) continue;
    for (const bgp::PrefixSimResult::Row row : sim.rows(r)) {
      if (row == best) continue;
      const bgp::DecisionStep step =
          bgp::compare_views(sim.view(row), sim.view(best), ids).step;
      ++histogram[static_cast<std::size_t>(step)];
    }
  }
  return histogram;
}

}  // namespace obs
