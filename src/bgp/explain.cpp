#include "bgp/explain.hpp"

#include <algorithm>

namespace bgp {

RouteExplanation explain_selection(const Model& model,
                                   const PrefixSimResult& sim,
                                   Model::Dense router) {
  RouteExplanation explanation;
  explanation.router = model.router_id(router);
  const PrefixSimResult::Row best = sim.best_row(router);
  if (best == PrefixSimResult::kNoRow) return explanation;

  const std::vector<std::uint32_t> ids = dense_ids(model);
  for (const PrefixSimResult::Row row : sim.rows(router)) {
    RouteExplanation::Candidate candidate;
    candidate.route = sim.route(row);
    if (row == best) {
      candidate.is_best = true;
    } else {
      candidate.lost_at =
          compare_views(sim.view(row), sim.view(best), ids).step;
    }
    explanation.candidates.push_back(std::move(candidate));
  }
  std::stable_sort(explanation.candidates.begin(),
                   explanation.candidates.end(),
                   [](const RouteExplanation::Candidate& a,
                      const RouteExplanation::Candidate& b) {
                     if (a.is_best != b.is_best) return a.is_best;
                     return static_cast<int>(a.lost_at) >
                            static_cast<int>(b.lost_at);
                   });
  return explanation;
}

std::string RouteExplanation::str(const Model& model) const {
  std::string out = "router " + router.str() + ":\n";
  if (candidates.empty()) return out + "  (no routes)\n";
  for (const Candidate& candidate : candidates) {
    out += candidate.is_best
               ? "  BEST   "
               : "  lost(" + std::string(decision_step_name(candidate.lost_at)) +
                     ") ";
    out += candidate.route.str();
    out += " via " + model.router_id(candidate.route.sender).str();
    out += "\n";
  }
  return out;
}

}  // namespace bgp
