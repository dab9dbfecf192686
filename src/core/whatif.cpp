#include "core/whatif.hpp"

#include <chrono>

#include "bgp/sim_memory.hpp"

namespace core {

using topo::Model;

topo::Model apply_scenario(const Model& base, const WhatIfScenario& scenario) {
  Model model = base;
  for (auto [a, b] : scenario.remove_as_links) {
    for (Model::Dense ra : model.routers_of(a)) {
      const nb::RouterId ra_id = model.router_id(ra);
      // Collect first: removing while iterating peers would invalidate.
      std::vector<nb::RouterId> to_remove;
      for (Model::Dense rb : model.peers(ra)) {
        if (model.router_id(rb).asn() == b)
          to_remove.push_back(model.router_id(rb));
      }
      for (nb::RouterId rb_id : to_remove) model.remove_session(ra_id, rb_id);
    }
  }
  for (auto [a, b] : scenario.remove_sessions) model.remove_session(a, b);
  for (auto [a, b] : scenario.add_as_links) {
    if (!model.has_as(a) || !model.has_as(b) || a == b) continue;
    model.add_session(model.router_id(model.routers_of(a).front()),
                      model.router_id(model.routers_of(b).front()));
  }
  for (const auto& deny : scenario.deny_prefix) {
    for (Model::Dense ra : model.routers_of(deny.from)) {
      for (Model::Dense rb : model.peers(ra)) {
        if (model.router_id(rb).asn() != deny.to) continue;
        model.set_export_filter(model.router_id(ra), model.router_id(rb),
                                deny.prefix, topo::ExportFilter::kDenyAll,
                                nb::kInvalidRouterId);
      }
    }
  }
  return model;
}

std::set<std::vector<nb::Asn>> best_paths_of(const Model& model,
                                             const bgp::PrefixSimResult& sim,
                                             nb::Asn asn) {
  std::set<std::vector<nb::Asn>> out;
  for (Model::Dense r : model.routers_of(asn)) {
    const bgp::PrefixSimResult::Row best = sim.best_row(r);
    if (best == bgp::PrefixSimResult::kNoRow) continue;
    const std::span<const nb::Asn> path = sim.path(best);
    std::vector<nb::Asn> full;
    full.reserve(path.size() + 1);
    full.push_back(asn);
    full.insert(full.end(), path.begin(), path.end());
    out.insert(std::move(full));
  }
  return out;
}

void diff_origin_routes(const Model& base, const bgp::Engine& before_engine,
                        const Model& changed, const bgp::Engine& after_engine,
                        nb::Asn origin, const WhatIfOptions& options,
                        bgp::SimMemory& memory, bgp::PrefixSimResult& before,
                        bgp::PrefixSimResult& after, WhatIfResult* result) {
  if (!base.has_as(origin)) return;
  ++result->prefixes_evaluated;
  const nb::Prefix prefix = nb::Prefix::for_asn(origin);
  before_engine.run_into(before_engine.identity_view(prefix, origin), memory,
                         nullptr, nullptr, before);
  after_engine.run_into(after_engine.identity_view(prefix, origin), memory,
                        nullptr, nullptr, after);
  for (nb::Asn asn : base.asns()) {
    if (!options.observers.empty() && !options.observers.count(asn)) continue;
    ++result->pairs_evaluated;
    auto paths_before = best_paths_of(base, before, asn);
    auto paths_after = best_paths_of(changed, after, asn);
    if (paths_before == paths_after) continue;
    ++result->pairs_changed;
    RouteChange change;
    change.origin = origin;
    change.observer = asn;
    change.before = std::move(paths_before);
    change.after = std::move(paths_after);
    if (change.lost_reachability()) ++result->pairs_lost_reachability;
    if (change.gained_reachability()) ++result->pairs_gained_reachability;
    if (result->changes.size() < options.max_changes)
      result->changes.push_back(std::move(change));
  }
}

WhatIfResult evaluate_whatif(const Model& base, const WhatIfScenario& scenario,
                             const std::vector<nb::Asn>& origins,
                             const WhatIfOptions& options) {
  WhatIfResult result;
  const Model changed = apply_scenario(base, scenario);
  bgp::Engine engine_before(base, options.engine);
  bgp::Engine engine_after(changed, options.engine);
  bgp::SimMemory memory;
  bgp::PrefixSimResult before, after;

  const auto start = std::chrono::steady_clock::now();
  for (nb::Asn origin : origins) {
    // Budget / cancellation checks between prefixes (the refine contract:
    // a bounded run returns a structured partial result, never nothing).
    if (options.interrupt != nullptr &&
        options.interrupt->load(std::memory_order_relaxed)) {
      result.truncated = true;
      break;
    }
    if (options.wall_clock_budget_seconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= options.wall_clock_budget_seconds) {
      result.truncated = true;
      break;
    }
    diff_origin_routes(base, engine_before, changed, engine_after, origin,
                       options, memory, before, after, &result);
  }
  return result;
}

}  // namespace core
