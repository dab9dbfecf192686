// What-if analysis -- the paper's motivating application (Section 1):
// "what if a certain peering link was removed, or what-if we change policies
// thus?".  A scenario is a set of deltas applied to a copy of the fitted
// AS-routing model; the result is the per-(prefix, AS) difference between
// the best-route sets before and after.
//
// Because the fitted model reproduces observed routing exactly on the
// training set and predicts held-out routes well (Section 5), these diffs
// are meaningful forecasts rather than toy-graph shortest-path changes.
#pragma once

#include <atomic>
#include <optional>
#include <set>
#include <vector>

#include "bgp/engine.hpp"
#include "topology/as_path.hpp"
#include "topology/model.hpp"

namespace core {

struct WhatIfScenario {
  /// De-peering: remove every session between the two ASes.
  std::vector<std::pair<nb::Asn, nb::Asn>> remove_as_links;
  /// Remove one specific session.
  std::vector<std::pair<nb::RouterId, nb::RouterId>> remove_sessions;
  /// New peering: one session between the first quasi-routers of each AS.
  std::vector<std::pair<nb::Asn, nb::Asn>> add_as_links;
  /// Policy change: stop announcing `prefix` from AS `from` to AS `to`
  /// (deny-all filters on every session between them).
  struct PrefixDeny {
    nb::Asn from;
    nb::Asn to;
    nb::Prefix prefix;
  };
  std::vector<PrefixDeny> deny_prefix;

  bool empty() const {
    return remove_as_links.empty() && remove_sessions.empty() &&
           add_as_links.empty() && deny_prefix.empty();
  }
};

/// The model with a scenario applied (the base model is not modified).
topo::Model apply_scenario(const topo::Model& base,
                           const WhatIfScenario& scenario);

struct RouteChange {
  nb::Asn origin = nb::kInvalidAsn;  // prefix identified by its origin
  nb::Asn observer = nb::kInvalidAsn;
  /// Distinct best-route AS-paths across the AS's quasi-routers (including
  /// the observer AS itself), before and after.
  std::set<std::vector<nb::Asn>> before;
  std::set<std::vector<nb::Asn>> after;

  bool lost_reachability() const { return !before.empty() && after.empty(); }
  bool gained_reachability() const { return before.empty() && !after.empty(); }
};

struct WhatIfResult {
  std::size_t prefixes_evaluated = 0;
  std::size_t pairs_evaluated = 0;  // (prefix, AS) pairs
  std::size_t pairs_changed = 0;
  std::size_t pairs_lost_reachability = 0;
  std::size_t pairs_gained_reachability = 0;
  /// Detailed changes, capped at `max_changes` (insertion order:
  /// prefix-major, then AS).
  std::vector<RouteChange> changes;
  /// True when the wall-clock budget or the interrupt flag stopped the
  /// evaluation before every origin was diffed: the counts above cover
  /// only `prefixes_evaluated` prefixes (a structured partial result, the
  /// same contract as refine's degraded stop -- R710 when served).
  bool truncated = false;
};

struct WhatIfOptions {
  bgp::EngineOptions engine;  // must match how the model is interpreted
  /// Cap on detailed change records (counting continues past the cap).
  std::size_t max_changes = 1000;
  /// Restrict the diff to these observer ASes (empty = all ASes).
  std::set<nb::Asn> observers;
  /// Wall-clock budget in seconds (0 = unbounded), checked between
  /// prefixes -- PR 5's refine budget contract applied to what-if: on
  /// exhaustion the result is returned truncated, never abandoned.
  double wall_clock_budget_seconds = 0;
  /// Cooperative cancellation, polled between prefixes (nullptr = none);
  /// `rdtool serve` points this at the per-request deadline flag.
  const std::atomic<bool>* interrupt = nullptr;
};

/// Distinct best AS-paths across `asn`'s quasi-routers for a finished full
/// simulation, each with the observer AS prepended.  Shared by what-if
/// diffs and the serve predict handler; the empty set means the AS has no
/// route to the prefix.
std::set<std::vector<nb::Asn>> best_paths_of(const topo::Model& model,
                                             const bgp::PrefixSimResult& sim,
                                             nb::Asn asn);

/// Diffs predicted routing for the given origins between `base` and
/// `base + scenario`.
WhatIfResult evaluate_whatif(const topo::Model& base,
                             const WhatIfScenario& scenario,
                             const std::vector<nb::Asn>& origins,
                             const WhatIfOptions& options = {});

/// One prefix-slice of evaluate_whatif against pre-built engines, so a
/// long-lived caller (the serve daemon's what-if handler) can reuse a
/// cached copy-on-write fork across requests and check its own deadline
/// between prefixes.  Accumulates counts and (capped) changes into
/// `result`; `before` must simulate `base` and `after` the forked model.
/// `memory`, `before_sim` and `after_sim` are caller-owned storage the two
/// runs overwrite and recycle (the daemon keeps one set per worker).
void diff_origin_routes(const topo::Model& base, const bgp::Engine& before,
                        const topo::Model& changed, const bgp::Engine& after,
                        nb::Asn origin, const WhatIfOptions& options,
                        bgp::SimMemory& memory, bgp::PrefixSimResult& before_sim,
                        bgp::PrefixSimResult& after_sim, WhatIfResult* result);

}  // namespace core
