// Static per-prefix working sets: a sound over-approximation of the
// routers a full simulation of (prefix, origin) can ever activate, plus
// the static cost model built on top of it (partition.hpp consumes both).
//
// Working sets are an analysis, not a simulation input: the engine always
// simulates the whole model (Engine::identity_view), and these sets back
// `rdtool plan` and the shard planner.  On fitted models the relaxed bound
// keeps every router -- refinement only writes deny-below-length filters,
// and the relaxed BFS only cuts kDenyAll edges -- so a view restricted to
// it would simulate the same routers anyway.
//
// Soundness argument.  Engine::run activates (pops off the dirty queue)
// exactly: the origin's routers, and routers whose route selection changed
// after an import event.  A selection change requires an Adj-RIB-In
// insert, replace or withdrawal, each of which requires a SUCCESSFUL
// import at some point in the run -- so every activated router holds a
// permitted route at some time, i.e. its MAY set (route_space.hpp) is
// non-empty.  Therefore
//
//     activated(run)  SUBSETOF  { r : MAY(r) != empty }  UNION  origin,
//
// and since origin routers trivially have non-empty MAY sets (the
// originated route), the MAY-non-empty set IS a working set -- when the
// enumeration completes.  When it truncates, the incomplete MAY sets can
// exclude nothing; the analyzer degrades to relaxed_reachable (complete
// by construction, strictly contains the true MAY-reachable set) and
// flags the prefix A820.  Under the iBGP mesh option, AS-mates of a
// reachable router additionally receive its pushed external best without
// any eBGP import of their own, so both bounds are closed under AS
// membership in that mode.
//
// The bound is static: it never depends on runtime refinement state, so
// prefixes frozen by the oscillation guard (R700) or stopped by budgets
// (R702/R703) report the same sound set as healthy ones.
//
// tests/test_workset.cpp enforces the subset relation dynamically
// (activated flags from Engine::run vs these sets) across generated
// topologies and under fault injection, the same way test_impact.cpp
// gates the impact closure.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/route_space.hpp"
#include "bgp/engine.hpp"

namespace analysis {

struct WorksetOptions {
  /// Enumeration caps for the exact MAY pass.
  RouteSpaceOptions space;
  /// Attempt the exact MAY enumeration first; false skips straight to the
  /// relaxed bound (cheaper, coarser -- every prefix reports A820).
  bool exact = true;
};

struct PrefixWorkset {
  nb::Prefix prefix;
  nb::Asn origin = nb::kInvalidAsn;
  /// Dense-indexed membership flags (size == model.num_routers()).
  std::vector<char> members;
  /// Member count (popcount of `members`).
  std::size_t size = 0;
  /// True when the set is the relaxed reachability bound (MAY enumeration
  /// truncated or skipped); the cost estimate is coarse (A820).
  bool relaxed = false;
  /// Static bound on messages a sweep of this prefix processes.  Exact:
  /// per member, degree x number of distinct permitted paths it can
  /// announce.  Relaxed: per member out-edge, the per-router enumeration
  /// cap attenuated by the edge's export-filter threshold (a deny-below-d
  /// filter passes only lengths >= d of the plausible 1..max_path_length,
  /// kDenyAll passes none) -- filters are per prefix, so relaxed costs
  /// still rank prefixes even when every working set is the same full
  /// component.  Not a guarantee -- the engine's divergence cap is -- but
  /// a monotone workload estimate.
  std::uint64_t bounded_messages = 0;
  /// Planner cost: working-set size x bounded message count.
  std::uint64_t cost = 0;

  bool contains(topo::Model::Dense r) const { return members[r] != 0; }
};

/// Computes the working set of (prefix, origin) against the engine's model
/// and options.  `diags`, when non-null, receives one A820 warning per
/// relaxed fallback.
PrefixWorkset compute_working_set(const bgp::Engine& engine,
                                  const nb::Prefix& prefix, nb::Asn origin,
                                  const WorksetOptions& options = {},
                                  Diagnostics* diags = nullptr);

/// Working sets for every prefix the refinement sweep simulates: one
/// Prefix::for_asn(asn) per AS of the model, in ascending AS order.
std::vector<PrefixWorkset> compute_all_worksets(
    const bgp::Engine& engine, const WorksetOptions& options = {},
    Diagnostics* diags = nullptr);

}  // namespace analysis
