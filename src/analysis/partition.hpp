// Static shard planning: packs per-prefix working sets (workset.hpp) into
// N balanced shards -- the placement a partitioned (distributed) refinement
// sweep would run; `rdtool plan` reports it.
//
// The objective mirrors distributed-simulation placement: each shard
// simulates its prefixes independently, so (a) shard loads -- summed
// static costs -- should be balanced, and (b) prefixes whose working sets
// overlap should land on the same shard, because every router replicated
// across shards duplicates model state and convergence checking
// (cut_weight counts exactly those extra copies).
//
// The planner is a greedy LPT (longest processing time first) pass with an
// affinity tie-break: prefixes are placed in descending cost order; among
// shards still below the balanced-load target the one whose router set
// already covers most of the prefix's working set wins.  Deterministic by
// construction -- the order and every tie-break are total -- so the same
// worksets always yield byte-identical plans (the CI `plan` job asserts
// this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/workset.hpp"

namespace analysis {

struct PlanOptions {
  std::size_t shards = 4;
  /// Warn (A821) when max shard load exceeds this multiple of the mean.
  double imbalance_warning = 1.5;
};

struct ShardPlan {
  /// Plan format version, bumped whenever the JSON shape or the planner's
  /// placement rules change incompatibly.
  static constexpr int kVersion = 1;

  struct Shard {
    /// Indices into the workset vector the plan was built from, in
    /// placement order.
    std::vector<std::size_t> prefixes;
    std::uint64_t cost = 0;
    /// Distinct routers covered by the shard's working sets.
    std::size_t routers = 0;
  };

  std::size_t num_shards = 0;
  std::vector<Shard> shards;
  std::uint64_t total_cost = 0;
  /// Sum over routers of (shards holding a copy - 1): the replication the
  /// partition forces.
  std::uint64_t cut_weight = 0;
  /// max shard cost / mean shard cost; 0 when there is no load.
  double imbalance = 0.0;
  /// Prefixes whose cost rests on the relaxed bound (A820): the plan is
  /// advisory to that extent.
  std::size_t relaxed_prefixes = 0;
  /// Dataset fingerprint (plan_fingerprint): identifies the (model router
  /// count, per-prefix origin sequence) the plan's workset indices refer
  /// to, so a consumer of the plan JSON can tell whether it still matches
  /// a model before mapping indices back to prefixes.
  std::uint64_t fingerprint = 0;
};

/// FNV-1a over the dataset identity a plan indexes into: the model's
/// router count, the prefix count, and each prefix's origin AS in index
/// order, as given to the planner.
std::uint64_t plan_fingerprint(std::size_t num_routers,
                               const std::vector<PrefixWorkset>& worksets);

/// Plans `options.shards` shards over the given worksets (all against the
/// same model; `num_routers` = that model's router count).  `diags`, when
/// non-null, receives A821 when the imbalance threshold is exceeded.
ShardPlan plan_shards(const std::vector<PrefixWorkset>& worksets,
                      std::size_t num_routers, const PlanOptions& options = {},
                      Diagnostics* diags = nullptr);

/// Stable JSON rendering consumed by `rdtool plan --json` and the CI
/// determinism gate:
///   {"tool": "plan", "version": 1, "shards": N, "total_cost": C,
///    "cut_weight": W, "imbalance": I, "relaxed_prefixes": K,
///    "fingerprint": "1af3...b2" (hex string: JSON doubles lose 64-bit
///    precision),
///    "plan": [{"shard": i, "cost": c, "routers": m,
///              "prefixes": [{"prefix": "10.0.9.0/24", "origin": 9,
///                            "cost": c, "workset": s,
///                            "relaxed": false}, ...]}, ...]}
std::string plan_to_json(const ShardPlan& plan,
                         const std::vector<PrefixWorkset>& worksets,
                         int indent = 0);

}  // namespace analysis
