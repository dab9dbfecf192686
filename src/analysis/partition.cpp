#include "analysis/partition.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>

#include "netbase/check.hpp"
#include "netbase/json.hpp"

namespace analysis {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffu;
    hash *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t plan_fingerprint(std::size_t num_routers,
                               const std::vector<PrefixWorkset>& worksets) {
  std::uint64_t hash = kFnvOffset;
  fnv_mix(hash, num_routers);
  fnv_mix(hash, worksets.size());
  for (const PrefixWorkset& ws : worksets) fnv_mix(hash, ws.origin);
  return hash;
}

ShardPlan plan_shards(const std::vector<PrefixWorkset>& worksets,
                      std::size_t num_routers, const PlanOptions& options,
                      Diagnostics* diags) {
  RD_CHECK(options.shards > 0, "plan_shards: need at least one shard");
  ShardPlan plan;
  plan.num_shards = options.shards;
  plan.shards.resize(options.shards);
  plan.fingerprint = plan_fingerprint(num_routers, worksets);

  for (const PrefixWorkset& ws : worksets) {
    RD_CHECK(ws.members.size() == num_routers,
             "plan_shards: workset from a different model");
    plan.total_cost += ws.cost;
    if (ws.relaxed) ++plan.relaxed_prefixes;
  }

  // Placement order: LPT (descending cost), origin then prefix breaking
  // ties so the order -- and hence the plan -- is total.
  std::vector<std::size_t> order(worksets.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const PrefixWorkset& x = worksets[a];
    const PrefixWorkset& y = worksets[b];
    if (x.cost != y.cost) return x.cost > y.cost;
    if (x.origin != y.origin) return x.origin < y.origin;
    return x.prefix < y.prefix;
  });

  const double target =
      static_cast<double>(plan.total_cost) / static_cast<double>(options.shards);
  std::vector<std::vector<char>> covered(options.shards,
                                         std::vector<char>(num_routers, 0));

  for (const std::size_t p : order) {
    const PrefixWorkset& ws = worksets[p];
    // Candidates: shards still below the balanced-load target; when every
    // shard is at or past it (late placements), fall back to all shards so
    // the cost-after tie-break degenerates to plain LPT.
    std::vector<std::size_t> candidates;
    for (std::size_t s = 0; s < options.shards; ++s) {
      if (static_cast<double>(plan.shards[s].cost) < target)
        candidates.push_back(s);
    }
    const bool feasible = !candidates.empty();
    if (!feasible) {
      candidates.resize(options.shards);
      std::iota(candidates.begin(), candidates.end(), 0);
    }

    std::size_t best = candidates.front();
    std::uint64_t best_cut = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t best_after = std::numeric_limits<std::uint64_t>::max();
    for (const std::size_t s : candidates) {
      // Added cut: members this shard does not cover yet -- the affinity
      // objective.  Skipped in the infeasible fallback, where balance is
      // the only concern left.
      std::uint64_t cut = 0;
      if (feasible) {
        for (std::size_t r = 0; r < num_routers; ++r) {
          if (ws.members[r] != 0 && covered[s][r] == 0) ++cut;
        }
      }
      const std::uint64_t after = plan.shards[s].cost + ws.cost;
      if (cut < best_cut || (cut == best_cut && after < best_after)) {
        best = s;
        best_cut = cut;
        best_after = after;
      }
    }

    plan.shards[best].prefixes.push_back(p);
    plan.shards[best].cost += ws.cost;
    for (std::size_t r = 0; r < num_routers; ++r) {
      if (ws.members[r] != 0) covered[best][r] = 1;
    }
  }

  std::uint64_t max_cost = 0;
  for (std::size_t s = 0; s < options.shards; ++s) {
    ShardPlan::Shard& shard = plan.shards[s];
    shard.routers = static_cast<std::size_t>(
        std::count(covered[s].begin(), covered[s].end(), char{1}));
    max_cost = std::max(max_cost, shard.cost);
  }
  for (std::size_t r = 0; r < num_routers; ++r) {
    std::uint64_t copies = 0;
    for (std::size_t s = 0; s < options.shards; ++s) copies += covered[s][r];
    if (copies > 1) plan.cut_weight += copies - 1;
  }
  if (plan.total_cost > 0) {
    plan.imbalance = static_cast<double>(max_cost) / target;
  }

  if (diags != nullptr && plan.imbalance > options.imbalance_warning) {
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.code = codes::kPlanImbalance;
    d.location = "shards=" + std::to_string(options.shards);
    d.message = "max shard load is " + std::to_string(plan.imbalance) +
                "x the mean (threshold " +
                std::to_string(options.imbalance_warning) +
                "); consider fewer shards or finer prefixes";
    diags->push_back(std::move(d));
  }
  return plan;
}

std::string plan_to_json(const ShardPlan& plan,
                         const std::vector<PrefixWorkset>& worksets,
                         int indent) {
  nb::JsonWriter json(indent);
  json.begin_object();
  json.key("tool").value("plan");
  json.key("version").value(ShardPlan::kVersion);
  json.key("shards").value(static_cast<std::uint64_t>(plan.num_shards));
  json.key("total_cost").value(plan.total_cost);
  json.key("cut_weight").value(plan.cut_weight);
  json.key("imbalance").value_fixed(plan.imbalance, 4);
  json.key("relaxed_prefixes")
      .value(static_cast<std::uint64_t>(plan.relaxed_prefixes));
  // Hex string, not a number: JSON doubles cannot hold 64 bits exactly.
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(plan.fingerprint));
  json.key("fingerprint").value(fingerprint);
  json.key("plan").begin_array();
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    const ShardPlan::Shard& shard = plan.shards[s];
    json.begin_object();
    json.key("shard").value(static_cast<std::uint64_t>(s));
    json.key("cost").value(shard.cost);
    json.key("routers").value(static_cast<std::uint64_t>(shard.routers));
    json.key("prefixes").begin_array();
    for (const std::size_t p : shard.prefixes) {
      const PrefixWorkset& ws = worksets[p];
      json.begin_object();
      json.key("prefix").value(ws.prefix.str());
      json.key("origin").value(static_cast<std::uint64_t>(ws.origin));
      json.key("cost").value(ws.cost);
      json.key("workset").value(static_cast<std::uint64_t>(ws.size));
      json.key("relaxed").value(ws.relaxed);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace analysis
