// Static edit-impact sets (analysis/impact): the dynamic soundness
// guarantee.  For sampled edits on several generated topologies, every
// router whose steady-state selection changes under a full re-simulation
// must be contained in the statically computed impact set -- the
// acceptance criterion of the route-space analyzer.
#include "analysis/impact.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace {

using analysis::ImpactOptions;
using analysis::ImpactResult;
using analysis::ModelEdit;
using nb::Prefix;
using nb::RouterId;
using topo::Model;

/// The k-th session of the model (deterministic order: dense router index,
/// then peers ascending), as a (lower, higher) RouterId pair.
std::pair<RouterId, RouterId> nth_session(const Model& model, std::size_t k) {
  std::size_t seen = 0;
  for (Model::Dense v = 0; v < model.num_routers(); ++v) {
    for (const Model::Dense u : model.peers(v)) {
      if (model.router_id(v).value() >= model.router_id(u).value()) continue;
      if (seen++ == k) return {model.router_id(v), model.router_id(u)};
    }
  }
  ADD_FAILURE() << "model has fewer than " << k + 1 << " sessions";
  return {RouterId{}, RouterId{}};
}

std::size_t count_sessions(const Model& model) {
  std::size_t n = 0;
  for (Model::Dense v = 0; v < model.num_routers(); ++v) {
    n += model.peers(v).size();
  }
  return n / 2;
}

/// All (prefix, origin) pairs the impact analysis would target.
std::vector<std::pair<Prefix, nb::Asn>> derivable_targets(const Model& model) {
  std::vector<std::pair<Prefix, nb::Asn>> targets;
  for (const auto& [prefix, policy] : model.prefix_policies()) {
    if (policy.empty()) continue;
    const nb::Asn origin = analysis::derive_origin(model, prefix);
    if (origin != nb::kInvalidAsn) targets.emplace_back(prefix, origin);
  }
  return targets;
}

bool routes_differ(const bgp::Route* x, const bgp::Route* y) {
  if ((x == nullptr) != (y == nullptr)) return true;
  if (x == nullptr) return false;
  return x->path != y->path || x->sender != y->sender ||
         x->local_pref != y->local_pref || x->med != y->med ||
         x->igp_cost != y->igp_cost;
}

/// Re-simulates every targeted prefix pre- and post-edit and asserts that
/// each router whose best selection changed is inside the static impact
/// set for that prefix.  Returns the number of changed (prefix, router)
/// pairs so callers can assert the exercise was not vacuous.
std::size_t check_soundness(const Model& base, const ModelEdit& edit,
                            const bgp::EngineOptions& engine_options,
                            const std::string& label) {
  ImpactOptions options;
  options.engine = engine_options;
  const ImpactResult impact = analysis::compute_impact(base, edit, options);

  std::map<Prefix, std::set<std::uint32_t>> impact_by_prefix;
  for (const auto& prefix : impact.prefixes) {
    auto& set = impact_by_prefix[prefix.prefix];
    for (const RouterId id : prefix.routers) set.insert(id.value());
  }

  const Model post = analysis::apply_edit(base, edit);
  const bgp::Engine engine_pre(base, engine_options);
  const bgp::Engine engine_post(post, engine_options);

  std::size_t changed_total = 0;
  for (const auto& [prefix, origin] : derivable_targets(base)) {
    const bgp::PrefixSimResult pre = engine_pre.run(prefix, origin);
    const bgp::PrefixSimResult sim_post = engine_post.run(prefix, origin);
    EXPECT_TRUE(pre.converged && sim_post.converged) << label;
    const auto it = impact_by_prefix.find(prefix);
    for (Model::Dense r = 0; r < base.num_routers(); ++r) {
      // apply_edit never removes routers, so dense indices agree.
      if (!routes_differ(pre.routers[r].best_route(),
                         sim_post.routers[r].best_route())) {
        continue;
      }
      ++changed_total;
      const std::uint32_t id = base.router_id(r).value();
      const bool covered =
          it != impact_by_prefix.end() && it->second.count(id) != 0;
      EXPECT_TRUE(covered) << label << ": " << edit.str() << " changed "
                           << base.router_id(r).str() << " for "
                           << prefix.str()
                           << " outside the static impact set";
    }
  }
  return changed_total;
}

/// Deterministic edit samples spread across the model's session list.
std::vector<ModelEdit> sample_edits(const Model& model) {
  std::vector<ModelEdit> edits;
  const std::size_t sessions = count_sessions(model);
  const auto targets = derivable_targets(model);
  if (sessions == 0 || targets.empty()) return edits;

  for (const std::size_t k :
       {std::size_t{0}, sessions / 3, (2 * sessions) / 3}) {
    ModelEdit down;
    down.kind = ModelEdit::Kind::kSessionDown;
    std::tie(down.a, down.b) = nth_session(model, k % sessions);
    edits.push_back(down);
  }

  // Ranking edits: prefer the first peer's AS at one endpoint of a session,
  // for a prefix staggered across the overlay list.
  for (std::size_t i = 0; i < 2; ++i) {
    const auto [prefix, origin] = targets[(i * 5 + 1) % targets.size()];
    const auto [a, b] = nth_session(model, (i * 11 + 3) % sessions);
    ModelEdit rank;
    rank.kind = ModelEdit::Kind::kPolicyChange;
    rank.router = a;
    rank.prefix = prefix;
    rank.preferred = b.asn();
    edits.push_back(rank);
  }

  // Filter edits: one new deny-below filter, one kDenyAll.
  for (std::size_t i = 0; i < 2; ++i) {
    const auto [prefix, origin] = targets[(i * 7 + 2) % targets.size()];
    const auto [a, b] = nth_session(model, (i * 13 + 5) % sessions);
    ModelEdit filter;
    filter.kind = ModelEdit::Kind::kFilterEdit;
    filter.a = a;
    filter.b = b;
    filter.prefix = prefix;
    filter.deny_below_len =
        i == 0 ? 4u : topo::ExportFilter::kDenyAll;
    edits.push_back(filter);
  }
  return edits;
}

TEST(ImpactSoundnessTest, ChangedRoutersAreContainedInImpactSet) {
  // Three generated topologies; fitted models under the default engine and
  // one ground truth under relationship policies + IGP costs.
  struct Scenario {
    double scale;
    std::uint64_t seed;
    bool ground_truth;
  };
  const Scenario scenarios[] = {
      {0.05, 3, false},
      {0.06, 5, true},
      {0.08, 11, false},
  };
  std::size_t changed_total = 0;
  for (const Scenario& scenario : scenarios) {
    core::Pipeline pipeline = core::run_full_pipeline(
        core::PipelineConfig::with(scenario.scale, scenario.seed));
    ASSERT_TRUE(pipeline.refine_result.success);
    const Model& model =
        scenario.ground_truth ? pipeline.ground_truth.model : pipeline.model;
    const bgp::EngineOptions engine_options =
        scenario.ground_truth
            ? pipeline.ground_truth.config.engine_options()
            : bgp::EngineOptions{};
    const std::string label =
        (scenario.ground_truth ? "ground-truth " : "fitted ") +
        std::to_string(scenario.scale) + "/" +
        std::to_string(scenario.seed);
    for (const ModelEdit& edit : sample_edits(model)) {
      changed_total += check_soundness(model, edit, engine_options, label);
    }
  }
  // The guarantee must have been exercised, not vacuously satisfied:
  // across 21 sampled edits some simulations must actually change.
  EXPECT_GT(changed_total, 0u);
}

TEST(ImpactTest, SessionDownSeedsBothEndpoints) {
  core::Pipeline pipeline =
      core::run_full_pipeline(core::PipelineConfig::with(0.05, 3));
  ASSERT_TRUE(pipeline.refine_result.success);
  const Model& model = pipeline.model;
  ModelEdit edit;
  edit.kind = ModelEdit::Kind::kSessionDown;
  std::tie(edit.a, edit.b) = nth_session(model, 0);
  const ImpactResult impact = analysis::compute_impact(model, edit);
  ASSERT_FALSE(impact.prefixes.empty());
  // Both endpoints are seeds, so they appear in every per-prefix set that
  // they can hold a route for.
  for (const auto& prefix : impact.prefixes) {
    EXPECT_FALSE(prefix.routers.empty()) << prefix.prefix.str();
  }
  EXPECT_GT(impact.routers_total, 0u);
}

TEST(ImpactTest, EditOnMissingSessionIsEmpty) {
  core::Pipeline pipeline =
      core::run_full_pipeline(core::PipelineConfig::with(0.05, 3));
  const Model& model = pipeline.model;
  ModelEdit edit;
  edit.kind = ModelEdit::Kind::kSessionDown;
  edit.a = RouterId{0xfffe, 0};
  edit.b = RouterId{0xfffd, 0};
  const ImpactResult impact = analysis::compute_impact(model, edit);
  EXPECT_TRUE(impact.prefixes.empty());
  EXPECT_EQ(impact.routers_total, 0u);
  // apply_edit of an unknown session is a no-op, not an error.
  const Model post = analysis::apply_edit(model, edit);
  EXPECT_EQ(post.num_routers(), model.num_routers());
}

TEST(ImpactTest, PolicyChangeOnlyTargetsItsOwnPrefix) {
  core::Pipeline pipeline =
      core::run_full_pipeline(core::PipelineConfig::with(0.05, 3));
  const Model& model = pipeline.model;
  const auto targets = derivable_targets(model);
  ASSERT_GT(targets.size(), 1u);
  const auto [a, b] = nth_session(model, 0);
  ModelEdit edit;
  edit.kind = ModelEdit::Kind::kPolicyChange;
  edit.router = a;
  edit.prefix = targets.front().first;
  edit.preferred = b.asn();
  const ImpactResult impact = analysis::compute_impact(model, edit);
  for (const auto& prefix : impact.prefixes) {
    EXPECT_EQ(prefix.prefix, edit.prefix);
  }
}

}  // namespace
