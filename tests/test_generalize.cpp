// Tests for policy-granularity analysis and ranking generalization, plus
// the engine's default-ranking fallback and export-allow (route leak)
// semantics they build on.
#include <gtest/gtest.h>

#include "bgp/engine.hpp"
#include "core/generalize.hpp"
#include "core/pipeline.hpp"
#include "core/predict.hpp"

namespace {

using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::Model;

Model fan_model() {
  // AS 1 hears equal-length routes from AS 2 and AS 3 for two prefixes.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  g.add_edge(2, 5);
  g.add_edge(3, 5);
  return Model::one_router_per_as(g);
}

TEST(EngineDefaultRanking, AppliesWhenNoPrefixRule) {
  Model m = fan_model();
  m.set_default_ranking(RouterId{1, 0}, 3);
  bgp::Engine engine(m);
  auto sim = engine.run(Prefix::for_asn(4), 4);
  const auto best = sim.best_row(m.dense(RouterId{1, 0}));
  ASSERT_NE(best, bgp::PrefixSimResult::kNoRow);
  EXPECT_EQ(sim.route(best).path, (std::vector<Asn>{3, 4}));
}

TEST(EngineDefaultRanking, PerPrefixRuleOverridesDefault) {
  Model m = fan_model();
  m.set_default_ranking(RouterId{1, 0}, 3);
  m.set_ranking(RouterId{1, 0}, Prefix::for_asn(4), 2);
  bgp::Engine engine(m);
  auto sim = engine.run(Prefix::for_asn(4), 4);
  EXPECT_EQ(sim.route(sim.best_row(m.dense(RouterId{1, 0}))).path,
            (std::vector<Asn>{2, 4}));
  // The other prefix still follows the default.
  auto other = engine.run(Prefix::for_asn(5), 5);
  EXPECT_EQ(other.route(other.best_row(m.dense(RouterId{1, 0}))).path,
            (std::vector<Asn>{3, 5}));
}

TEST(EngineDefaultRanking, DuplicateInheritsDefault) {
  Model m = fan_model();
  m.set_default_ranking(RouterId{1, 0}, 3);
  RouterId dup = m.duplicate_router(RouterId{1, 0});
  EXPECT_EQ(m.default_ranking(m.dense(dup)), 3u);
}

TEST(ExportAllowTest, LeakBypassesValleyFreeForOnePrefix) {
  // 1 (origin) peers with 2; 2 peers with 3: the peer-learned route must not
  // reach 3 -- unless the leak is configured, and then only for that prefix.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Model m = Model::one_router_per_as(g);
  for (auto [a, b] : {std::pair<Asn, Asn>{1, 2}, {2, 3}}) {
    m.set_neighbor_class(a, b, topo::NeighborClass::kPeer);
    m.set_neighbor_class(b, a, topo::NeighborClass::kPeer);
  }
  bgp::EngineOptions options;
  options.use_relationship_policies = true;
  bgp::Engine engine(m, options);
  auto blocked = engine.run(Prefix::for_asn(1), 1);
  EXPECT_EQ(blocked.best(m.dense(RouterId{3, 0})), -1);

  m.set_export_allow(RouterId{2, 0}, RouterId{3, 0}, Prefix::for_asn(1));
  auto leaked = engine.run(Prefix::for_asn(1), 1);
  const auto best = leaked.best_row(m.dense(RouterId{3, 0}));
  ASSERT_NE(best, bgp::PrefixSimResult::kNoRow);
  EXPECT_EQ(leaked.route(best).path, (std::vector<Asn>{2, 1}));
  // Other prefixes remain subject to the valley-free rule: 2's own prefix
  // is originated (always exportable), so probe with a second peer origin.
  // Reuse origin 3 toward 1: the leak was directional and per-prefix.
  auto reverse = engine.run(Prefix::for_asn(3), 3);
  EXPECT_EQ(reverse.best(m.dense(RouterId{1, 0})), -1);
}

TEST(GranularityTest, CountsUniformAndMixedRouters) {
  Model m = fan_model();
  m.set_ranking(RouterId{1, 0}, Prefix::for_asn(4), 3);
  m.set_ranking(RouterId{1, 0}, Prefix::for_asn(5), 3);  // uniform
  m.set_ranking(RouterId{2, 0}, Prefix::for_asn(4), 4);
  m.set_ranking(RouterId{2, 0}, Prefix::for_asn(5), 5);  // mixed
  auto stats = core::analyze_policy_granularity(m);
  EXPECT_EQ(stats.routers_with_rankings, 2u);
  EXPECT_EQ(stats.routers_uniform, 1u);
  EXPECT_EQ(stats.rankings_total, 4u);
  EXPECT_EQ(stats.distinct_preferences.count_of(1), 1u);
  EXPECT_EQ(stats.distinct_preferences.count_of(2), 1u);
}

TEST(GeneralizeTest, CollapsesUniformKeepsMixed) {
  Model m = fan_model();
  m.set_ranking(RouterId{1, 0}, Prefix::for_asn(4), 3);
  m.set_ranking(RouterId{1, 0}, Prefix::for_asn(5), 3);
  m.set_ranking(RouterId{2, 0}, Prefix::for_asn(4), 4);
  m.set_ranking(RouterId{2, 0}, Prefix::for_asn(5), 5);
  auto result = core::generalize_rankings(m);
  EXPECT_EQ(result.defaults_added, 1u);
  EXPECT_EQ(result.rules_removed, 2u);
  EXPECT_EQ(m.num_default_rankings(), 1u);
  EXPECT_EQ(m.default_ranking(m.dense(RouterId{1, 0})), 3u);
  // Mixed router keeps per-prefix rules.
  const topo::PrefixPolicy* p4 = m.find_policy(Prefix::for_asn(4));
  ASSERT_NE(p4, nullptr);
  EXPECT_TRUE(p4->rankings.count(RouterId{2, 0}.value()));
  EXPECT_FALSE(p4->rankings.count(RouterId{1, 0}.value()));
}

TEST(GeneralizeTest, PreservesBehaviourOnRuledPrefixes) {
  Model m = fan_model();
  m.set_ranking(RouterId{1, 0}, Prefix::for_asn(4), 3);
  m.set_ranking(RouterId{1, 0}, Prefix::for_asn(5), 3);
  bgp::Engine engine(m);
  auto before4 = engine.run(Prefix::for_asn(4), 4);
  auto before5 = engine.run(Prefix::for_asn(5), 5);
  core::generalize_rankings(m);
  auto after4 = engine.run(Prefix::for_asn(4), 4);
  auto after5 = engine.run(Prefix::for_asn(5), 5);
  for (std::size_t r = 0; r < before4.num_routers(); ++r) {
    auto path_of = [](const bgp::PrefixSimResult& sim, std::size_t i) {
      const auto best = sim.best_row(i);
      return best == bgp::PrefixSimResult::kNoRow ? std::vector<Asn>{}
                                                  : sim.route(best).path;
    };
    EXPECT_EQ(path_of(before4, r), path_of(after4, r));
    EXPECT_EQ(path_of(before5, r), path_of(after5, r));
  }
}

TEST(GeneralizeTest, FittedModelMostlyUniform) {
  // On a fitted model most ranked quasi-routers serve one neighbor
  // preference (each is dedicated to paths via one neighbor) -- the
  // granularity question the follow-up paper asks.
  auto pipeline = core::run_full_pipeline(core::PipelineConfig::with(0.08, 6));
  ASSERT_TRUE(pipeline.refine_result.success);
  auto stats = core::analyze_policy_granularity(pipeline.model);
  EXPECT_GT(stats.routers_with_rankings, 0u);
  EXPECT_GT(static_cast<double>(stats.routers_uniform) /
                stats.routers_with_rankings,
            0.3);

  // Generalizing must not break the training fixpoint badly: evaluate.
  Model generalized = pipeline.model;
  auto result = core::generalize_rankings(generalized);
  EXPECT_GT(result.rules_removed, 0u);
  core::EvalOptions options;
  auto eval = core::evaluate_predictions(generalized,
                                         pipeline.split.training, options);
  EXPECT_GT(eval.stats.rib_out_rate(), 0.95);
}

}  // namespace
