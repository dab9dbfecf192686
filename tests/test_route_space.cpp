// Static route-space abstraction (analysis/route_space): MAY-set
// enumeration, blackhole detection, relaxed reachability, and the
// guaranteed-router under-approximation -- including the dynamic soundness
// check that guaranteed routers really do install a route under full
// simulation.
#include "analysis/route_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/pipeline.hpp"
#include "topology/as_graph.hpp"

namespace {

using analysis::RouteSpace;
using analysis::RouteSpaceOptions;
using nb::Prefix;
using nb::RouterId;
using topo::ExportFilter;
using topo::Model;

/// Origin AS 9 reachable from AS 5 via two branches: 9 - 1 - 5, 9 - 2 - 5.
Model diamond() {
  topo::AsGraph graph;
  graph.add_edge(9, 1);
  graph.add_edge(9, 2);
  graph.add_edge(1, 5);
  graph.add_edge(2, 5);
  return Model::one_router_per_as(graph);
}

TEST(RouteSpaceTest, DiamondEnumeratesBothBranches) {
  const Model model = diamond();
  const bgp::Engine engine(model);
  const RouteSpace space =
      analysis::build_route_space(engine, Prefix::for_asn(9), 9);
  EXPECT_FALSE(space.truncated);
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    EXPECT_TRUE(space.may_reach(r)) << model.router_id(r).str();
  }
  // AS 5 receives [1 9] and [2 9] -- and nothing else: the longer walks
  // around the diamond all revisit an AS and die to loop detection.
  const Model::Dense five = model.dense(RouterId{5, 0});
  EXPECT_EQ(space.by_router[five].size(), 2u);
  for (const std::size_t id : space.by_router[five]) {
    EXPECT_EQ(space.nodes[id].route.path.size(), 2u);
    EXPECT_EQ(space.nodes[id].route.path.back(), 9u);
  }
}

TEST(RouteSpaceTest, MinAnnouncedLenIsExact) {
  const Model model = diamond();
  const bgp::Engine engine(model);
  const RouteSpace space =
      analysis::build_route_space(engine, Prefix::for_asn(9), 9);
  // The origin holds the empty path and announces [9]: length 1.
  EXPECT_EQ(space.min_announced_len(model.dense(RouterId{9, 0})), 1u);
  // AS 1 holds [9] and announces [1 9]: length 2.
  EXPECT_EQ(space.min_announced_len(model.dense(RouterId{1, 0})), 2u);
  // AS 5 holds length-2 paths and announces length 3.
  EXPECT_EQ(space.min_announced_len(model.dense(RouterId{5, 0})), 3u);
}

TEST(RouteSpaceTest, DenyAllOnBothBranchesMakesStaticBlackhole) {
  Model model = diamond();
  const Prefix prefix = Prefix::for_asn(9);
  model.set_export_filter(RouterId{1, 0}, RouterId{5, 0}, prefix,
                          ExportFilter::kDenyAll, RouterId{5, 0});
  model.set_export_filter(RouterId{2, 0}, RouterId{5, 0}, prefix,
                          ExportFilter::kDenyAll, RouterId{5, 0});
  const bgp::Engine engine(model);
  const RouteSpace space = analysis::build_route_space(engine, prefix, 9);
  ASSERT_FALSE(space.truncated);
  EXPECT_FALSE(space.may_reach(model.dense(RouterId{5, 0})));
  EXPECT_EQ(space.min_announced_len(model.dense(RouterId{5, 0})),
            std::numeric_limits<std::size_t>::max());

  analysis::Diagnostics out;
  EXPECT_EQ(analysis::report_blackholes(model, space, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().code, analysis::codes::kStaticBlackhole);
  EXPECT_NE(out.front().message.find("5.0"), std::string::npos);
}

TEST(RouteSpaceTest, TruncationWithdrawsBlackholeClaims) {
  const Model model = diamond();
  const bgp::Engine engine(model);
  RouteSpaceOptions options;
  options.max_nodes = 2;
  const RouteSpace space =
      analysis::build_route_space(engine, Prefix::for_asn(9), 9, options);
  ASSERT_TRUE(space.truncated);
  analysis::Diagnostics out;
  EXPECT_EQ(analysis::report_blackholes(model, space, out), 0u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().code, analysis::codes::kRouteSpaceTruncated);
}

TEST(RouteSpaceTest, RelaxedReachabilityContainsMayReach) {
  Model model = diamond();
  const Prefix prefix = Prefix::for_asn(9);
  // One kDenyAll branch: 5 stays may-reachable (and relaxed-reachable)
  // through the other.
  model.set_export_filter(RouterId{1, 0}, RouterId{5, 0}, prefix,
                          ExportFilter::kDenyAll, RouterId{5, 0});
  const bgp::Engine engine(model);
  const RouteSpace space = analysis::build_route_space(engine, prefix, 9);
  const std::vector<char> relaxed =
      analysis::relaxed_reachable(model, model.find_policy(prefix), 9);
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    if (space.may_reach(r)) {
      EXPECT_NE(relaxed[r], 0) << model.router_id(r).str();
    }
  }
  // Cutting BOTH branches with kDenyAll severs even relaxed reachability.
  model.set_export_filter(RouterId{2, 0}, RouterId{5, 0}, prefix,
                          ExportFilter::kDenyAll, RouterId{5, 0});
  const std::vector<char> cut =
      analysis::relaxed_reachable(model, model.find_policy(prefix), 9);
  EXPECT_EQ(cut[model.dense(RouterId{5, 0})], 0);
}

TEST(RouteSpaceTest, DeriveOriginFollowsConvention) {
  const Model model = diamond();
  EXPECT_EQ(analysis::derive_origin(model, Prefix::for_asn(9)), 9u);
  // AS 77 not in the model: underivable.
  EXPECT_EQ(analysis::derive_origin(model, Prefix::for_asn(77)),
            nb::kInvalidAsn);
  // A prefix outside the convention entirely.
  EXPECT_EQ(analysis::derive_origin(model, *Prefix::parse("192.168.7.0/24")),
            nb::kInvalidAsn);
}

TEST(GuaranteedTest, DiamondGuaranteesOriginNeighborsOnly) {
  // The under-approximation is conservative on the diamond: 1 and 2 are
  // guaranteed (the origin transmits its one route to them), but 5 is NOT,
  // even though it always installs in practice -- may(1) contains the
  // walked-around route [5 2 9], which 1 cannot transmit back to 5 (AS
  // loop), so "every route in may(1) transmits" fails, and symmetrically
  // for 2.  This pins the promised direction of the approximation.
  const Model model = diamond();
  const bgp::Engine engine(model);
  const RouteSpace space =
      analysis::build_route_space(engine, Prefix::for_asn(9), 9);
  const std::vector<char> guaranteed =
      analysis::guaranteed_routers(engine, space);
  EXPECT_NE(guaranteed[model.dense(RouterId{9, 0})], 0);
  EXPECT_NE(guaranteed[model.dense(RouterId{1, 0})], 0);
  EXPECT_NE(guaranteed[model.dense(RouterId{2, 0})], 0);
  EXPECT_EQ(guaranteed[model.dense(RouterId{5, 0})], 0);
}

/// 9 - 1 - 5 chain with a 9 - 8 - 1 detour: may(1) = {[9], [8 9]}, and both
/// transmit to the leaf 5 (no loops through it).
Model chain_with_detour() {
  topo::AsGraph graph;
  graph.add_edge(9, 1);
  graph.add_edge(9, 8);
  graph.add_edge(8, 1);
  graph.add_edge(1, 5);
  return Model::one_router_per_as(graph);
}

TEST(GuaranteedTest, FilterThatCanDropSomeRouteBlocksTheGuarantee) {
  Model model = chain_with_detour();
  const Prefix prefix = Prefix::for_asn(9);
  {
    const bgp::Engine engine(model);
    const RouteSpace space = analysis::build_route_space(engine, prefix, 9);
    const std::vector<char> guaranteed =
        analysis::guaranteed_routers(engine, space);
    EXPECT_NE(guaranteed[model.dense(RouterId{5, 0})], 0);
  }
  // deny-below 3 on 1->5 drops the length-2 announcement [1 9] but passes
  // [1 8 9]: 1 no longer transmits EVERYTHING it may select, so 5 loses
  // the guarantee -- while staying MAY-reachable through the long route.
  model.set_export_filter(RouterId{1, 0}, RouterId{5, 0}, prefix, 3,
                          RouterId{5, 0});
  const bgp::Engine engine(model);
  const RouteSpace space = analysis::build_route_space(engine, prefix, 9);
  const std::vector<char> guaranteed =
      analysis::guaranteed_routers(engine, space);
  EXPECT_EQ(guaranteed[model.dense(RouterId{5, 0})], 0);
  EXPECT_TRUE(space.may_reach(model.dense(RouterId{5, 0})));
}

TEST(GuaranteedTest, TruncationCollapsesToOriginRouters) {
  const Model model = diamond();
  const bgp::Engine engine(model);
  RouteSpaceOptions options;
  options.max_nodes = 2;
  const RouteSpace space =
      analysis::build_route_space(engine, Prefix::for_asn(9), 9, options);
  ASSERT_TRUE(space.truncated);
  const std::vector<char> guaranteed =
      analysis::guaranteed_routers(engine, space);
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    EXPECT_EQ(guaranteed[r] != 0, model.router_id(r).asn() == 9)
        << model.router_id(r).str();
  }
}

TEST(GuaranteedTest, GuaranteedRoutersInstallUnderFullSimulation) {
  // Dynamic soundness: on a fitted model, every router the static analysis
  // guarantees must actually hold a best route after full simulation, and
  // every router that holds one must be MAY-reachable.
  core::Pipeline pipeline =
      core::run_full_pipeline(core::PipelineConfig::with(0.06, 13));
  ASSERT_TRUE(pipeline.refine_result.success);
  const bgp::Engine engine(pipeline.model);
  RouteSpaceOptions generous;
  generous.max_paths_per_router = 4096;
  generous.max_nodes = 1u << 20;
  std::size_t prefixes_checked = 0;
  for (const auto& [prefix, policy] : pipeline.model.prefix_policies()) {
    if (policy.empty()) continue;
    const nb::Asn origin = analysis::derive_origin(pipeline.model, prefix);
    ASSERT_NE(origin, nb::kInvalidAsn);
    const RouteSpace space =
        analysis::build_route_space(engine, prefix, origin, generous);
    const std::vector<char> guaranteed =
        analysis::guaranteed_routers(engine, space);
    const bgp::PrefixSimResult sim = engine.run(prefix, origin);
    ASSERT_TRUE(sim.converged);
    for (Model::Dense r = 0; r < pipeline.model.num_routers(); ++r) {
      const bool installed = sim.routers[r].best_route() != nullptr;
      if (guaranteed[r] != 0) {
        EXPECT_TRUE(installed)
            << prefix.str() << " " << pipeline.model.router_id(r).str()
            << ": guaranteed but uninstalled";
      }
      if (installed && !space.truncated) {
        EXPECT_TRUE(space.may_reach(r))
            << prefix.str() << " " << pipeline.model.router_id(r).str()
            << ": installed outside the MAY set";
      }
    }
    ++prefixes_checked;
  }
  EXPECT_GT(prefixes_checked, 0u);
}

}  // namespace
