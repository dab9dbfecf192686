// Propagation-engine tests on hand-built topologies: path selection,
// loop prevention, filters, MED ranking, relationship policies, hot-potato
// IGP costs and withdraw semantics.
#include <gtest/gtest.h>

#include "bgp/engine.hpp"

namespace {

using bgp::Engine;
using bgp::EngineOptions;
using bgp::PrefixSimResult;
using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::Model;

std::vector<Asn> best_path(const Model& m, const PrefixSimResult& sim,
                           RouterId router) {
  const PrefixSimResult::Row best = sim.best_row(m.dense(router));
  EXPECT_NE(best, PrefixSimResult::kNoRow)
      << "no best route at " << router.str();
  return best == PrefixSimResult::kNoRow ? std::vector<Asn>{}
                                         : sim.route(best).path;
}

/// Router `router`'s Adj-RIB-In as Routes, in insertion order.
std::vector<bgp::Route> rib_in(const Model& m, const PrefixSimResult& sim,
                               RouterId router) {
  std::vector<bgp::Route> out;
  for (const PrefixSimResult::Row row : sim.rows(m.dense(router)))
    out.push_back(sim.route(row));
  return out;
}

Model line_model() {
  // 1 -- 2 -- 3 -- 4
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  return Model::one_router_per_as(g);
}

Model diamond_model() {
  // 1 -- 2 -- 4 (short side) and 1 -- 3 -- 5 -- 4 (detour), so the
  // shortest-path choice at AS 1 is via AS 2.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 4);
  g.add_edge(1, 3);
  g.add_edge(3, 5);
  g.add_edge(5, 4);
  return Model::one_router_per_as(g);
}

TEST(EngineTest, PropagatesAlongLine) {
  Model m = line_model();
  Engine e(m);
  auto sim = e.run(Prefix::for_asn(4), 4);
  EXPECT_TRUE(sim.converged);
  EXPECT_EQ(best_path(m, sim, RouterId{4, 0}), (std::vector<Asn>{}));
  EXPECT_EQ(best_path(m, sim, RouterId{3, 0}), (std::vector<Asn>{4}));
  EXPECT_EQ(best_path(m, sim, RouterId{2, 0}), (std::vector<Asn>{3, 4}));
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{2, 3, 4}));
}

TEST(EngineTest, ShortestPathWinsInDiamond) {
  Model m = diamond_model();
  Engine e(m);
  auto sim = e.run(Prefix::for_asn(4), 4);
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{2, 4}));
  // The longer route is still in the RIB-In.
  const auto rib = rib_in(m, sim, RouterId{1, 0});
  bool has_long = false;
  for (const auto& entry : rib)
    has_long |= entry.path == std::vector<Asn>{3, 5, 4};
  EXPECT_TRUE(has_long);
}

TEST(EngineTest, UnknownOriginYieldsEmptyResult) {
  Model m = line_model();
  Engine e(m);
  auto sim = e.run(Prefix::for_asn(99), 99);
  EXPECT_TRUE(sim.converged);
  for (std::uint32_t r = 0; r < sim.num_routers(); ++r)
    EXPECT_EQ(sim.best(r), -1);
}

TEST(EngineTest, TieBreakPrefersLowerRouterId) {
  // Two equal-length routes into AS 1 from AS 2 and AS 3; senders 2.0 < 3.0.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  Model m = Model::one_router_per_as(g);
  Engine e(m);
  auto sim = e.run(Prefix::for_asn(4), 4);
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{2, 4}));
}

TEST(EngineTest, LoopPreventionDropsOwnAsn) {
  // Triangle 1-2-3, origin 3: AS 1 must never accept a route through
  // itself; every RIB-In path at 1 excludes 1.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  Model m = Model::one_router_per_as(g);
  Engine e(m);
  auto sim = e.run(Prefix::for_asn(3), 3);
  for (const auto& entry : rib_in(m, sim, RouterId{1, 0}))
    EXPECT_FALSE(bgp::path_contains(entry.path, 1));
}

TEST(EngineTest, DenyAllFilterBlocksPrefix) {
  Model m = line_model();
  Prefix p = Prefix::for_asn(4);
  m.set_export_filter(RouterId{3, 0}, RouterId{2, 0}, p,
                      topo::ExportFilter::kDenyAll, nb::kInvalidRouterId);
  Engine e(m);
  auto sim = e.run(p, 4);
  EXPECT_EQ(sim.best(m.dense(RouterId{2, 0})), -1);
  EXPECT_EQ(sim.best(m.dense(RouterId{1, 0})), -1);
  // AS 3 itself still has the route.
  EXPECT_EQ(best_path(m, sim, RouterId{3, 0}), (std::vector<Asn>{4}));
}

TEST(EngineTest, FilterIsPerPrefix) {
  Model m = line_model();
  m.set_export_filter(RouterId{3, 0}, RouterId{2, 0}, Prefix::for_asn(4),
                      topo::ExportFilter::kDenyAll, nb::kInvalidRouterId);
  Engine e(m);
  auto other = e.run(Prefix::for_asn(3), 3);  // different prefix unaffected
  EXPECT_EQ(best_path(m, other, RouterId{2, 0}), (std::vector<Asn>{3}));
}

TEST(EngineTest, DenyBelowLengthAllowsLongerRoute) {
  // Diamond: block the short path into AS 1 so the detour wins.
  Model m = diamond_model();
  Prefix p = Prefix::for_asn(4);
  // Arriving length of 2-4 at AS 1 is 2; deny below 3 blocks it.
  m.set_export_filter(RouterId{2, 0}, RouterId{1, 0}, p, 3,
                      nb::kInvalidRouterId);
  Engine e(m);
  auto sim = e.run(p, 4);
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{3, 5, 4}));
}

TEST(EngineTest, MedRankingSelectsPreferredNeighbor) {
  // AS 1 hears equal-length routes from AS 2 and AS 3; ranking prefers 3
  // even though 2.0 would win the tie-break.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  Model m = Model::one_router_per_as(g);
  Prefix p = Prefix::for_asn(4);
  m.set_ranking(RouterId{1, 0}, p, 3);
  Engine e(m);
  auto sim = e.run(p, 4);
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{3, 4}));
}

TEST(EngineTest, MedRankingDoesNotOverrideLength) {
  Model m = diamond_model();
  Prefix p = Prefix::for_asn(4);
  m.set_ranking(RouterId{1, 0}, p, 3);  // prefer the longer side
  Engine e(m);
  auto sim = e.run(p, 4);
  // Path length is evaluated before MED: the short route still wins.
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{2, 4}));
}

TEST(EngineTest, LocalPrefOverrideWins) {
  Model m = diamond_model();
  Prefix p = Prefix::for_asn(4);
  m.set_lp_override(RouterId{1, 0}, p, 3, 150);  // ground-truth weirdness
  Engine e(m);
  auto sim = e.run(p, 4);
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{3, 5, 4}));
}

TEST(EngineTest, RelationshipPoliciesValleyFreeExport) {
  // 2 and 3 are both providers of 1 (origin); 2 and 3 peer.  A route
  // learned by 2 from peer 3 must not be re-exported to peer/provider, but
  // customer routes go everywhere.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(2, 5);  // 5 is 2's provider
  Model m = Model::one_router_per_as(g);
  m.set_neighbor_class(2, 1, topo::NeighborClass::kCustomer);
  m.set_neighbor_class(1, 2, topo::NeighborClass::kProvider);
  m.set_neighbor_class(3, 1, topo::NeighborClass::kCustomer);
  m.set_neighbor_class(1, 3, topo::NeighborClass::kProvider);
  m.set_neighbor_class(2, 3, topo::NeighborClass::kPeer);
  m.set_neighbor_class(3, 2, topo::NeighborClass::kPeer);
  m.set_neighbor_class(2, 5, topo::NeighborClass::kProvider);
  m.set_neighbor_class(5, 2, topo::NeighborClass::kCustomer);

  EngineOptions opts;
  opts.use_relationship_policies = true;
  Engine e(m, opts);
  auto sim = e.run(Prefix::for_asn(1), 1);
  // 2 hears 1 directly (customer) and via peer 3; customer route wins on
  // local-pref.
  EXPECT_EQ(best_path(m, sim, RouterId{2, 0}), (std::vector<Asn>{1}));
  // 5 (2's provider) must receive the customer-learned route.
  EXPECT_EQ(best_path(m, sim, RouterId{5, 0}), (std::vector<Asn>{2, 1}));
  // Peer 3's RIB-In must NOT contain a route via peer 2 learned from peer 3
  // itself... construct the sharper case: drop the 1-3 edge so 3 can only
  // hear via peer 2's peer-learned route -- which is forbidden.
  topo::AsGraph g2;
  g2.add_edge(1, 2);
  g2.add_edge(2, 3);
  g2.add_edge(2, 5);
  Model m2 = Model::one_router_per_as(g2);
  m2.set_neighbor_class(2, 1, topo::NeighborClass::kPeer);
  m2.set_neighbor_class(1, 2, topo::NeighborClass::kPeer);
  m2.set_neighbor_class(2, 3, topo::NeighborClass::kPeer);
  m2.set_neighbor_class(3, 2, topo::NeighborClass::kPeer);
  m2.set_neighbor_class(2, 5, topo::NeighborClass::kCustomer);
  m2.set_neighbor_class(5, 2, topo::NeighborClass::kProvider);
  Engine e2(m2, opts);
  auto sim2 = e2.run(Prefix::for_asn(1), 1);
  // Peer-learned route not exported to peer 3...
  EXPECT_EQ(sim2.best(m2.dense(RouterId{3, 0})), -1);
  // ...but exported to customer 5.
  EXPECT_EQ(best_path(m2, sim2, RouterId{5, 0}), (std::vector<Asn>{2, 1}));
}

TEST(EngineTest, LocalPrefPrefersCustomerRoutes) {
  // AS 1 can reach 4 via customer 2 (longer) or provider 3 (shorter);
  // customer route must win on local-pref.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 5);
  g.add_edge(5, 4);
  g.add_edge(1, 3);
  g.add_edge(3, 4);
  Model m = Model::one_router_per_as(g);
  auto set = [&](Asn of, Asn nb_, topo::NeighborClass cls) {
    m.set_neighbor_class(of, nb_, cls);
  };
  set(1, 2, topo::NeighborClass::kCustomer);
  set(2, 1, topo::NeighborClass::kProvider);
  set(1, 3, topo::NeighborClass::kProvider);
  set(3, 1, topo::NeighborClass::kCustomer);
  set(2, 5, topo::NeighborClass::kCustomer);
  set(5, 2, topo::NeighborClass::kProvider);
  set(5, 4, topo::NeighborClass::kCustomer);
  set(4, 5, topo::NeighborClass::kProvider);
  set(3, 4, topo::NeighborClass::kCustomer);
  set(4, 3, topo::NeighborClass::kProvider);
  EngineOptions opts;
  opts.use_relationship_policies = true;
  Engine e(m, opts);
  auto sim = e.run(Prefix::for_asn(4), 4);
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{2, 5, 4}));
}

TEST(EngineTest, IgpCostHotPotato) {
  // AS 1 has one router with two equal-length options; IGP cost steers away
  // from the tie-break choice.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 4);
  Model m = Model::one_router_per_as(g);
  m.set_igp_cost(RouterId{1, 0}, RouterId{2, 0}, 10);
  m.set_igp_cost(RouterId{1, 0}, RouterId{3, 0}, 1);
  EngineOptions opts;
  opts.use_igp_cost = true;
  Engine e(m, opts);
  auto sim = e.run(Prefix::for_asn(4), 4);
  EXPECT_EQ(best_path(m, sim, RouterId{1, 0}), (std::vector<Asn>{3, 4}));
  // Without the option the costs are ignored.
  Engine plain(m);
  auto sim2 = plain.run(Prefix::for_asn(4), 4);
  EXPECT_EQ(best_path(m, sim2, RouterId{1, 0}), (std::vector<Asn>{2, 4}));
}

TEST(EngineTest, MultiRouterAsPropagatesDiversity) {
  // AS 2 has two quasi-routers, each preferring a different upstream; the
  // downstream AS 1 hears both paths (the paper's core motivation).
  topo::AsGraph g;
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 9);
  g.add_edge(4, 9);
  g.add_edge(1, 2);
  Model m = Model::one_router_per_as(g);
  RouterId r2b = m.duplicate_router(RouterId{2, 0});
  Prefix p = Prefix::for_asn(9);
  m.set_ranking(RouterId{2, 0}, p, 3);
  m.set_ranking(r2b, p, 4);
  Engine e(m);
  auto sim = e.run(p, 9);
  std::set<std::vector<Asn>> seen;
  for (const auto& entry : rib_in(m, sim, RouterId{1, 0}))
    seen.insert(entry.path);
  EXPECT_TRUE(seen.count({2, 3, 9}));
  EXPECT_TRUE(seen.count({2, 4, 9}));
}

TEST(EngineTest, WithdrawOnFilteredBestChange) {
  // AS 3 first advertises its short route to 2; a filter then forces 3 to
  // use a path through 2 itself, which 2 must reject (loop) -- net effect:
  // 2 loses the route entirely and must see a withdraw, not a stale entry.
  // Construct: 2-3, 3-4, 2-4. Prefix at 4. Filter 4->3 deny-all: 3 can only
  // reach 4 via 2. Then 3's export to 2 contains AS 2 -> dropped.
  topo::AsGraph g;
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(2, 4);
  Model m = Model::one_router_per_as(g);
  Prefix p = Prefix::for_asn(4);
  m.set_export_filter(RouterId{4, 0}, RouterId{3, 0}, p,
                      topo::ExportFilter::kDenyAll, nb::kInvalidRouterId);
  Engine e(m);
  auto sim = e.run(p, 4);
  EXPECT_TRUE(sim.converged);
  EXPECT_EQ(best_path(m, sim, RouterId{3, 0}), (std::vector<Asn>{2, 4}));
  // 2's RIB-In has only the direct route (no entry from 3).
  const auto rib = rib_in(m, sim, RouterId{2, 0});
  ASSERT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib[0].path, (std::vector<Asn>{4}));
}

TEST(EngineTest, DeterministicAcrossRuns) {
  Model m = diamond_model();
  Engine e(m);
  auto a = e.run(Prefix::for_asn(4), 4);
  auto b = e.run(Prefix::for_asn(4), 4);
  ASSERT_EQ(a.num_routers(), b.num_routers());
  for (std::uint32_t i = 0; i < a.num_routers(); ++i) {
    EXPECT_EQ(a.best(i), b.best(i));
    ASSERT_EQ(a.rows(i).size(), b.rows(i).size());
    for (int j = 0; j < static_cast<int>(a.rows(i).size()); ++j)
      EXPECT_EQ(a.route(a.row(i, j)).path, b.route(b.row(i, j)).path);
  }
}

TEST(EngineTest, MessageCountingAndCap) {
  Model m = line_model();
  EngineOptions opts;
  opts.message_cap_factor = 0;  // absurd cap -> flagged as non-converged
  Engine e(m, opts);
  auto sim = e.run(Prefix::for_asn(4), 4);
  EXPECT_FALSE(sim.converged);
  Engine normal(m);
  auto ok = normal.run(Prefix::for_asn(4), 4);
  EXPECT_TRUE(ok.converged);
  EXPECT_GT(ok.messages, 0u);
}

TEST(EngineTest, DivergenceGuardTripIsAStructuredOutcome) {
  // A cap trip must leave callers with everything needed to report it:
  // the threshold that was in force, the message count that hit it, and
  // the activations processed before the guard fired.
  Model m = line_model();
  EngineOptions opts;
  opts.message_cap_factor = 0;
  Engine e(m, opts);
  auto sim = e.run(Prefix::for_asn(4), 4);
  EXPECT_FALSE(sim.converged);
  EXPECT_EQ(sim.message_cap, 0u);
  EXPECT_GE(sim.messages, sim.message_cap);
  EXPECT_GT(sim.activations, 0u);

  Engine normal(m);
  auto ok = normal.run(Prefix::for_asn(4), 4);
  EXPECT_TRUE(ok.converged);
  EXPECT_GT(ok.message_cap, 0u);
  EXPECT_LT(ok.messages, ok.message_cap);
  EXPECT_GE(ok.activations, m.num_routers());
}

TEST(EngineTest, ModelMutationPickedUpBetweenRuns) {
  Model m = line_model();
  Engine e(m);
  auto before = e.run(Prefix::for_asn(4), 4);
  EXPECT_NE(before.best(m.dense(RouterId{1, 0})), -1);
  m.set_export_filter(RouterId{2, 0}, RouterId{1, 0}, Prefix::for_asn(4),
                      topo::ExportFilter::kDenyAll, nb::kInvalidRouterId);
  auto after = e.run(Prefix::for_asn(4), 4);
  EXPECT_EQ(after.best(m.dense(RouterId{1, 0})), -1);
}

}  // namespace
